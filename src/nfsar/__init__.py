"""Near-field SAR toolkit: simulate stepped-frequency echoes with
constant-delay interference and receiver saturation, image them by
back-projection, and suppress the interference patterns with a
sparse-plus-low-rank image decomposition."""

from .core_model import (
    Aperture,
    ClipperFit,
    EchoData,
    HarmonicComponent,
    Interferer,
    PointTarget,
    RadarParams,
    Saturation,
    Scene,
    apply_saturation,
    fit_clipper_polynomial,
    polynomial_transfer,
    predict_harmonic_ranges,
    synthesize_echo,
)
from .evaluation import (
    Peak,
    PeakList,
    SuppressionReport,
    background_subtract,
    comb_spacing,
    peak_detect,
    singular_spectrum,
    suppression_metrics,
)
from .imaging import (
    ComplexImage,
    GridAxis,
    ImageGrid,
    RangeProfileSet,
    backproject_2d,
    backproject_3d,
    image_to_db,
    range_compress,
)
from .suppression import (
    DecompositionResult,
    SolverConfig,
    decompose,
    decompose_image,
    decompose_volume,
    default_params,
    dematricize_3d,
    matricize_3d,
    objective,
    singular_value_threshold,
    soft_threshold_entries,
    update_interference,
    update_target,
)

__version__ = "0.1.0"
