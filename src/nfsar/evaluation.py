"""Interference-pattern measurement and suppression quality metrics.

Peak and comb-spacing detection quantify the harmonic trains a saturated
constant-delay return leaves in range profiles; background subtraction
builds reference images from paired runs with and without targets;
suppression metrics compare raw, suppressed and reference images over
target and interference-dominated regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core_model import _require_int, _require_positive
from .imaging import ComplexImage


class Peak(NamedTuple):
    position: float  # axis units (cell index when no axis is supplied)
    magnitude_db: float  # relative to the array maximum, <= 0


@dataclass
class PeakList:
    peaks: list[Peak] = field(default_factory=list)

    def __post_init__(self):
        if any(p.magnitude_db > 0 for p in self.peaks):
            raise ValueError("peak magnitudes must be <= 0 dB (relative to max)")
        self.peaks = sorted(self.peaks, key=lambda p: p.position)

    def __len__(self):
        return len(self.peaks)

    @property
    def positions(self) -> np.ndarray:
        return np.array([p.position for p in self.peaks])


def peak_detect(
    profile_db,
    min_prominence_db: float,
    min_separation_cells: int,
    axis=None,
) -> PeakList:
    """Find strict local maxima within min_prominence_db of the array maximum.

    Maxima closer than min_separation_cells are thinned greedily, keeping
    the stronger one.  Positions are cell indices, or axis values when an
    axis array is given; the separation is always in cells.
    """
    _require_positive("min_prominence_db", min_prominence_db)
    v = np.asarray(profile_db, dtype=float).ravel()
    if axis is not None:
        axis = np.asarray(axis, dtype=float).ravel()
        if axis.shape != v.shape:
            raise ValueError("axis must match the profile length")
    if v.size < 3:
        return PeakList([])

    interior = np.arange(1, v.size - 1)
    is_max = (v[interior] > v[interior - 1]) & (v[interior] > v[interior + 1])
    candidates = interior[is_max]
    top = v.max()
    candidates = candidates[v[candidates] >= top - min_prominence_db]

    # Strongest first; ties broken by index for determinism.
    order = sorted(candidates, key=lambda i: (-v[i], i))
    accepted: list[int] = []
    for i in order:
        if all(abs(i - j) >= min_separation_cells for j in accepted):
            accepted.append(i)
    accepted.sort()

    peaks = [
        Peak(float(axis[i]) if axis is not None else float(i), float(v[i] - top))
        for i in accepted
    ]
    return PeakList(peaks)


def comb_spacing(peaks: PeakList) -> tuple[float, float]:
    """Mean and population stddev of first differences of peak positions."""
    if len(peaks) < 3:
        raise ValueError("comb_spacing needs at least 3 peaks")
    diffs = np.diff(peaks.positions)
    return float(diffs.mean()), float(diffs.std())


def background_subtract(with_targets: ComplexImage, without_targets: ComplexImage) -> ComplexImage:
    """Complex difference of two images on identical grids."""
    if with_targets.grid != without_targets.grid:
        raise ValueError("background_subtract requires identical grids")
    return ComplexImage(with_targets.values - without_targets.values, with_targets.grid)


def singular_spectrum(image) -> np.ndarray:
    """Singular values of a 2D image (or an already unfolded matrix), descending."""
    if isinstance(image, ComplexImage):
        m = image.values
    else:
        m = np.asarray(image)
    if m.ndim != 2:
        raise ValueError("singular_spectrum expects a 2D matrix; unfold volumes first")
    return np.linalg.svd(m, compute_uv=False)


@dataclass
class SuppressionReport:
    """Per-target peak fidelity plus interference-region energy metrics."""

    target_peak_error_db: list[float]
    interference_residual_db: float
    sinr_gain_db: float
    target_mask: np.ndarray
    interference_mask: np.ndarray

    def metrics(self) -> list[tuple[str, float]]:
        """The reported figures as ordered (name, value) pairs."""
        named = [(f"target_peak_error_db_{k}", e) for k, e in enumerate(self.target_peak_error_db)]
        return named + [("interference_residual_db", self.interference_residual_db),
                        ("sinr_gain_db", self.sinr_gain_db)]

    def to_text(self) -> str:
        lines = [f"{name} = {value:.6f}" for name, value in self.metrics()]
        lines.append(f"target_cells = {int(self.target_mask.sum())}")
        lines.append(f"interference_cells = {int(self.interference_mask.sum())}")
        return "\n".join(lines) + "\n"

    def to_csv_row(self) -> tuple[str, str]:
        """Header and value line for batch sweeps."""
        metrics = self.metrics()
        return ",".join(name for name, _ in metrics), ",".join(f"{value:.6f}" for _, value in metrics)


def _grid_index(grid, position):
    """Nearest voxel index of a world position; raises if outside the grid."""
    pos = np.asarray(position, dtype=float)
    # world coordinates: x=azimuth, y=range, z=height
    coord_for_axis = (pos[1], pos[0], pos[2])
    idx = []
    for ax, coord in zip(grid.axes, coord_for_axis):
        i = int(round((coord - ax.start) / ax.spacing))
        if not (0 <= i < ax.count):
            raise ValueError(f"target position {tuple(pos.tolist())} lies outside the image grid")
        idx.append(i)
    return tuple(idx)


def _box_mask(shape, center, radius):
    mask = np.zeros(shape, dtype=bool)
    sl = tuple(slice(max(0, c - radius), min(n, c + radius + 1)) for c, n in zip(center, shape))
    mask[sl] = True
    return mask


ENERGY_FLOOR = 1e-30


def suppression_metrics(
    raw: ComplexImage,
    suppressed: ComplexImage,
    reference: ComplexImage,
    target_positions: Sequence,
    guard_cells: int = 3,
) -> SuppressionReport:
    """Score a suppression result against a background-subtraction reference.

    Target regions are boxes of guard_cells around each true position.  The
    interference region is the raw image's top-decile energy mask outside
    the target regions.  Reported values: per-target absolute peak error in
    dB between suppressed and reference, interference-region energy of the
    suppressed image relative to raw (negative is better), and the change in
    target-to-elsewhere energy ratio.  Raises ValueError naming the metric
    when one is not finite, e.g. when the suppressed target region is empty.
    """
    if raw.grid != suppressed.grid or raw.grid != reference.grid:
        raise ValueError("suppression_metrics requires identical grids")
    if len(target_positions) == 0:
        raise ValueError("at least one target position is required")
    _require_int("guard_cells", guard_cells, 0)

    raw_mag = np.abs(raw.values)
    sup_mag = np.abs(suppressed.values)
    ref_mag = np.abs(reference.values)

    target_mask = np.zeros(raw.grid.shape, dtype=bool)
    errors = []
    for pos in target_positions:
        center = _grid_index(raw.grid, pos)
        box = _box_mask(raw.grid.shape, center, guard_cells)
        target_mask |= box
        sup_peak = max(float(sup_mag[box].max()), ENERGY_FLOOR)
        ref_peak = max(float(ref_mag[box].max()), ENERGY_FLOOR)
        errors.append(abs(20.0 * np.log10(sup_peak / ref_peak)))

    energy = raw_mag**2
    interference_mask = (energy >= np.percentile(energy, 90.0)) & ~target_mask
    if not interference_mask.any():
        raise ValueError("interference region mask is empty")

    sup_energy = sup_mag**2
    raw_int = float(energy[interference_mask].sum())
    sup_int = float(sup_energy[interference_mask].sum())
    residual_db = 10.0 * np.log10(max(sup_int, ENERGY_FLOOR * raw_int) / raw_int)

    off_mask = ~target_mask
    raw_sinr = energy[target_mask].sum() / max(energy[off_mask].sum(), ENERGY_FLOOR)
    sup_sinr = sup_energy[target_mask].sum() / max(
        sup_energy[off_mask].sum(), ENERGY_FLOOR * sup_energy.sum() + ENERGY_FLOOR
    )
    sinr_gain_db = 10.0 * np.log10(sup_sinr / raw_sinr)

    report = SuppressionReport(
        target_peak_error_db=errors,
        interference_residual_db=float(residual_db),
        sinr_gain_db=float(sinr_gain_db),
        target_mask=target_mask,
        interference_mask=interference_mask,
    )
    for name, value in report.metrics():
        if not np.isfinite(value):
            raise ValueError(f"{name} is not finite ({value})")
    return report
