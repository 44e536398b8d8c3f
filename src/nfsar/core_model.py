"""Scene model and stepped-frequency echo synthesis.

A stepped-frequency radar scans a linear or planar aperture and records one
demodulated complex sample per frequency step and scan position.  Point
targets contribute phase histories that vary with scan position; nadir and
antenna-coupling returns are modelled as constant-delay interferers whose
contribution is identical in every pulse.  Receiver saturation is modelled
either as a magnitude clip or as a memoryless polynomial transfer function.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

C0 = 299792458.0  # free-space propagation speed [m/s]

# Reject echo matrices over ~1 GiB of complex128.
MAX_ECHO_SAMPLES = 1 << 26


def _require_real(name: str, value) -> float:
    """A Python or numpy real that is finite in float64, returned as a float.

    bool, str and None are refused, as are ints too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}: must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int too large for a float
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name}: must be finite")
    return real


def _require_positive(name: str, value) -> float:
    value = _require_real(name, value)
    if not value > 0:
        raise ValueError(f"{name}: must be finite and > 0")
    return value


def _require_nonnegative(name: str, value) -> float:
    value = _require_real(name, value)
    if not value >= 0:
        raise ValueError(f"{name}: must be finite and >= 0")
    return value


def _require_int(name: str, value, minimum: int) -> int:
    """A Python or numpy integer >= minimum that fits int64, returned as an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name}: must be an integer >= {minimum}, got {value!r}")
    if value > np.iinfo(np.int64).max:
        raise ValueError(f"{name}: must be an integer < 2**63")
    return int(value)


def _require_instance(name: str, value, cls: type):
    if not isinstance(value, cls):
        raise ValueError(f"{name}: must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def _require_bool(name: str, value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name}: must be a boolean, got {value!r}")
    return bool(value)


def _require_complex(name: str, value) -> complex:
    """A Python or numpy real or complex number finite in complex128, returned as a complex."""
    if not isinstance(value, (complex, np.complexfloating)):
        return complex(_require_real(name, value))
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValueError(f"{name}: must be finite")
    return value


def _require_budget(name: str, rows: int, cols: int) -> None:
    """Refuse a rows x cols sample matrix above MAX_ECHO_SAMPLES before it is allocated."""
    if rows * cols > MAX_ECHO_SAMPLES:
        raise ValueError(f"{name} {rows} x {cols} = {rows * cols} samples exceeds "
                         f"the budget of {MAX_ECHO_SAMPLES} samples")


def _require_vector(name: str, values) -> tuple[float, float, float]:
    values = tuple(_require_real(name, v) for v in values)
    if len(values) != 3:
        raise ValueError(f"{name}: must be a 3-vector")
    return values


@dataclass
class RadarParams:
    """Stepped-frequency waveform: pulse m is transmitted at f0 + m*delta_f.

    Attributes:
        f0: starting frequency [Hz]
        delta_f: frequency step [Hz]
        num_freq: number of frequency steps M
        c: propagation speed [m/s]
    """

    f0: float
    delta_f: float
    num_freq: int
    c: float = C0

    def __post_init__(self):
        self.f0 = _require_positive("f0", self.f0)
        self.delta_f = _require_positive("delta_f", self.delta_f)
        self.num_freq = _require_int("num_freq", self.num_freq, 2)
        self.c = _require_positive("c", self.c)

    @property
    def bandwidth(self) -> float:
        """Synthetic bandwidth [Hz]; sets the range resolution c/(2*bandwidth)."""
        return self.num_freq * self.delta_f

    @property
    def unambiguous_range(self) -> float:
        """One-way range beyond which responses wrap around [m]."""
        return self.c / (2.0 * self.delta_f)

    def frequencies(self) -> np.ndarray:
        return self.f0 + self.delta_f * np.arange(self.num_freq)


@dataclass
class Aperture:
    """Scan geometry: positions on a regular line (linear) or grid (planar).

    Element (a, h) sits at origin + a*azimuth_spacing*x + h*height_spacing*z.
    Slow time is flattened azimuth-major: index = a + azimuth_count*h.
    """

    kind: str  # "linear" | "planar"
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    azimuth_count: int = 1
    azimuth_spacing: float = 0.01
    height_count: int = 1
    height_spacing: float | None = None  # defaults to azimuth_spacing

    def __post_init__(self):
        if self.kind not in ("linear", "planar"):
            raise ValueError(f"kind: must be 'linear' or 'planar', not {self.kind!r}")
        self.azimuth_count = _require_int("azimuth_count", self.azimuth_count, 1)
        self.height_count = _require_int("height_count", self.height_count, 1)
        if self.kind == "linear" and self.height_count != 1:
            raise ValueError("height_count: must be 1 for a linear aperture")
        if self.height_spacing is None:
            self.height_spacing = self.azimuth_spacing
        self.azimuth_spacing = _require_positive("azimuth_spacing", self.azimuth_spacing)
        self.height_spacing = _require_positive("height_spacing", self.height_spacing)
        self.origin = _require_vector("origin", self.origin)

    @property
    def num_positions(self) -> int:
        return self.azimuth_count * self.height_count

    def positions(self) -> np.ndarray:
        """All scan positions, shape (num_positions, 3), azimuth-major order."""
        eta = np.arange(self.num_positions)
        a = eta % self.azimuth_count
        h = eta // self.azimuth_count
        ox, oy, oz = self.origin
        out = np.empty((self.num_positions, 3))
        out[:, 0] = ox + a * self.azimuth_spacing
        out[:, 1] = oy
        out[:, 2] = oz + h * self.height_spacing
        return out


@dataclass
class PointTarget:
    """Point scatterer with complex reflectivity (linear scale)."""

    position: tuple[float, float, float]
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        self.position = _require_vector("position", self.position)
        if self.position[1] <= 0:
            raise ValueError("position: must lie in front of the aperture plane (y > 0)")
        self.amplitude = _require_complex("amplitude", self.amplitude)


@dataclass
class Interferer:
    """Constant-delay return: same contribution at every scan position.

    delay_range is the one-way equivalent range [m]; zero gives a pure
    DC-like coupling term.
    """

    delay_range: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        self.delay_range = _require_nonnegative("delay_range", self.delay_range)
        self.amplitude = _require_complex("amplitude", self.amplitude)


@dataclass
class Scene:
    """Targets plus interferers plus per-sample circular complex noise level."""

    targets: list[PointTarget] = field(default_factory=list)
    interferers: list[Interferer] = field(default_factory=list)
    noise_sigma: float = 0.0

    def __post_init__(self):
        for name, cls in (("targets", PointTarget), ("interferers", Interferer)):
            for item in getattr(self, name):
                _require_instance(name, item, cls)
        self.noise_sigma = _require_nonnegative("noise_sigma", self.noise_sigma)


@dataclass
class Saturation:
    """Receiver nonlinearity: none, magnitude clip, or polynomial transfer."""

    mode: str = "none"  # "none" | "hard_clip" | "polynomial"
    threshold: float | None = None  # clip amplitude, hard_clip mode
    coefficients: Sequence[float] | None = None  # H_0..H_K, polynomial mode

    def __post_init__(self):
        if self.mode not in ("none", "hard_clip", "polynomial"):
            raise ValueError(f"mode: must be 'none', 'hard_clip' or 'polynomial', not {self.mode!r}")
        # A field the mode ignores is still type-checked when set.
        if self.threshold is not None:
            check = _require_positive if self.mode == "hard_clip" else _require_real
            self.threshold = check("threshold", self.threshold)
        elif self.mode == "hard_clip":
            raise ValueError("threshold: must be > 0 in hard_clip mode")
        if self.coefficients is not None:
            self.coefficients = [_require_real("coefficients", c) for c in self.coefficients]
        if self.mode == "polynomial" and not self.coefficients:
            raise ValueError("coefficients: must be non-empty in polynomial mode")


@dataclass
class EchoData:
    """Demodulated samples, frequency step (rows) by slow-time position (cols)."""

    samples: np.ndarray
    radar: RadarParams
    aperture: Aperture

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        expected = (self.radar.num_freq, self.aperture.num_positions)
        if self.samples.shape != expected:
            raise ValueError(
                f"samples shape {self.samples.shape} does not match radar/aperture {expected}"
            )


def _unit_circle_table(n: int) -> np.ndarray:
    """exp(2j*pi*k/n) for k in [0, n), n a multiple of 4.

    The sines of the first quadrant are taken in long double and rounded once,
    from sin below pi/4 and cos above it; the other quadrants and the cosines
    are the same numbers mirrored, so 0 and +-1 fall on their quadrant points
    exactly.  Where long double has a 64-bit mantissa (x86), every part is
    the correctly rounded float64 value for n = 4096.
    """
    quarter = n // 4
    pi = 4 * np.arctan(np.longdouble(1))
    k = np.arange(quarter + 1, dtype=np.longdouble)
    low = k <= quarter / 2
    quadrant = np.where(low, np.sin(2 * pi * k / n), np.cos(2 * pi * (quarter - k) / n))
    half = np.concatenate([quadrant, quadrant[-2:0:-1]]).astype(np.float64)  # sin, k in [0, n/2)
    sin = np.concatenate([half, 0.0 - half])  # 0 - x, not -x: exp(j*pi) has a +0 imaginary part
    return np.roll(sin, -quarter) + 1j * sin  # cos(2*pi*k/n) = sin(2*pi*(k + n/4)/n)


# The phase exp(2j*pi*u) that synthesis applies and back-projection undoes is
# looked up at the nearest of _CARRIER_STEPS points per turn and corrected by a
# short polynomial (_carrier).  A power of two, so that scaling u by it is exact.
_CARRIER_STEPS = 4096
_CARRIER_TABLE = _unit_circle_table(_CARRIER_STEPS)


def _carrier_work(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The work buffers _carrier takes for arrays of this shape."""
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.intp), np.empty(shape, dtype=np.complex128)


def _carrier(dist: np.ndarray, steps_per_metre: float | np.ndarray, out: np.ndarray, work: tuple) -> None:
    """Write exp(2j*pi*u) into out, where u = dist * steps_per_metre / _CARRIER_STEPS.

    dist and steps_per_metre broadcast to out's shape; work comes from
    _carrier_work(out.shape).  With v = dist * steps_per_metre (exactly
    _CARRIER_STEPS * u), k = rint(v) and x = 2*pi*(v - k) / _CARRIER_STEPS,
    the carrier is _CARRIER_TABLE[k mod _CARRIER_STEPS] * (cos x + j sin x).
    |x| <= pi/4096, where 1 - x^2/2 + x^4/24 and x - x^3/6 miss cos and sin by
    under 3e-18.  Every step is elementwise: rounded multiplies and adds,
    rint, an integer mask, a gather and one complex product, which numpy
    forms alike at every offset of an array of two or more elements.  So an
    element's bits do not depend on where it lies in the array, as they might
    with libm's cos and sin, and an image is the same bytes whatever its split
    into slabs.  The table is mirrored, so negated steps give the conjugate.
    """
    v, x2, index, poly = work
    np.multiply(dist, steps_per_metre, out=v)
    np.rint(v, out=x2)
    v -= x2  # exact: v and rint(v) are within half a step
    index[...] = x2
    index &= _CARRIER_STEPS - 1
    v *= 2.0 * np.pi / _CARRIER_STEPS  # x
    np.multiply(v, v, out=x2)
    np.multiply(x2, -1.0 / 6.0, out=poly.imag)
    poly.imag += 1.0
    poly.imag *= v
    np.multiply(x2, 1.0 / 24.0, out=v)
    v -= 0.5
    v *= x2
    np.add(v, 1.0, out=poly.real)
    # The method: the np.take wrapper adds about 1.3 us a call (10.4 against
    # 9.1 us for 105x97 indices).  "clip" skips numpy's copy for "raise".
    _CARRIER_TABLE.take(index, out=out, mode="clip")
    out *= poly


def synthesize_echo(
    radar: RadarParams,
    aperture: Aperture,
    scene: Scene,
    seed: int = 0,
    max_harmonic_order: int = 1,
) -> EchoData:
    """Simulate the demodulated echo matrix for a scene.

    Each sample is the coherent sum of target terms
    amplitude * exp(-j*4*pi*f_m*R(position)/c) over targets, the analogous
    constant-range interferer terms, and optional seeded circular complex
    noise.  The phase comes from _carrier, the unit-circle kernel with which
    back-projection undoes it, within 1e-15 of exp at the rounded phase.
    Noise is drawn independently per slow-time column from a counter-based
    stream so results do not depend on evaluation order.

    max_harmonic_order scales the unambiguous-range check: harmonic analysis
    up to order k needs k times the largest scene range to stay unambiguous.
    """
    _require_int("seed", seed, 0)
    _require_int("max_harmonic_order", max_harmonic_order, 1)
    n_slow = aperture.num_positions
    _require_budget("echo matrix", radar.num_freq, n_slow)

    positions = aperture.positions()
    # exp(-4j*pi*f*R/c) in _carrier's table steps: back-projection's at f0, negated.
    steps_per_metre = (2.0 * radar.frequencies() / radar.c)[:, None] * -_CARRIER_STEPS
    terms = [(t.amplitude, np.linalg.norm(positions - np.asarray(t.position), axis=1)) for t in scene.targets]
    terms += [(i.amplitude, np.array([i.delay_range])) for i in scene.interferers]  # one column for all
    samples = np.zeros((radar.num_freq, n_slow), dtype=np.complex128)
    for amplitude, r in terms:
        term = np.empty((radar.num_freq, r.size), dtype=np.complex128)
        _carrier(r, steps_per_metre, term, _carrier_work(term.shape))
        term *= amplitude
        samples += term
    max_range = max((float(r.max()) for _, r in terms), default=0.0)
    if max_range * max_harmonic_order >= radar.unambiguous_range:
        warnings.warn(
            f"scene range {max_range:.3f} m times harmonic order "
            f"{max_harmonic_order} reaches the unambiguous range "
            f"{radar.unambiguous_range:.3f} m; responses will wrap",
            RuntimeWarning,
            stacklevel=2,
        )

    if scene.noise_sigma > 0:
        scale = scene.noise_sigma / np.sqrt(2.0)
        for col in range(n_slow):
            rng = np.random.default_rng((seed, col))
            z = rng.standard_normal((radar.num_freq, 2))
            samples[:, col] += scale * (z[:, 0] + 1j * z[:, 1])

    return EchoData(samples, radar, aperture)


def polynomial_transfer(coefficients: Sequence[float], x):
    """Evaluate sum_n H_n * x**n by Horner's rule (scalar or array input)."""
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coefficients must be a non-empty 1D sequence")
    xa = np.asarray(x)
    out = np.zeros_like(xa, dtype=np.complex128)
    for c in coeffs[::-1]:
        out = out * xa + c
    return out


def apply_saturation(echo: EchoData, sat: Saturation) -> EchoData:
    """Pass the echo matrix through the receiver nonlinearity.

    hard_clip limits the sample magnitude at the threshold and preserves the
    phase, so the scan-dependent Doppler phase survives saturation.
    polynomial applies the transfer series to the complex samples, which is
    what turns a constant-delay return into a train of range harmonics.
    """
    x = echo.samples
    if not np.isfinite(x).all():
        raise ValueError("echo contains non-finite samples")
    if sat.mode == "none":
        out = x.copy()
    elif sat.mode == "hard_clip":  # x * min(threshold / |x|, 1), with one real temporary
        scale = np.abs(x)
        with np.errstate(divide="ignore"):  # |x| = 0 gives inf, then 1
            np.divide(sat.threshold, scale, out=scale)
        np.minimum(scale, 1.0, out=scale)
        out = x * scale
    else:  # polynomial
        out = polynomial_transfer(sat.coefficients, x)
    return EchoData(out, echo.radar, echo.aperture)


@dataclass
class ClipperFit:
    """Polynomial approximation of the clip transfer, with its sup-norm error."""

    coefficients: np.ndarray
    residual: float


def fit_clipper_polynomial(
    threshold: float,
    order: int,
    sample_count: int,
    fit_max: float | None = None,
) -> ClipperFit:
    """Least-squares polynomial fit of the scalar clip map t -> min(t, threshold).

    The fit domain is [0, fit_max], default [0, 2*threshold] so the saturated
    region is always covered.  Pass a larger fit_max when the polynomial will
    be applied to signals whose magnitude exceeds twice the threshold.  The
    reported residual is the maximum absolute error on a dense grid over the
    fit domain, so magnitudes mapped through the polynomial match the hard
    clip to within it anywhere in the domain.
    """
    _require_positive("threshold", threshold)
    _require_int("order", order, 1)
    _require_int("sample_count", sample_count, order + 1)
    if fit_max is None:
        domain = 2.0 * threshold
    else:
        _require_positive("fit_max", fit_max)
        domain = float(fit_max)

    t = np.linspace(0.0, domain, sample_count)
    target = np.minimum(t, threshold)
    # Fit in the normalized variable t/domain to keep the system well scaled.
    u = t / domain
    vander = u[:, None] ** np.arange(order + 1)
    sol, _, rank, _ = np.linalg.lstsq(vander, target, rcond=None)
    if rank < order + 1:
        raise ValueError("degenerate normal equations in clipper fit")
    coeffs = sol / domain ** np.arange(order + 1)

    dense = np.linspace(0.0, domain, 8192)
    err = polynomial_transfer(coeffs, dense).real - np.minimum(dense, threshold)
    return ClipperFit(coefficients=coeffs, residual=float(np.max(np.abs(err))))


@dataclass(frozen=True)
class HarmonicComponent:
    """One predicted response location with the mechanisms that produce it."""

    apparent_range: float
    labels: tuple[str, ...]


def predict_harmonic_ranges(
    target_ranges: Sequence[float],
    interferer_ranges: Sequence[float],
    max_order: int,
) -> list[HarmonicComponent]:
    """Enumerate apparent ranges produced by a power-series nonlinearity.

    Returns the DC term, target harmonics k*R_t and interference harmonics
    l*R_i up to max_order, and cross-coupling terms k*R_t + l*R_i with
    k + l <= max_order, sorted ascending with coincident entries merged.
    Only locations are predicted; harmonic amplitudes depend on the transfer
    coefficients and are left to simulation.
    """
    _require_int("max_order", max_order, 1)
    entries: list[tuple[float, str]] = [(0.0, "dc")]
    for r in target_ranges:
        for k in range(1, max_order + 1):
            entries.append((k * float(r), f"target_harmonic({k})"))
    for r in interferer_ranges:
        for l in range(1, max_order + 1):
            entries.append((l * float(r), f"interference_harmonic({l})"))
    for rt in target_ranges:
        for ri in interferer_ranges:
            for k in range(1, max_order):
                for l in range(1, max_order - k + 1):
                    entries.append((k * float(rt) + l * float(ri), f"cross({k},{l})"))

    tol = 1e-9 * max(1.0, max(e[0] for e in entries))
    groups: list[tuple[float, set[str]]] = []  # (the group's least range, its labels)
    for apparent_range, label in sorted(entries):
        if groups and apparent_range - groups[-1][0] <= tol:
            groups[-1][1].add(label)
        else:
            groups.append((apparent_range, {label}))
    return [HarmonicComponent(r, tuple(sorted(labels))) for r, labels in groups]
