"""Range compression and time-domain back-projection imaging.

Range profiles come from a zero-padded inverse DFT over the frequency steps
(rectangular weighting, so point responses are sinc-shaped).  Images come
from coherently summing interpolated profile samples at each voxel's
two-way delay with the carrier phase compensated, which focuses targets and
smears constant-delay interference into stripes (2D) or plates (3D).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core_model import Aperture, EchoData, RadarParams

AXIS_NAMES = ("range", "azimuth", "height")


@dataclass
class RangeProfileSet:
    """Compressed fast-time profiles, one column per slow-time position."""

    profiles: np.ndarray  # (num_range_bins, num_slow_time) complex
    oversample: int
    tau_axis: np.ndarray  # fast time [s], starts at 0
    radar: RadarParams
    aperture: Aperture

    def __post_init__(self):
        self.profiles = np.asarray(self.profiles, dtype=np.complex128)
        expected = self.oversample * self.radar.num_freq
        if self.profiles.shape[0] != expected:
            raise ValueError("profile bin count must equal oversample * num_freq")
        if self.profiles.shape[1] != self.aperture.num_positions:
            raise ValueError("profile column count must match aperture positions")

    @property
    def tau_spacing(self) -> float:
        return 1.0 / (self.oversample * self.radar.bandwidth)

    @property
    def range_axis(self) -> np.ndarray:
        """Apparent one-way range per bin [m]; spans [0, c/(2*delta_f))."""
        return self.radar.c * self.tau_axis / 2.0


def range_compress(echo: EchoData, oversample: int = 8, raised_cosine: bool = False) -> RangeProfileSet:
    """Turn frequency samples into fast-time profiles per slow-time column.

    Zero-pads each column to oversample * num_freq and applies the inverse
    DFT, scaled so a unit-amplitude scatterer gives a unit-magnitude peak at
    the bin nearest tau = 2R/c.  No window by default; raised_cosine enables
    an optional Hann taper (wider mainlobe, lower sidelobes).
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    x = echo.samples
    if x.size == 0:
        raise ValueError("empty echo")
    m = echo.radar.num_freq
    if raised_cosine:
        # Hann taper over the frequency steps.
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(m) / (m - 1))
        x = x * w[:, None]
    nbins = oversample * m
    profiles = np.fft.ifft(x, n=nbins, axis=0) * oversample
    tau_axis = np.arange(nbins) / (oversample * echo.radar.bandwidth)
    return RangeProfileSet(profiles, oversample, tau_axis, echo.radar, echo.aperture)


def interpolate_profile(profiles: RangeProfileSet, slow_time_index: int, tau: float) -> complex:
    """Linearly interpolate one profile at fast time tau [s].

    Delays outside [0, max tau) contribute zero; back-projection counts such
    out-of-swath voxel contributions.
    """
    col = profiles.profiles[:, slow_time_index]
    idx = tau / profiles.tau_spacing
    i0 = int(np.floor(idx))
    if idx < 0 or i0 >= len(col) - 1:
        return 0.0 + 0.0j
    frac = idx - i0
    return complex(col[i0] * (1.0 - frac) + col[i0 + 1] * frac)


@dataclass(frozen=True)
class GridAxis:
    start: float
    spacing: float
    count: int

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing: must be > 0")
        if self.count < 1:
            raise ValueError("count: must be >= 1")

    def values(self) -> np.ndarray:
        return self.start + self.spacing * np.arange(self.count)


@dataclass(frozen=True)
class ImageGrid:
    """Regular voxel grid: (range,), (range, azimuth) or (range, azimuth, height).

    The range axis is the world y coordinate, azimuth is x, height is z,
    matching the aperture conventions in core_model.
    """

    axes: tuple[GridAxis, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("grid must have 1 to 3 axes")
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def range(self) -> GridAxis:
        return self.axes[0]

    @property
    def azimuth(self) -> GridAxis:
        if self.ndim < 2:
            raise ValueError("grid has no azimuth axis")
        return self.axes[1]

    @property
    def height(self) -> GridAxis:
        if self.ndim < 3:
            raise ValueError("grid has no height axis")
        return self.axes[2]


@dataclass
class ComplexImage:
    """Complex voxel values on an ImageGrid (1D profile, 2D image, 3D volume)."""

    values: np.ndarray
    grid: ImageGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"image shape {self.values.shape} does not match grid {self.grid.shape}"
            )


def _accumulate(profiles, positions, f0, c, vox_x, vox_y, vox_z):
    """Shared back-projection loop: returns (image sum, out-of-swath count)."""
    prof = profiles.profiles
    nbins = prof.shape[0]
    inv_dtau = 1.0 / profiles.tau_spacing
    out = np.zeros(vox_x.shape, dtype=np.complex128)
    oos = 0
    phase_rate = 4j * np.pi * f0 / c
    for n in range(positions.shape[0]):
        px, py, pz = positions[n]
        dist = np.sqrt((vox_x - px) ** 2 + (vox_y - py) ** 2 + (vox_z - pz) ** 2)
        idx = (2.0 * dist / c) * inv_dtau
        i0 = np.floor(idx).astype(np.int64)
        valid = (idx >= 0) & (i0 < nbins - 1)
        oos += int(valid.size - np.count_nonzero(valid))
        i0c = np.clip(i0, 0, nbins - 2)
        frac = idx - i0
        col = prof[:, n]
        sample = np.where(valid, col[i0c] * (1.0 - frac) + col[i0c + 1] * frac, 0.0)
        out += sample * np.exp(phase_rate * dist)
    return out, oos


def _finish(image_sum, oos, total, grid, n_positions):
    if oos == total:
        raise ValueError("image grid lies entirely outside the compressed swath")
    if oos:
        warnings.warn(
            f"{oos} of {total} voxel contributions fell outside the swath and were zeroed",
            RuntimeWarning,
            stacklevel=3,
        )
    return ComplexImage(image_sum / n_positions, grid)


def backproject_2d(profiles: RangeProfileSet, grid: ImageGrid) -> ComplexImage:
    """Back-project onto a (range, azimuth) grid from a linear aperture.

    Each voxel sums interpolated profile samples at its two-way delay times
    the carrier compensation phase exp(+j*4*pi*f0*R/c), normalized by the
    number of scan positions.  Voxels lie in the scan row's height plane.
    """
    if grid.ndim != 2:
        raise ValueError("backproject_2d needs a 2D (range, azimuth) grid")
    ap = profiles.aperture
    if ap.kind != "linear":
        raise ValueError("backproject_2d requires a linear aperture")
    positions = ap.positions()
    vox_y, vox_x = np.meshgrid(grid.range.values(), grid.azimuth.values(), indexing="ij")
    vox_z = np.full_like(vox_x, ap.origin[2])
    sums, oos = _accumulate(profiles, positions, profiles.radar.f0, profiles.radar.c, vox_x, vox_y, vox_z)
    return _finish(sums, oos, vox_x.size * positions.shape[0], grid, positions.shape[0])


def backproject_3d(profiles: RangeProfileSet, grid: ImageGrid) -> ComplexImage:
    """Back-project onto a (range, azimuth, height) grid from a planar aperture."""
    if grid.ndim != 3:
        raise ValueError("backproject_3d needs a 3D (range, azimuth, height) grid")
    ap = profiles.aperture
    if ap.kind != "planar":
        raise ValueError("backproject_3d requires a planar aperture")
    positions = ap.positions()
    vox_y, vox_x, vox_z = np.meshgrid(
        grid.range.values(), grid.azimuth.values(), grid.height.values(), indexing="ij"
    )
    sums, oos = _accumulate(profiles, positions, profiles.radar.f0, profiles.radar.c, vox_x, vox_y, vox_z)
    return _finish(sums, oos, vox_x.size * positions.shape[0], grid, positions.shape[0])


def image_to_db(image: ComplexImage, floor_db: float = -60.0) -> np.ndarray:
    """Magnitude in dB relative to the image peak, clamped below at floor_db."""
    if floor_db >= 0:
        raise ValueError("floor_db must be < 0")
    mag = np.abs(image.values)
    peak = mag.max()
    if peak == 0:
        return np.full(mag.shape, floor_db)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    return np.maximum(db, floor_db)
