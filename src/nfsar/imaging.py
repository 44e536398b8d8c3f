"""Range compression and time-domain back-projection imaging.

Range profiles come from a zero-padded inverse DFT over the frequency steps
(rectangular weighting, so point responses are sinc-shaped).  Images come
from coherently summing interpolated profile samples at each voxel's
two-way delay with the carrier phase compensated, which focuses targets and
smears constant-delay interference into stripes (2D) or plates (3D).
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .core_model import (Aperture, EchoData, RadarParams, _CARRIER_STEPS, _carrier, _carrier_work, _require_budget,
                         _require_int, _require_positive, _require_real)

AXIS_NAMES = ("range", "azimuth", "height")


@dataclass
class RangeProfileSet:
    """Compressed fast-time profiles, one column per slow-time position."""

    profiles: np.ndarray  # (num_range_bins, num_slow_time) complex
    oversample: int
    radar: RadarParams
    aperture: Aperture

    def __post_init__(self):
        profiles = np.asarray(self.profiles)  # complex64 (read from a file) is kept: np.interp widens it exactly
        self.profiles = profiles if profiles.dtype == np.complex64 else profiles.astype(np.complex128, copy=False)
        expected = self.oversample * self.radar.num_freq
        if self.profiles.shape[0] != expected:
            raise ValueError("profile bin count must equal oversample * num_freq")
        if self.profiles.shape[1] != self.aperture.num_positions:
            raise ValueError("profile column count must match aperture positions")

    @property
    def tau_spacing(self) -> float:
        return 1.0 / (self.oversample * self.radar.bandwidth)

    @property
    def tau_axis(self) -> np.ndarray:
        """Fast time per bin [s], starting at 0."""
        return np.arange(self.profiles.shape[0]) / (self.oversample * self.radar.bandwidth)

    @property
    def range_axis(self) -> np.ndarray:
        """Apparent one-way range per bin [m]; spans [0, c/(2*delta_f))."""
        return self.radar.c * self.tau_axis / 2.0


def range_compress(echo: EchoData, oversample: int = 8) -> RangeProfileSet:
    """Turn frequency samples into fast-time profiles per slow-time column.

    Zero-pads each column to oversample * num_freq and applies the inverse
    DFT, scaled so a unit-amplitude scatterer gives a unit-magnitude peak at
    the bin nearest tau = 2R/c.  No window is applied.  Each profile column
    is contiguous: the transform runs over rows of the transposed echo, which
    is scaled by oversample on the way (a power of two scales exactly).
    """
    nbins = _require_int("oversample", oversample, 1) * echo.radar.num_freq
    _require_budget("oversample: profile matrix", nbins, echo.aperture.num_positions)
    radar, aperture = echo.radar, echo.aperture
    rows = np.multiply(echo.samples.T, oversample, order="C")
    del echo  # given the echo's only reference, it is freed before the profiles are allocated
    profiles = np.fft.ifft(rows, n=nbins, axis=-1)
    return RangeProfileSet(profiles.T, oversample, radar, aperture)


def _interpolate(col: np.ndarray, idx: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Linearly interpolate one profile column at fractional bin indices.

    The swath is the closed interval [0, len(col) - 1]; indices outside it
    give zero.  The reference that _gather reproduces, and the tests' oracle.

    bins, a float axis of the consecutive bins lo..hi, hands np.interp only
    col[lo:hi+1].  No index may lie below lo, nor at or above hi unless hi is
    the last bin.  Then np.interp takes every sample from the same two bins
    by the same arithmetic as over the whole column, so to the same bits.
    """
    lo, hi = int(bins[0]), int(bins[-1])
    return np.interp(idx, bins, col[lo:hi + 1], left=0.0, right=0.0)


def _index_parts(idx: np.ndarray, whole: np.ndarray, row: np.ndarray) -> None:
    """Write each delay index's integer part into row and leave its fractional
    part in idx, for _gather; whole is a float work buffer.  An index is never
    negative, so its floor is its integer cast, and idx - floor(idx) is exact,
    as np.interp's x - j is."""
    np.floor(idx, out=whole)
    np.copyto(row, whole, casting="unsafe")
    idx -= whole


def _gather(col: np.ndarray, first: int, final: int, row: np.ndarray, frac: np.ndarray,
            tables: tuple[np.ndarray, ...]) -> np.ndarray:
    """_interpolate's samples by np.interp's own arithmetic, as gathers.

    Over bins spaced 1.0 apart np.interp takes slope[j] = col[j+1] - col[j]
    and returns slope[j]*(x - j) + col[j], per real and imaginary part, for
    j <= x < j + 1; the last bin itself is col[last].  Here value holds the
    window first..final of col at its absolute bins, with zeros elsewhere, and
    slope its differences.  row is each index's integer part and frac its
    fractional part; numpy multiplies a complex sample by frac + 0j, which
    takes each part times frac.  The indices keep _interpolate's rule for
    the window, except that every delay past the last bin stands at
    last + 1: a zero row, with frac 0.  The samples are
    np.interp's but for the sign of a zero, which no voxel's sum keeps, as
    long as the window is finite: np.interp has its own fallback for NaN.

    tables is (value, slope, sample, term): two zeroed tables of last + 2 bins
    and two buffers of row's shape.  The samples are written into sample.
    """
    value, slope, sample, term = tables
    value[first:final + 1] = col[first:final + 1]
    np.subtract(value[first + 1:final + 2], value[first:final + 1], out=slope[first:final + 1])
    slope.take(row, out=sample, mode="clip")  # "clip" skips numpy's copy for "raise"
    sample *= frac
    sample += value.take(row, out=term, mode="clip")
    return sample


@dataclass(frozen=True)
class GridAxis:
    start: float
    spacing: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", _require_real("start", self.start))
        object.__setattr__(self, "spacing", _require_positive("spacing", self.spacing))
        object.__setattr__(self, "count", _require_int("count", self.count, 1))

    def values(self) -> np.ndarray:
        return self.start + self.spacing * np.arange(self.count)


@dataclass(frozen=True)
class ImageGrid:
    """Regular voxel grid: (range, azimuth) or (range, azimuth, height).

    The range axis is the world y coordinate, azimuth is x, height is z,
    matching the aperture conventions in core_model.
    """

    axes: tuple[GridAxis, ...]

    def __post_init__(self):
        if len(self.axes) not in (2, 3):
            raise ValueError("imaging needs a 2D or 3D grid")
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)


@dataclass
class ComplexImage:
    """Complex voxel values on an ImageGrid (2D image or 3D volume)."""

    values: np.ndarray
    grid: ImageGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"image shape {self.values.shape} does not match grid {self.grid.shape}"
            )


# Fewest voxels a thread gets.  Smaller slabs cost more CPU time in thread
# start-up and per-position overhead than they save in wall time.
_MIN_VOXELS_PER_THREAD = 16384


def _require_pairing(grid: ImageGrid, aperture: Aperture, prefix: str = "") -> None:
    """A 2D grid is imaged from a linear aperture, a 3D grid from a planar one."""
    kind = "linear" if grid.ndim == 2 else "planar"
    if aperture.kind != kind:
        raise ValueError(f"{prefix}{grid.ndim}D imaging grid requires a {kind} aperture")


def _slab_count(shape: tuple[int, ...]) -> int:
    """Threads for a grid: one per CPU in this process's affinity, at most one
    per range row, and each with at least _MIN_VOXELS_PER_THREAD voxels."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity API (macOS): every CPU
        cpus = os.cpu_count() or 1
    voxels = int(np.prod(shape))
    return max(1, min(cpus, shape[0], voxels // _MIN_VOXELS_PER_THREAD))


def _backproject(sets: tuple[RangeProfileSet, ...], grid: ImageGrid) -> list[ComplexImage]:
    """Back-project one or more profile sets onto one grid: one image each.

    The sets share radar, aperture and oversample, so a position's distances,
    delay indices, out-of-swath count and carrier serve them all, and the
    pass warns once.  Each image is the same bytes as its set's alone.

    The grid is cut into contiguous slabs of range rows, one per thread.
    Each slab runs the whole position loop for its rows and accumulates in
    place into its part of the images, so every voxel sums the same terms in
    the same order whatever the thread count, and the image is the same
    bytes on any number of cores.  The squared axis offsets for every
    position and each slab's window of profile bins are computed before the
    position loop; a position then writes into the slab's buffers.  The
    samples are gathered from the window's slope tables (_gather): np.interp's
    bits in about half its time, and no array allocated per position.
    """
    profiles = sets[0]
    shared = (profiles.radar, profiles.aperture, profiles.oversample)
    if any((s.radar, s.aperture, s.oversample) != shared for s in sets):
        raise ValueError("profile sets imaged in one pass must share radar, aperture and oversample")
    ap = profiles.aperture
    _require_pairing(grid, ap)
    # Voxel coordinates as axis vectors that broadcast to (nr, na, nh); a 2D
    # grid is the one-height case at the aperture's z, dropped from the image.
    coords = [ax.values() for ax in grid.axes] + [np.array([ap.origin[2]])]
    vox_y, vox_x, vox_z = np.meshgrid(*coords[:3], indexing="ij", sparse=True)
    positions = ap.positions()
    c = profiles.radar.c
    inv_dtau = 1.0 / profiles.tau_spacing
    last = profiles.profiles.shape[0] - 1
    # The carrier phase 4*pi*f0*R/c is u = 2*f0*R/c turns, in _carrier's table steps.
    steps_per_metre = _CARRIER_STEPS * (2.0 * profiles.radar.f0 / c)
    out = np.zeros((len(sets),) + grid.shape + (1,) * (3 - grid.ndim), dtype=np.complex128)

    def squares(vox: np.ndarray, axis: int) -> np.ndarray:
        """(vox - p)**2 for every position p, stacked along a new first axis."""
        return (vox[np.newaxis] - positions[:, axis].reshape(-1, 1, 1, 1)) ** 2

    def delay_index(dist: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fractional bin of the two-way delay 2*dist/c.  dist / (c/2) is the
        same rounded quotient as (2*dist) / c: halving c is exact."""
        idx = np.divide(dist, c / 2.0, out=out)
        idx *= inv_dtau
        return idx

    dx2, dz2 = squares(vox_x, 0), squares(vox_z, 2)

    def slab(lo: int, hi: int) -> int:
        """Accumulate rows lo:hi of out; returns their out-of-swath count."""
        accs = out[:, lo:hi]
        dy2 = squares(vox_y[lo:hi], 1)
        # Every rounded step below is monotone, and positions and voxels are
        # both products of their axes, so one voxel-position pair takes all
        # three tables' extremes at once: one window of bins, from their
        # overall min and max, serves the whole loop.
        near, far = (delay_index(np.sqrt((f(dx2) + f(dy2)) + f(dz2))) for f in (np.min, np.max))
        first = int(np.clip(np.floor(near), 0, last))
        final = int(np.clip(np.floor(far) + 1, 0, last))  # above every index unless last
        # Work buffers, allocated once per slab and rewritten at every position.
        shape = accs.shape[1:]
        dist = np.empty(shape)
        # dx**2 + dy**2; a 2D grid lies in the aperture's height plane, where dz is 0.
        dxy = np.empty(shape[:2] + (1,)) if grid.ndim == 3 else dist
        idx = np.empty(shape)
        carrier = np.empty(shape, dtype=np.complex128)
        work = _carrier_work(shape)
        row = np.empty(shape, dtype=np.intp)
        tables = (np.zeros(last + 2, dtype=np.complex128), np.zeros(last + 2, dtype=np.complex128),
                  np.empty(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128))
        oos = 0
        for n in range(len(positions)):
            np.add(dx2[n], dy2[n], out=dxy)
            if dxy is not dist:
                np.add(dxy, dz2[n], out=dist)
            np.sqrt(dist, out=dist)
            delay_index(dist, idx)
            if final == last:  # a delay is never negative: only the far end needs a count
                beyond = idx > last
                oos += int(np.count_nonzero(beyond))
                # Onto last + 1, the tables' zero row, as np.interp zeroes them; no huge index is cast.
                np.copyto(idx, last + 1, where=beyond)
            _carrier(dist, steps_per_metre, carrier, work)
            _index_parts(idx, dist, row)  # idx keeps the fractions; dist, read by the carrier, is free
            for acc, s in zip(accs, sets):
                sample = _gather(s.profiles[:, n], first, final, row, idx, tables)
                # Always carrier * sample: a complex product rounds differently
                # with its operand order, and one fixed order keeps every voxel's
                # sum, and so the image, the same bytes at any thread count.
                np.multiply(carrier, sample, out=sample)
                acc += sample
        return oos

    threads = _slab_count(grid.shape)
    bounds = [grid.shape[0] * k // threads for k in range(threads + 1)]
    results: list = [None] * threads  # each slab's out-of-swath count, or its exception

    def run(k: int) -> None:
        try:
            results[k] = slab(bounds[k], bounds[k + 1])
        except BaseException as exc:  # raised again in the calling thread below
            results[k] = exc

    # Plain threads, not concurrent.futures: importing that pulls in logging,
    # about 17 ms of import time and 0.6 MB of memory that every nfsar process
    # would pay.
    workers = [threading.Thread(target=run, args=(k,)) for k in range(1, threads)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    oos = sum(results)
    total = out[0].size * len(positions)
    if oos == total:
        raise ValueError("image grid lies entirely outside the compressed swath")
    if oos:
        warnings.warn(
            f"{oos} of {total} voxel contributions fell outside the swath and were zeroed",
            RuntimeWarning,
            stacklevel=3,
        )
    return [ComplexImage((image / len(positions)).reshape(grid.shape), grid) for image in out]


def backproject_2d(profiles: RangeProfileSet, grid: ImageGrid) -> ComplexImage:
    """Back-project onto a (range, azimuth) grid from a linear aperture.

    Each voxel sums interpolated profile samples at its two-way delay times
    the carrier compensation phase exp(+j*4*pi*f0*R/c), normalized by the
    number of scan positions.  Voxels lie in the scan row's height plane.
    """
    if grid.ndim != 2:
        raise ValueError("backproject_2d needs a 2D (range, azimuth) grid")
    return _backproject((profiles,), grid)[0]


def backproject_3d(profiles: RangeProfileSet, grid: ImageGrid) -> ComplexImage:
    """Back-project onto a (range, azimuth, height) grid from a planar aperture."""
    if grid.ndim != 3:
        raise ValueError("backproject_3d needs a 3D (range, azimuth, height) grid")
    return _backproject((profiles,), grid)[0]


def image_to_db(image: ComplexImage, floor_db: float = -60.0) -> np.ndarray:
    """Magnitude in dB relative to the image peak, clamped below at floor_db."""
    _require_real("floor_db", floor_db)
    if floor_db >= 0:
        raise ValueError("floor_db: must be < 0")
    mag = np.abs(image.values)
    peak = mag.max()
    if peak == 0:
        return np.full(mag.shape, floor_db)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    return np.maximum(db, floor_db)
