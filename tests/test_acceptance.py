"""Acceptance suite: one test per acceptance criterion, printing a PASS/FAIL
line each (run with `pytest tests/test_acceptance.py -v -s`)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from nfsar.cli_io import read_array, write_array
from nfsar.core_model import (
    Aperture,
    Interferer,
    PointTarget,
    RadarParams,
    Saturation,
    Scene,
    apply_saturation,
    fit_clipper_polynomial,
    predict_harmonic_ranges,
    synthesize_echo,
)
from nfsar.evaluation import (
    background_subtract,
    comb_spacing,
    peak_detect,
    singular_spectrum,
    suppression_metrics,
)
from nfsar.imaging import (
    ComplexImage,
    GridAxis,
    ImageGrid,
    backproject_2d,
    backproject_3d,
    range_compress,
)
from nfsar.suppression import (
    SolverConfig,
    decompose,
    matricize_3d,
    singular_value_threshold,
)

C = 299792458.0


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    print(f"\n[acceptance] {name}: PASS")


def centered_linear(count, spacing):
    return Aperture(kind="linear", origin=(-(count - 1) / 2 * spacing, 0.0, 0.0),
                    azimuth_count=count, azimuth_spacing=spacing)


def centered_planar(count, spacing):
    off = -(count - 1) / 2 * spacing
    return Aperture(kind="planar", origin=(off, 0.0, off), azimuth_count=count,
                    azimuth_spacing=spacing, height_count=count, height_spacing=spacing)


def grid_2d(r0, dr, nr, a0, da, na):
    return ImageGrid((GridAxis(r0, dr, nr), GridAxis(a0, da, na)))


def box_peak(mag, grid, position, search_cells=3):
    """Index of the strongest voxel near a true position, plus that position's index."""
    idx = []
    coords = (position[1], position[0]) + ((position[2],) if len(grid.axes) == 3 else ())
    for ax, coord in zip(grid.axes, coords):
        idx.append(int(round((coord - ax.start) / ax.spacing)))
    sl = tuple(slice(max(0, i - search_cells), i + search_cells + 1) for i in idx)
    local = mag[sl]
    peak_local = np.unravel_index(np.argmax(local), local.shape)
    peak = tuple(s.start + p for s, p in zip(sl, peak_local))
    return peak, tuple(idx)


def test_criterion_1_constant_delay_comb():
    """Saturated constant-delay interferer leaves an equally spaced peak train."""
    start = time.perf_counter()
    with criterion("1 constant-delay comb"):
        radar = RadarParams(f0=9e9, delta_f=3e9 / 512, num_freq=512)
        aperture = Aperture(kind="linear", azimuth_count=1, azimuth_spacing=0.01)
        target = PointTarget((0.0, 4.5, 0.0), 1.0)
        interferer = Interferer(5.0, 100.0)

        target_only = synthesize_echo(radar, aperture, Scene(targets=[target]))
        clip_level = 1.5 * float(np.abs(target_only.samples).max())

        # The clipper acts memorylessly on the receive chain; its power-series
        # representation applied to the complex samples is what spawns the
        # range harmonics.  Fit the series over the actual signal amplitudes.
        scene = Scene(targets=[target], interferers=[interferer])
        echo = synthesize_echo(radar, aperture, scene, max_harmonic_order=3)
        signal_max = float(np.abs(echo.samples).max())
        fit = fit_clipper_polynomial(clip_level, order=3, sample_count=4001,
                                     fit_max=1.01 * signal_max)
        saturated = apply_saturation(echo, Saturation(mode="polynomial",
                                                      coefficients=fit.coefficients))

        profiles = range_compress(saturated, oversample=8)
        mag = np.abs(profiles.profiles[:, 0])
        db = 20 * np.log10(mag / mag.max() + 1e-300)
        range_bin = profiles.range_axis[1] - profiles.range_axis[0]
        peaks = peak_detect(db, min_prominence_db=12.0,
                            min_separation_cells=int(2.0 / range_bin),
                            axis=profiles.range_axis)
        assert len(peaks) >= 3
        mean, std = comb_spacing(peaks)
        assert abs(mean - 5.0) / 5.0 < 0.02
        assert std / mean < 0.05
        # every detected tooth sits on a predicted interference harmonic
        predicted = [c.apparent_range
                     for c in predict_harmonic_ranges([], [5.0], 3)]
        cell = radar.c / (2 * radar.bandwidth)
        for p in peaks.positions:
            assert min(abs(p - q) for q in predicted) <= cell
    assert time.perf_counter() - start < 10.0


def test_criterion_2_focus_accuracy():
    """Single weak target focuses at its true position with sinc-limited width."""
    start = time.perf_counter()
    with criterion("2 focus accuracy"):
        radar = RadarParams(f0=9e9, delta_f=3e9 / 256, num_freq=256)
        aperture = Aperture(kind="linear", origin=(-2.5, 0.0, 0.0),
                            azimuth_count=128, azimuth_spacing=5.0 / 127)
        target = (0.0, 4.5, 0.0)
        scene = Scene(targets=[PointTarget(target)])
        profiles = range_compress(synthesize_echo(radar, aperture, scene), 8)

        grid = grid_2d(4.2, 0.025, 25, -0.3, 0.025, 25)
        image = backproject_2d(profiles, grid)
        mag = np.abs(image.values)
        p, q = np.unravel_index(np.argmax(mag), mag.shape)
        assert abs(grid.axes[0].values()[p] - target[1]) <= 0.025
        assert abs(grid.axes[1].values()[q] - target[0]) <= 0.025

        # fine range cut through the target for the -3 dB width
        fine = ImageGrid((GridAxis(4.35, 0.002, 151), GridAxis(0.0, 0.025, 1)))
        cut = np.abs(backproject_2d(profiles, fine).values[:, 0])
        db = 20 * np.log10(cut / cut.max())
        peak = int(np.argmax(db))
        left, right = peak, peak
        while db[left] > -3.0:
            left -= 1
        while db[right] > -3.0:
            right += 1
        # linear interpolation at the -3 dB crossings
        frac_l = (db[left + 1] + 3.0) / (db[left + 1] - db[left])
        frac_r = (db[right - 1] + 3.0) / (db[right - 1] - db[right])
        width = ((right - 1 + frac_r) - (left + 1 - frac_l)) * 0.002
        expected = 0.886 * C / (2 * radar.bandwidth)
        assert abs(width - expected) / expected < 0.2
    assert time.perf_counter() - start < 60.0


def test_criterion_3_interference_low_rankness():
    """Interference-only images are near rank one (stripes and grate plates)."""
    start = time.perf_counter()
    with criterion("3 interference low-rankness"):
        radar = RadarParams(f0=9e9, delta_f=3e9 / 256, num_freq=256)
        aperture = centered_linear(256, 0.01)
        scene = Scene(interferers=[Interferer(4.5, 1.0)])
        profiles = range_compress(synthesize_echo(radar, aperture, scene), 8)
        image = backproject_2d(profiles, grid_2d(4.0, 0.025, 41, -0.6, 0.025, 49))
        spectrum = singular_spectrum(image)
        assert spectrum[1] / spectrum[0] < 0.05

        radar3 = RadarParams(f0=9e9, delta_f=3e9 / 384, num_freq=384)
        plane = centered_planar(16, 0.03)
        scene3 = Scene(interferers=[Interferer(15.0, 1.0)])
        profiles3 = range_compress(synthesize_echo(radar3, plane, scene3), 8)
        grid3 = ImageGrid((GridAxis(14.8, 0.04, 11), GridAxis(-0.15, 0.03, 11),
                           GridAxis(-0.15, 0.03, 11)))
        volume = backproject_3d(profiles3, grid3)
        spectrum3 = singular_spectrum(matricize_3d(volume))
        assert spectrum3[1] / spectrum3[0] < 0.05
    assert time.perf_counter() - start < 120.0


_C4_TIMES = []


def test_criterion_4a_monotone_objective():
    start = time.perf_counter()
    with criterion("4a monotone objective trace"):
        rng = np.random.default_rng(42)
        for _ in range(20):
            data = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
            result = decompose(data, SolverConfig(max_iter=80))
            trace = np.array(result.objective_trace)
            assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10))
    _C4_TIMES.append(time.perf_counter() - start)


def test_criterion_4b_svt_singular_values():
    start = time.perf_counter()
    with criterion("4b singular value shrinkage"):
        rng = np.random.default_rng(43)
        for shape, t in (((32, 32), 2.0), ((24, 40), 0.5), ((16, 16), 8.0)):
            data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            sv_in = np.linalg.svd(data, compute_uv=False)
            sv_out = np.linalg.svd(singular_value_threshold(data, t), compute_uv=False)
            assert np.all(np.abs(sv_out - np.maximum(sv_in - t, 0.0)) < 1e-8)
    _C4_TIMES.append(time.perf_counter() - start)


def test_criterion_4c_synthetic_recovery_under_auto_weights():
    # Auto weights recover the exact spike support and the rank-2 part to 5% Frobenius.
    start = time.perf_counter()
    with criterion("4c rank-2 plus spikes under auto weights"):
        rng = np.random.default_rng(44)
        n = 64
        a = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        qa, _ = np.linalg.qr(a)
        qb, _ = np.linalg.qr(b)
        low = (qa * np.array([10.0, 5.0])) @ qb.conj().T

        support = set()
        while len(support) < 5:
            support.add((int(rng.integers(n)), int(rng.integers(n))))
        spikes = np.zeros((n, n), dtype=complex)
        for r, s in support:
            spikes[r, s] = 8.0 * np.exp(2j * np.pi * rng.random())

        result = decompose(low + spikes, SolverConfig(auto_weights=True))
        recovered = set(map(tuple, np.argwhere(np.abs(result.target) > 0)))
        assert recovered == support
        rel_err = np.linalg.norm(result.interference - low) / np.linalg.norm(low)
        assert rel_err < 0.05
    _C4_TIMES.append(time.perf_counter() - start)
    assert sum(_C4_TIMES) < 30.0


def suppression_2d_scenario():
    radar = RadarParams(f0=9e9, delta_f=3e9 / 256, num_freq=256)
    aperture = centered_linear(256, 0.01)
    amps = [1.0, 10 ** (-2.5 / 20), 10 ** (-5 / 20), 10 ** (-10 / 20)]  # 10 dB spread
    targets = [PointTarget((x, 4.5, 0.0), a)
               for x, a in zip((-0.9, -0.3, 0.3, 0.9), amps)]
    interferers = [Interferer(0.5, 300.0), Interferer(2.0, 180.0)]  # coupling + nadir
    saturation = Saturation(mode="hard_clip", threshold=150.0)
    grid = grid_2d(3.2, 0.025, 105, -1.2, 0.025, 97)

    def image_of(scene):
        echo = apply_saturation(synthesize_echo(radar, aperture, scene), saturation)
        return backproject_2d(range_compress(echo, 8), grid)

    raw = image_of(Scene(targets=targets, interferers=interferers))
    background = image_of(Scene(interferers=interferers))
    return raw, background, targets, grid


def test_criterion_5_end_to_end_2d_suppression():
    start = time.perf_counter()
    with criterion("5 end-to-end 2D suppression"):
        raw, background, targets, grid = suppression_2d_scenario()
        reference = background_subtract(raw, background)
        config = SolverConfig(mu=0.02, rho=0.25, auto_weights=False)
        result = decompose(raw.values, config)
        x_img = ComplexImage(result.target, grid)

        mag_x = np.abs(result.target)
        for t in targets:
            peak, truth = box_peak(mag_x, grid, t.position)
            assert mag_x[peak] > 0
            assert max(abs(p - i) for p, i in zip(peak, truth)) <= 1

        report = suppression_metrics(raw, x_img, reference,
                                     [t.position for t in targets], guard_cells=3)
        assert max(report.target_peak_error_db) <= 3.0
        assert report.interference_residual_db <= -20.0
    assert time.perf_counter() - start < 300.0


def local_maxima_3d(mag):
    """Strict 26-neighborhood local maxima of a 3D magnitude array."""
    padded = np.pad(mag, 1, constant_values=-np.inf)
    nx, ny, nz = mag.shape
    is_max = np.ones(mag.shape, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                shifted = padded[1 + dx:1 + dx + nx, 1 + dy:1 + dy + ny, 1 + dz:1 + dz + nz]
                is_max &= mag > shifted
    coords = np.argwhere(is_max & (mag > 0))
    values = mag[is_max & (mag > 0)]
    order = np.argsort(-values)
    return coords[order], values[order]


def test_criterion_6_3d_pipeline():
    start = time.perf_counter()
    with criterion("6 3D ring suppression"):
        radar = RadarParams(f0=9e9, delta_f=3e9 / 384, num_freq=384)
        aperture = centered_planar(16, 0.07)
        ring = []
        for k in range(8):
            phase = 2 * np.pi * k / 8 + np.pi / 8
            ring.append(PointTarget((0.45 * np.cos(phase), 15.0, 0.45 * np.sin(phase)), 1.0))
        interferers = [Interferer(14.6, 40.0), Interferer(15.3, 25.0)]
        grid = ImageGrid((GridAxis(14.2, 0.04, 41), GridAxis(-0.6, 0.04, 31),
                          GridAxis(-0.6, 0.04, 31)))

        def volume_of(scene):
            profiles = range_compress(synthesize_echo(radar, aperture, scene), 8)
            return backproject_3d(profiles, grid)

        raw = volume_of(Scene(targets=ring, interferers=interferers))
        background = volume_of(Scene(interferers=interferers))
        reference = background_subtract(raw, background)

        config = SolverConfig(mu=0.05, rho=1.0, auto_weights=False)
        result = decompose(matricize_3d(raw), config)
        p, q, o = raw.values.shape
        x_vol = result.target.reshape(p, o, q).transpose(0, 2, 1)
        mag_x = np.abs(x_vol)

        coords, _ = local_maxima_3d(mag_x)
        assert len(coords) >= 8
        top8 = coords[:8]
        matched = set()
        for c in top8:
            for k, t in enumerate(ring):
                truth = (round((t.position[1] - 14.2) / 0.04),
                         round((t.position[0] + 0.6) / 0.04),
                         round((t.position[2] + 0.6) / 0.04))
                if max(abs(int(ci) - ti) for ci, ti in zip(c, truth)) <= 1:
                    matched.add(k)
        assert matched == set(range(8))

        report = suppression_metrics(raw, ComplexImage(x_vol, grid), reference,
                                     [t.position for t in ring], guard_cells=3)
        assert report.interference_residual_db <= -15.0
    assert time.perf_counter() - start < 600.0


def test_criterion_7_linearity_and_oracles(tmp_path):
    start = time.perf_counter()
    with criterion("7 linearity, harmonic oracle, file round trip"):
        radar = RadarParams(f0=9e9, delta_f=3e9 / 128, num_freq=128)
        aperture = centered_linear(48, 0.015)
        scene_a = Scene(targets=[PointTarget((0.05, 3.0, 0.0), 1.0)])
        scene_b = Scene(targets=[PointTarget((-0.1, 3.3, 0.0), 0.5j)],
                        interferers=[Interferer(2.8, 2.0)])
        union = Scene(targets=scene_a.targets + scene_b.targets,
                      interferers=scene_b.interferers)
        echo_a = synthesize_echo(radar, aperture, scene_a)
        echo_b = synthesize_echo(radar, aperture, scene_b)
        echo_u = synthesize_echo(radar, aperture, union)
        assert np.linalg.norm(echo_u.samples - echo_a.samples - echo_b.samples) \
            <= 1e-9 * np.linalg.norm(echo_u.samples)

        grid = grid_2d(2.8, 0.025, 25, -0.2, 0.025, 17)
        img_a = backproject_2d(range_compress(echo_a, 8), grid).values
        img_b = backproject_2d(range_compress(echo_b, 8), grid).values
        img_u = backproject_2d(range_compress(echo_u, 8), grid).values
        assert np.linalg.norm(img_u - img_a - img_b) <= 1e-9 * np.linalg.norm(img_u)

        # square-law two-tone comb lands on the predicted harmonic locations
        radar2 = RadarParams(f0=9e9, delta_f=3e9 / 256, num_freq=256)
        one = Aperture(kind="linear", azimuth_count=1, azimuth_spacing=0.01)
        two_tone = Scene(targets=[PointTarget((0.0, 4.0, 0.0)), PointTarget((0.0, 5.0, 0.0))])
        echo2 = synthesize_echo(radar2, one, two_tone, max_harmonic_order=2)
        squared = apply_saturation(echo2, Saturation(mode="polynomial", coefficients=[0, 0, 1]))
        profiles = range_compress(squared, 8)
        mag = np.abs(profiles.profiles[:, 0])
        db = 20 * np.log10(mag / mag.max() + 1e-300)
        peaks = peak_detect(db, min_prominence_db=30.0, min_separation_cells=80,
                            axis=profiles.range_axis)
        cell = radar2.c / (2 * radar2.bandwidth)
        order2 = [8.0, 9.0, 10.0]
        assert len(peaks) == 3
        for p in peaks.positions:
            assert min(abs(p - q) for q in order2) <= cell

        rng = np.random.default_rng(7)
        data = (rng.standard_normal((48, 32)) + 1j * rng.standard_normal((48, 32))).astype(np.complex64)
        path = tmp_path / "roundtrip.nfsc"
        write_array(path, data, axes=[(0.0, 0.5), (1.0, 0.25)])
        back, axes = read_array(path)
        assert np.array_equal(back, data)
        assert axes == [(0.0, 0.5), (1.0, 0.25)]
    assert time.perf_counter() - start < 60.0
