import cmath
import math
import tracemalloc

import numpy as np
import pytest

from nfsar.core_model import (
    Aperture,
    EchoData,
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
from nfsar.evaluation import peak_detect
from nfsar.imaging import range_compress


def small_radar(num_freq=16):
    return RadarParams(f0=9e9, delta_f=11.71875e6, num_freq=num_freq)


def single_position_aperture():
    return Aperture(kind="linear", origin=(0.0, 0.0, 0.0), azimuth_count=1, azimuth_spacing=0.01)


class TestRadarParams:
    def test_bandwidth_is_count_times_step(self):
        r = RadarParams(f0=9e9, delta_f=11.71875e6, num_freq=256)
        assert r.bandwidth == 256 * 11.71875e6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RadarParams(f0=0.0, delta_f=1e6, num_freq=8)
        with pytest.raises(ValueError):
            RadarParams(f0=1e9, delta_f=0.0, num_freq=8)
        with pytest.raises(ValueError):
            RadarParams(f0=1e9, delta_f=1e6, num_freq=1)

    @pytest.mark.parametrize("field", ["f0", "delta_f", "c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, field, value):
        kwargs = {"f0": 9e9, "delta_f": 1e6, "num_freq": 8, field: value}
        with pytest.raises(ValueError, match=f"^{field}: must be finite"):
            RadarParams(**kwargs)


class TestAperture:
    def test_positions_azimuth_major(self):
        ap = Aperture(kind="planar", origin=(1.0, 2.0, 3.0), azimuth_count=3,
                      azimuth_spacing=0.5, height_count=2, height_spacing=0.25)
        pos = ap.positions()
        assert pos.shape == (6, 3)
        # index = a + azimuth_count * h
        assert np.allclose(pos[0], [1.0, 2.0, 3.0])
        assert np.allclose(pos[2], [2.0, 2.0, 3.0])
        assert np.allclose(pos[3], [1.0, 2.0, 3.25])
        assert np.allclose(pos[5], [2.0, 2.0, 3.25])

    def test_linear_forces_single_row(self):
        with pytest.raises(ValueError):
            Aperture(kind="linear", azimuth_count=4, azimuth_spacing=0.1, height_count=2)

    def test_target_must_be_in_front(self):
        with pytest.raises(ValueError):
            PointTarget(position=(0.0, -1.0, 0.0))

    @pytest.mark.parametrize("kwargs, field", [
        ({"azimuth_spacing": float("nan")}, "azimuth_spacing"),
        ({"azimuth_spacing": float("inf")}, "azimuth_spacing"),
        ({"height_spacing": float("nan")}, "height_spacing"),
        ({"origin": (0.0, float("nan"), 0.0)}, "origin"),
        ({"origin": (float("-inf"), 0.0, 0.0)}, "origin"),
    ])
    def test_non_finite_geometry_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: must be finite"):
            Aperture(kind="planar", azimuth_count=2, height_count=2, **kwargs)

    @pytest.mark.parametrize("position", [(float("nan"), 1.0, 0.0), (0.0, float("inf"), 0.0)])
    def test_non_finite_target_position_rejected(self, position):
        with pytest.raises(ValueError, match="^position: must be finite"):
            PointTarget(position=position)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_interferer_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="^delay_range: must be finite"):
            Interferer(delay)


class TestSynthesizeEcho:
    def test_empty_scene_gives_zeros(self):
        echo = synthesize_echo(small_radar(), single_position_aperture(), Scene())
        assert np.all(echo.samples == 0)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed: must be an integer >= 0, got {seed!r}$"):
            synthesize_echo(small_radar(), single_position_aperture(), Scene(noise_sigma=0.1), seed=seed)

    def test_numpy_integer_seed_is_the_python_seed(self):
        scene = Scene(noise_sigma=0.1)
        a = synthesize_echo(small_radar(), single_position_aperture(), scene, seed=np.int64(3))
        b = synthesize_echo(small_radar(), single_position_aperture(), scene, seed=3)
        assert a.samples.tobytes() == b.samples.tobytes()

    @pytest.mark.parametrize("order", [0, -3, 2.5, True])
    def test_max_harmonic_order_must_be_a_positive_integer(self, order):
        # max(1, order) used to take 0, -3 and True as order 1 and 2.5 as 2.5
        with pytest.raises(ValueError, match=f"^max_harmonic_order: must be an integer >= 1, got {order!r}$"):
            synthesize_echo(small_radar(), single_position_aperture(), Scene(), max_harmonic_order=order)

    def test_constant_delay_columns_identical(self):
        ap = Aperture(kind="linear", azimuth_count=5, azimuth_spacing=0.05)
        scene = Scene(interferers=[Interferer(5.0, 1.0)])
        echo = synthesize_echo(small_radar(), ap, scene)
        for col in range(1, 5):
            assert np.array_equal(echo.samples[:, col], echo.samples[:, 0])

    def test_single_target_phase_matches_direct_evaluation(self):
        radar = small_radar()
        ap = single_position_aperture()
        target = PointTarget(position=(0.0, 4.5, 0.0), amplitude=1.0)
        echo = synthesize_echo(radar, ap, Scene(targets=[target]))
        r = np.linalg.norm(np.array(target.position))
        for m in range(radar.num_freq):
            f = radar.f0 + m * radar.delta_f
            expected = cmath.exp(-4j * cmath.pi * f * r / radar.c)
            assert abs(echo.samples[m, 0]) == pytest.approx(1.0, rel=1e-12)
            assert echo.samples[m, 0] == pytest.approx(expected, rel=1e-10)

    def test_planar_scene_matches_direct_evaluation(self):
        # Two targets and an interferer over a 3 x 2 planar aperture, each
        # term on the phase kernel, against cmath.exp of the full phase; the
        # interferer dominates, so no sum comes near zero.
        radar = small_radar()
        ap = Aperture(kind="planar", origin=(-0.05, 0.0, -0.02), azimuth_count=3, azimuth_spacing=0.05,
                      height_count=2, height_spacing=0.04)
        targets = [PointTarget((0.1, 3.0, 0.05), 1.0), PointTarget((-0.2, 4.25, -0.1), 1j)]
        interferer = Interferer(2.5, 2.5 - 0.5j)
        echo = synthesize_echo(radar, ap, Scene(targets=targets, interferers=[interferer])).samples
        freqs, positions = radar.frequencies(), ap.positions()
        for m, f in enumerate(freqs):
            for n, p in enumerate(positions):
                terms = [(t.amplitude, math.dist(p, t.position)) for t in targets]
                terms.append((interferer.amplitude, interferer.delay_range))
                expected = sum(a * cmath.exp(-4j * cmath.pi * f * r / radar.c) for a, r in terms)
                assert echo[m, n] == pytest.approx(expected, rel=1e-10)
        for term in targets:
            alone = synthesize_echo(radar, ap, Scene(targets=[term])).samples
            assert np.abs(alone) == pytest.approx(np.ones(alone.shape), rel=1e-12)
        alone = synthesize_echo(radar, ap, Scene(interferers=[Interferer(2.5)])).samples
        assert np.abs(alone) == pytest.approx(np.ones(alone.shape), rel=1e-12)

    def test_superposition_of_scenes(self):
        radar = small_radar()
        ap = Aperture(kind="linear", azimuth_count=3, azimuth_spacing=0.04)
        a = Scene(targets=[PointTarget((0.1, 3.0, 0.0), 1.0)],
                  interferers=[Interferer(2.0, 0.5j)])
        b = Scene(targets=[PointTarget((-0.2, 4.0, 0.0), 2.0 - 1.0j)])
        union = Scene(targets=a.targets + b.targets, interferers=a.interferers + b.interferers)
        lhs = synthesize_echo(radar, ap, union).samples
        rhs = synthesize_echo(radar, ap, a).samples + synthesize_echo(radar, ap, b).samples
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_noise_reproducible_per_seed(self):
        radar = small_radar()
        ap = Aperture(kind="linear", azimuth_count=4, azimuth_spacing=0.05)
        scene = Scene(noise_sigma=0.3)
        e1 = synthesize_echo(radar, ap, scene, seed=7)
        e2 = synthesize_echo(radar, ap, scene, seed=7)
        e3 = synthesize_echo(radar, ap, scene, seed=8)
        assert np.array_equal(e1.samples, e2.samples)
        assert not np.array_equal(e1.samples, e3.samples)
        # empirical scale sanity
        assert np.std(np.abs(e1.samples)) < 1.0

    def test_memory_budget_rejected_with_sizes(self):
        radar = small_radar(num_freq=8192)
        ap = Aperture(kind="linear", azimuth_count=16384, azimuth_spacing=0.01)
        with pytest.raises(ValueError, match=r"8192 x 16384 = 134217728 samples exceeds the budget of 67108864"):
            synthesize_echo(radar, ap, Scene())

    def test_unambiguous_range_warning(self):
        radar = small_radar()  # unambiguous range ~12.8 m
        scene = Scene(interferers=[Interferer(5.0, 1.0)])
        with pytest.warns(RuntimeWarning, match="unambiguous"):
            synthesize_echo(radar, single_position_aperture(), scene, max_harmonic_order=3)


class TestApplySaturation:
    def make_echo(self, values):
        radar = RadarParams(f0=1e9, delta_f=1e6, num_freq=len(values))
        return EchoData(np.array(values, dtype=complex)[:, None], radar, single_position_aperture())

    def test_below_threshold_passes_through(self):
        echo = self.make_echo([0.5, 0.25])
        out = apply_saturation(echo, Saturation(mode="hard_clip", threshold=1.0))
        assert np.allclose(out.samples[:, 0], [0.5, 0.25])

    def test_clip_preserves_phase(self):
        echo = self.make_echo([3 + 4j, 0.1])
        out = apply_saturation(echo, Saturation(mode="hard_clip", threshold=2.0))
        assert out.samples[0, 0] == pytest.approx(1.2 + 1.6j)
        assert out.samples[1, 0] == pytest.approx(0.1)

    def test_clip_bound_and_idempotence(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        echo = self.make_echo(vals * 3)
        sat = Saturation(mode="hard_clip", threshold=1.1)
        once = apply_saturation(echo, sat)
        assert np.max(np.abs(once.samples)) <= 1.1 * (1 + 1e-12)
        twice = apply_saturation(once, sat)
        assert np.allclose(twice.samples, once.samples, rtol=1e-14, atol=1e-16)

    def test_polynomial_square_doubles_phase(self):
        radar = small_radar()
        target = PointTarget(position=(0.0, 3.0, 0.0), amplitude=1.0)
        echo = synthesize_echo(radar, single_position_aperture(), Scene(targets=[target]))
        squared = apply_saturation(echo, Saturation(mode="polynomial", coefficients=[0, 0, 1]))
        assert np.allclose(squared.samples, echo.samples**2, rtol=1e-12)

    def test_none_is_identity(self):
        echo = self.make_echo([1 + 1j, -2j])
        out = apply_saturation(echo, Saturation(mode="none"))
        assert np.array_equal(out.samples, echo.samples)

    def test_non_finite_rejected(self):
        echo = self.make_echo([1.0, 1.0])
        echo.samples[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            apply_saturation(echo, Saturation(mode="none"))

    def test_clip_edges_are_the_scale_of_the_magnitudes_above_the_threshold(self):
        # 0, -0, the threshold itself and the next magnitude above it: the
        # clip scales exactly the samples whose magnitude exceeds the threshold
        thr = 2.0
        values = np.array([0.0, complex(-0.0, -0.0), thr, -thr, 1j * thr, np.nextafter(thr, 3.0),
                           3 + 4j, -0.5j], dtype=complex)
        out = apply_saturation(self.make_echo(values), Saturation(mode="hard_clip", threshold=thr)).samples[:, 0]
        mag = np.abs(values)
        expected = values * np.where(mag > thr, thr / np.where(mag > thr, mag, 1.0), 1.0)
        assert out.tobytes() == expected.tobytes()
        assert np.abs(out[5]) <= thr

    def test_clip_holds_one_real_temporary(self):
        # |x| is the one echo-sized real array beside the output, so the peak
        # is about 1.6 times the echo's bytes; a second real array would
        # take it past 2
        rng = np.random.default_rng(0)
        echo = self.make_echo(rng.standard_normal(65536) + 1j * rng.standard_normal(65536))
        tracemalloc.start()
        try:
            apply_saturation(echo, Saturation(mode="hard_clip", threshold=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * echo.samples.nbytes


class TestEchoData:
    @pytest.mark.parametrize("shape", [(16, 2), (16,), (16, 1, 1)], ids=["2d", "1d", "3d"])
    def test_samples_of_another_shape_refused(self, shape):
        # the shape check alone refuses an array that is not 2D
        with pytest.raises(ValueError, match=rf"^samples shape \({shape[0]},.* does not match radar/aperture \(16, 1\)$"):
            EchoData(np.zeros(shape, dtype=complex), small_radar(), single_position_aperture())


class TestPolynomialTransfer:
    def test_identity(self):
        assert polynomial_transfer([0, 1], 7 - 2j) == pytest.approx(7 - 2j)

    def test_pure_dc(self):
        assert polynomial_transfer([1, 0, 0], 123 + 4j) == pytest.approx(1.0)

    def test_hand_expansion(self):
        # (1+1j)^2 = 2j, so [0, 1, 0.5] maps 1+1j to 1+2j
        assert polynomial_transfer([0, 1, 0.5], 1 + 1j) == pytest.approx(1 + 2j)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            polynomial_transfer([], 1.0)


class TestFitClipperPolynomial:
    def test_no_clipping_in_domain_gives_identity(self):
        fit = fit_clipper_polynomial(threshold=5.0, order=1, sample_count=100, fit_max=5.0)
        assert fit.coefficients == pytest.approx([0.0, 1.0], abs=1e-9)
        assert fit.residual < 1e-9

    def test_affine_fit_matches_lstsq_oracle(self):
        n = 201
        fit = fit_clipper_polynomial(threshold=1.0, order=1, sample_count=n)
        t = np.linspace(0.0, 2.0, n)
        vander = np.stack([np.ones(n), t], axis=1)
        expected, *_ = np.linalg.lstsq(vander, np.minimum(t, 1.0), rcond=None)
        assert fit.coefficients == pytest.approx(expected, abs=1e-9)
        assert fit.residual > 0

    def test_higher_order_fits_no_worse(self):
        lo = fit_clipper_polynomial(threshold=1.0, order=3, sample_count=400)
        hi = fit_clipper_polynomial(threshold=1.0, order=9, sample_count=400)
        assert hi.residual <= lo.residual + 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_clipper_polynomial(threshold=1.0, order=0, sample_count=10)
        with pytest.raises(ValueError):
            fit_clipper_polynomial(threshold=1.0, order=5, sample_count=5)
        # A degree-24 Vandermonde matrix on 25 points of [0, 1] is rank-deficient in float64.
        with pytest.raises(ValueError, match="^degenerate normal equations in clipper fit$"):
            fit_clipper_polynomial(threshold=1.0, order=24, sample_count=25)

    @pytest.mark.parametrize("kwargs, message", [
        ({"order": 2.5}, "order: must be an integer >= 1, got 2.5"),
        ({"order": True}, "order: must be an integer >= 1, got True"),
        ({"sample_count": 50.0}, "sample_count: must be an integer >= 4, got 50.0"),
        ({"order": 5, "sample_count": 5}, "sample_count: must be an integer >= 6, got 5"),
    ])
    def test_order_and_sample_count_must_be_integers(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_clipper_polynomial(**{"threshold": 1.0, "order": 3, "sample_count": 50, **kwargs})

    @pytest.mark.parametrize("kwargs, field", [
        ({"threshold": float("nan")}, "threshold"),
        ({"fit_max": float("nan")}, "fit_max"),
    ])
    def test_nan_rejected_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: must be finite"):
            fit_clipper_polynomial(**{"threshold": 1.0, "order": 3, "sample_count": 50, **kwargs})

    def test_polynomial_consistency_with_hard_clip(self):
        # magnitudes mapped through the fit match the clipped magnitudes
        # within the reported residual, inside the fitted domain
        thr = 1.0
        fit = fit_clipper_polynomial(threshold=thr, order=9, sample_count=512)
        rng = np.random.default_rng(3)
        mags = rng.uniform(0.0, 2.0 * thr, 256)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 256))
        radar = RadarParams(f0=1e9, delta_f=1e6, num_freq=256)
        echo = EchoData((mags * phases)[:, None], radar, single_position_aperture())
        clipped = apply_saturation(echo, Saturation(mode="hard_clip", threshold=thr))
        approx = polynomial_transfer(fit.coefficients, mags).real
        assert np.all(np.abs(approx - np.abs(clipped.samples[:, 0])) <= fit.residual + 1e-12)


class TestPredictHarmonicRanges:
    def ranges(self, comps):
        return [c.apparent_range for c in comps]

    def test_interferer_harmonics(self):
        comps = predict_harmonic_ranges([], [5.0], 3)
        assert self.ranges(comps) == [0.0, 5.0, 10.0, 15.0]

    def test_fundamental_only(self):
        comps = predict_harmonic_ranges([4.5], [], 1)
        assert self.ranges(comps) == [0.0, 4.5]

    def test_cross_coupling_order_two(self):
        comps = predict_harmonic_ranges([4.5], [5.0], 2)
        assert self.ranges(comps) == [0.0, 4.5, 5.0, 9.0, 9.5, 10.0]
        by_range = {c.apparent_range: c.labels for c in comps}
        assert by_range[9.5] == ("cross(1,1)",)
        assert by_range[9.0] == ("target_harmonic(2)",)

    def test_coincident_entries_merge_labels(self):
        comps = predict_harmonic_ranges([5.0], [5.0], 2)
        by_range = {c.apparent_range: c.labels for c in comps}
        assert by_range[5.0] == ("interference_harmonic(1)", "target_harmonic(1)")
        assert by_range[10.0] == ("cross(1,1)", "interference_harmonic(2)", "target_harmonic(2)")

    def test_max_order_validated(self):
        with pytest.raises(ValueError):
            predict_harmonic_ranges([1.0], [], 0)

    @pytest.mark.parametrize("order", [2.5, True])
    def test_max_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError, match=f"^max_order: must be an integer >= 1, got {order!r}$"):
            predict_harmonic_ranges([1.0], [], order)


class TestHarmonicOracle:
    def test_squared_two_tone_peaks_match_prediction(self):
        # a square-law receiver turns two returns into the order-2 comb
        radar = RadarParams(f0=9e9, delta_f=11.71875e6, num_freq=256)
        ap = single_position_aperture()
        scene = Scene(targets=[PointTarget((0.0, 4.0, 0.0)), PointTarget((0.0, 5.0, 0.0))])
        echo = synthesize_echo(radar, ap, scene, max_harmonic_order=2)
        squared = apply_saturation(echo, Saturation(mode="polynomial", coefficients=[0, 0, 1]))
        profiles = range_compress(squared, oversample=8)
        mag = np.abs(profiles.profiles[:, 0])
        db = 20 * np.log10(mag / mag.max() + 1e-300)
        peaks = peak_detect(db, min_prominence_db=30.0, min_separation_cells=80,
                            axis=profiles.range_axis)
        assert len(peaks) >= 3
        predicted = [c.apparent_range for c in predict_harmonic_ranges([4.0], [5.0], 2)]
        order2 = {8.0, 9.0, 10.0}
        assert order2 <= set(predicted)
        cell = radar.c / (2 * radar.bandwidth)
        for p in peaks.positions:
            assert min(abs(p - q) for q in order2) <= cell
