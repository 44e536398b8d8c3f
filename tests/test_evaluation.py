import numpy as np
import pytest

from nfsar.core_model import (
    Aperture,
    Interferer,
    PointTarget,
    RadarParams,
    Saturation,
    Scene,
    apply_saturation,
    synthesize_echo,
)
from nfsar.evaluation import (
    Peak,
    PeakList,
    background_subtract,
    comb_spacing,
    peak_detect,
    singular_spectrum,
    suppression_metrics,
)
from nfsar.imaging import ComplexImage, GridAxis, ImageGrid, backproject_2d, range_compress


class TestPeakDetect:
    def test_monotone_array_has_no_peaks(self):
        assert len(peak_detect(np.linspace(-40, 0, 100), 30.0, 1)) == 0
        assert len(peak_detect(np.array([-1.0, 0.0]), 30.0, 1)) == 0  # fewer than 3 samples

    def test_sinc_mainlobe_single_peak(self):
        x = np.linspace(-8.0, 8.0, 3201)
        mag = np.abs(np.sinc(x)) + 1e-12
        db = 20 * np.log10(mag / mag.max())
        peaks = peak_detect(db, min_prominence_db=13.0, min_separation_cells=1)
        assert len(peaks) == 1
        assert peaks.peaks[0].position == pytest.approx(1600, abs=1)
        # the mainlobe stands ~13.26 dB above the strongest sidelobe
        sidelobes = peak_detect(db, min_prominence_db=14.0, min_separation_cells=1)
        gap = -max(p.magnitude_db for p in sidelobes.peaks if p.magnitude_db < 0)
        assert 13.0 < gap < 13.5

    def test_synthetic_comb_positions(self):
        v = np.full(500, -60.0)
        for k in range(1, 10):
            v[50 * k] = -float(k)
        peaks = peak_detect(v, min_prominence_db=30.0, min_separation_cells=10)
        expected = [50.0 * k for k in range(1, 10)]
        assert len(peaks) == len(expected)
        assert np.allclose(peaks.positions, expected, atol=1.0)

    def test_positions_are_strict_local_maxima(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(300).cumsum()
        peaks = peak_detect(v, min_prominence_db=1000.0, min_separation_cells=1)
        for p in peaks.positions:
            i = int(p)
            assert v[i] > v[i - 1] and v[i] > v[i + 1]

    def test_separation_keeps_the_stronger(self):
        v = np.full(40, -60.0)
        v[10] = -1.0
        v[14] = 0.0
        peaks = peak_detect(v, min_prominence_db=30.0, min_separation_cells=6)
        assert len(peaks) == 1
        assert peaks.peaks[0].position == 14

    def test_axis_mapping_and_validation(self):
        v = np.full(11, -30.0)
        v[5] = 0.0
        axis = np.linspace(0.0, 1.0, 11)
        peaks = peak_detect(v, 10.0, 1, axis=axis)
        assert peaks.peaks[0].position == pytest.approx(0.5)
        with pytest.raises(ValueError):
            peak_detect(v, 0.0, 1)
        with pytest.raises(ValueError):
            peak_detect(v, 10.0, 1, axis=axis[:-1])
        with pytest.raises(ValueError, match=r"^peak magnitudes must be <= 0 dB \(relative to max\)$"):
            PeakList([Peak(0.0, -1.0), Peak(1.0, 0.5)])

    def test_nan_prominence_rejected(self):
        with pytest.raises(ValueError, match="^min_prominence_db: must be finite"):
            peak_detect(np.array([-30.0, 0.0, -30.0]), float("nan"), 1)


class TestCombSpacing:
    def test_exact_comb(self):
        peaks = PeakList([Peak(5.0, 0.0), Peak(10.0, -1.0), Peak(15.0, -2.0)])
        assert comb_spacing(peaks) == (5.0, 0.0)

    def test_jittered_comb(self):
        peaks = PeakList([Peak(5.0, 0.0), Peak(10.1, -1.0), Peak(14.9, -2.0)])
        mean, std = comb_spacing(peaks)
        assert mean == pytest.approx(4.95)
        assert std == pytest.approx(0.15)

    def test_needs_three_peaks(self):
        with pytest.raises(ValueError):
            comb_spacing(PeakList([Peak(1.0, 0.0), Peak(2.0, 0.0)]))

    def test_predicted_harmonics_form_exact_comb(self):
        from nfsar.core_model import predict_harmonic_ranges

        comps = predict_harmonic_ranges([], [5.0], 4)
        peaks = PeakList([Peak(c.apparent_range, 0.0) for c in comps])
        mean, std = comb_spacing(peaks)
        assert mean == 5.0
        assert std == 0.0


RADAR = RadarParams(f0=9e9, delta_f=3e9 / 128, num_freq=128)


def linear_aperture(count=64, spacing=0.015):
    origin = (-(count - 1) / 2 * spacing, 0.0, 0.0)
    return Aperture(kind="linear", origin=origin, azimuth_count=count, azimuth_spacing=spacing)


def small_grid():
    return ImageGrid((GridAxis(2.7, 0.025, 21), GridAxis(-0.2, 0.025, 17)))


def image_scene(scene, sat=None):
    echo = synthesize_echo(RADAR, linear_aperture(), scene)
    if sat is not None:
        echo = apply_saturation(echo, sat)
    return backproject_2d(range_compress(echo, 8), small_grid())


class TestBackgroundSubtract:
    def test_identical_inputs_cancel(self):
        img = image_scene(Scene(targets=[PointTarget((0.0, 3.0, 0.0))]))
        diff = background_subtract(img, img)
        assert np.all(diff.values == 0)

    def test_linear_pipeline_subtracts_exactly(self):
        targets = [PointTarget((0.0, 3.0, 0.0))]
        interferers = [Interferer(2.9, 5.0)]
        both = image_scene(Scene(targets=targets, interferers=interferers))
        bg = image_scene(Scene(interferers=interferers))
        tgt = image_scene(Scene(targets=targets))
        diff = background_subtract(both, bg)
        assert np.linalg.norm(diff.values - tgt.values) <= 1e-9 * np.linalg.norm(tgt.values)

    def test_saturation_breaks_superposition(self):
        targets = [PointTarget((0.0, 3.0, 0.0))]
        interferers = [Interferer(2.9, 5.0)]
        sat = Saturation(mode="hard_clip", threshold=3.0)
        both = image_scene(Scene(targets=targets, interferers=interferers), sat)
        bg = image_scene(Scene(interferers=interferers), sat)
        tgt = image_scene(Scene(targets=targets), sat)
        diff = background_subtract(both, bg)
        residual = np.linalg.norm(diff.values - tgt.values)
        assert residual > 1e-6 * np.linalg.norm(tgt.values)

    def test_grid_mismatch_rejected(self):
        img = image_scene(Scene(targets=[PointTarget((0.0, 3.0, 0.0))]))
        other = ComplexImage(
            np.zeros((5, 5), dtype=complex),
            ImageGrid((GridAxis(0.0, 1.0, 5), GridAxis(0.0, 1.0, 5))),
        )
        with pytest.raises(ValueError):
            background_subtract(img, other)


class TestSingularSpectrum:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sv = singular_spectrum(np.outer(u, v.conj()))
        assert sv[1] / sv[0] < 1e-10

    def test_identity_all_ones(self):
        assert np.allclose(singular_spectrum(np.eye(5)), 1.0)

    def test_energy_identity(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        sv = singular_spectrum(m)
        assert np.sum(sv**2) == pytest.approx(np.linalg.norm(m) ** 2, rel=1e-8)
        assert np.all(np.diff(sv) <= 0)
        assert np.all(sv >= 0)

    def test_accepts_complex_image(self):
        # wide, densely sampled scan: the stripe image is near rank one
        echo = synthesize_echo(RADAR, linear_aperture(count=160, spacing=0.012),
                               Scene(interferers=[Interferer(3.0, 1.0)]))
        img = backproject_2d(range_compress(echo, 8), small_grid())
        sv = singular_spectrum(img)
        assert sv[1] / sv[0] < 0.05

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(ValueError, match="^singular_spectrum expects a 2D matrix; unfold volumes first$"):
            singular_spectrum(np.ones(shape))


class TestSuppressionMetrics:
    def setup_images(self):
        rng = np.random.default_rng(3)
        grid = ImageGrid((GridAxis(2.0, 0.05, 21), GridAxis(-0.5, 0.05, 21)))
        raw = 0.05 * (rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21)))
        raw[10, 10] += 2.0  # target at range 2.5, azimuth 0
        raw[4, :] += 1.5  # stripe row
        raw_img = ComplexImage(raw, grid)
        target_pos = [(0.0, 2.5, 0.0)]
        return raw_img, target_pos

    def test_suppressed_equals_reference_gives_zero_error(self):
        raw, targets = self.setup_images()
        ref = ComplexImage(raw.values * 0.5, raw.grid)
        report = suppression_metrics(raw, ref, ref, targets, guard_cells=2)
        assert report.target_peak_error_db == [pytest.approx(0.0, abs=1e-12)]

    def test_suppressed_equals_raw_gives_zero_residual(self):
        raw, targets = self.setup_images()
        ref = ComplexImage(raw.values.copy(), raw.grid)
        report = suppression_metrics(raw, raw, ref, targets, guard_cells=2)
        assert report.interference_residual_db == pytest.approx(0.0, abs=1e-12)
        assert report.sinr_gain_db == pytest.approx(0.0, abs=1e-12)

    def test_good_suppression_scores_negative_residual(self):
        raw, targets = self.setup_images()
        suppressed = np.zeros_like(raw.values)
        suppressed[10, 10] = raw.values[10, 10]
        sup = ComplexImage(suppressed, raw.grid)
        report = suppression_metrics(raw, sup, sup, targets, guard_cells=2)
        assert report.interference_residual_db < -100
        assert report.sinr_gain_db > 20
        assert report.interference_mask.any()
        assert report.target_mask[10, 10]
        assert not (report.target_mask & report.interference_mask).any()

    def test_zero_suppressed_image_is_an_error_not_a_metric(self):
        raw, targets = self.setup_images()
        zero = ComplexImage(np.zeros_like(raw.values), raw.grid)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="sinr_gain_db is not finite"):
            suppression_metrics(raw, zero, raw, targets, guard_cells=2)

    def test_report_serialization(self):
        raw, targets = self.setup_images()
        report = suppression_metrics(raw, raw, raw, targets, guard_cells=2)
        text = report.to_text()
        assert "interference_residual_db = " in text
        assert "target_peak_error_db_0 = " in text
        header, row = report.to_csv_row()
        assert header.split(",")[0] == "target_peak_error_db_0"
        assert len(header.split(",")) == len(row.split(","))

    def test_target_outside_grid_rejected(self):
        raw, _ = self.setup_images()
        with pytest.raises(ValueError, match="outside"):
            suppression_metrics(raw, raw, raw, [(5.0, 9.0, 0.0)])
        with pytest.raises(ValueError, match="^at least one target position is required$"):
            suppression_metrics(raw, raw, raw, [])
        shifted = ImageGrid((GridAxis(2.0, 0.05, 21), GridAxis(-0.45, 0.05, 21)))
        for images in [(ComplexImage(raw.values, shifted), raw), (raw, ComplexImage(raw.values, shifted))]:
            with pytest.raises(ValueError, match="^suppression_metrics requires identical grids$"):
                suppression_metrics(raw, *images, [(0.0, 2.5, 0.0)])

    @pytest.mark.parametrize("guard_cells", [-1, 2.5, True])
    def test_guard_cells_must_be_a_nonnegative_integer(self, guard_cells):
        raw, targets = self.setup_images()
        with pytest.raises(ValueError, match="^guard_cells: must be an integer >= 0"):
            suppression_metrics(raw, raw, raw, targets, guard_cells=guard_cells)

    def test_empty_interference_region_rejected(self):
        grid = ImageGrid((GridAxis(0.0, 1.0, 5), GridAxis(0.0, 1.0, 5)))
        vals = np.ones((5, 5), dtype=complex)
        img = ComplexImage(vals, grid)
        # guard boxes cover the whole grid: nothing left for interference
        with pytest.raises(ValueError, match="empty"):
            suppression_metrics(img, img, img, [(2.0, 2.0, 0.0)], guard_cells=3)
