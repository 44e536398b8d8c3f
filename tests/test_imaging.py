import math
import os
import re
import threading
import tracemalloc
import warnings

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
from nfsar import core_model, imaging
from nfsar.evaluation import singular_spectrum
from nfsar.imaging import (
    ComplexImage,
    GridAxis,
    ImageGrid,
    backproject_2d,
    backproject_3d,
    image_to_db,
    range_compress,
)

C = 299792458.0
RADAR = RadarParams(f0=9e9, delta_f=3e9 / 128, num_freq=128)  # 3 GHz bandwidth, r_u 6.4 m


def one_position():
    return Aperture(kind="linear", origin=(0.0, 0.0, 0.0), azimuth_count=1, azimuth_spacing=0.01)


def linear_aperture(count=192, spacing=0.01):
    origin = (-(count - 1) / 2 * spacing, 0.0, 0.0)
    return Aperture(kind="linear", origin=origin, azimuth_count=count, azimuth_spacing=spacing)


def planar_aperture(count=8, spacing=0.02):
    origin = (-(count - 1) / 2 * spacing, 0.0, -(count - 1) / 2 * spacing)
    return Aperture(kind="planar", origin=origin, azimuth_count=count,
                    azimuth_spacing=spacing, height_count=count, height_spacing=spacing)


def grid2d(r0, nr, a0, na, spacing=0.025):
    return ImageGrid((GridAxis(r0, spacing, nr), GridAxis(a0, spacing, na)))


def random_column(rng, nbins):
    return rng.standard_normal(nbins) + 1j * rng.standard_normal(nbins)


def interpolate_profile(profiles, slow_time_index, tau):
    """Profile slow_time_index linearly interpolated at fast time tau [s], zero
    outside the closed swath [0, max tau]: the per-sample oracle that the
    imager is checked against."""
    col = profiles.profiles[:, slow_time_index]
    return complex(imaging._interpolate(col, tau / profiles.tau_spacing, np.arange(len(col), dtype=float)))


class TestRangeCompress:
    def test_zero_echo_gives_zero_profiles(self):
        echo = synthesize_echo(RADAR, one_position(), Scene())
        profiles = range_compress(echo, 4)
        assert np.all(profiles.profiles == 0)
        assert profiles.profiles.shape == (4 * 128, 1)

    def test_axes_and_bin_count(self):
        echo = synthesize_echo(RADAR, one_position(), Scene())
        profiles = range_compress(echo, 8)
        assert profiles.tau_axis[0] == 0.0
        assert profiles.tau_spacing == pytest.approx(1.0 / (8 * RADAR.bandwidth))
        assert profiles.range_axis[-1] < RADAR.unambiguous_range

    def test_interferer_peak_at_expected_delay_in_every_column(self):
        ap = linear_aperture(count=8, spacing=0.05)
        scene = Scene(interferers=[Interferer(5.0, 1.0)])
        profiles = range_compress(synthesize_echo(RADAR, ap, scene), 8)
        tau_expected = 2 * 5.0 / C
        assert tau_expected == pytest.approx(33.356e-9, rel=1e-3)
        for col in range(8):
            mag = np.abs(profiles.profiles[:, col])
            peak_tau = profiles.tau_axis[np.argmax(mag)]
            assert abs(peak_tau - tau_expected) <= profiles.tau_spacing / 2 + 1e-15
        assert np.array_equal(profiles.profiles[:, 0], profiles.profiles[:, 3])

    def test_unit_scatterer_peak_magnitude_and_null_width(self):
        # place the return exactly on a fast-time bin: peak 1, nulls at +-1/B
        oversample = 8
        nbins = oversample * RADAR.num_freq
        k = 512
        r = k * C / (2 * oversample * RADAR.bandwidth)
        echo = synthesize_echo(RADAR, one_position(), Scene(targets=[PointTarget((0.0, r, 0.0))]))
        profiles = range_compress(echo, oversample)
        mag = np.abs(profiles.profiles[:, 0])
        assert np.argmax(mag) == k
        assert mag[k] == pytest.approx(1.0, rel=1e-9)
        assert mag[k - oversample] < 1e-9  # first null, tau spacing 1/B_r
        assert mag[k + oversample] < 1e-9

    def test_three_db_width_matches_sinc_resolution(self):
        echo = synthesize_echo(RADAR, one_position(), Scene(targets=[PointTarget((0.0, 3.0, 0.0))]))
        profiles = range_compress(echo, 32)
        mag = np.abs(profiles.profiles[:, 0])
        peak = np.argmax(mag)
        half = mag[peak] / np.sqrt(2.0)
        left = peak
        while mag[left] > half:
            left -= 1
        right = peak
        while mag[right] > half:
            right += 1
        width = (right - left - 1) * (profiles.range_axis[1] - profiles.range_axis[0])
        expected = 0.886 * C / (2 * RADAR.bandwidth)
        assert abs(width - expected) / expected < 0.2

    def test_oversample_validated(self):
        echo = synthesize_echo(RADAR, one_position(), Scene())
        with pytest.raises(ValueError):
            range_compress(echo, 0)
        profiles = range_compress(echo, 4).profiles
        with pytest.raises(ValueError, match=r"^profile bin count must equal oversample \* num_freq$"):
            imaging.RangeProfileSet(profiles, 2, RADAR, one_position())
        with pytest.raises(ValueError, match="^profile column count must match aperture positions$"):
            imaging.RangeProfileSet(profiles, 4, RADAR, linear_aperture(count=2))

    def test_profiles_are_the_scaled_inverse_transform_in_contiguous_columns(self):
        # Compression scales the echo by oversample as it copies it; a power
        # of two commutes with every rounding of the transform, so the
        # profiles are the bytes of scaling its output, for a scene's echo
        # and for a random one.
        echo = synthesize_echo(RADAR, linear_aperture(count=24), Scene(targets=[PointTarget((0.0, 3.0, 0.0))],
                               interferers=[Interferer(2.0)], noise_sigma=0.1), seed=4)
        z = np.random.default_rng(8).standard_normal((2, RADAR.num_freq, 24)) * 100
        for samples in (echo.samples, z[0] + 1j * z[1]):
            profiles = range_compress(core_model.EchoData(samples, RADAR, echo.aperture), 8).profiles
            assert profiles.tobytes() == (np.fft.ifft(samples, 8 * RADAR.num_freq, axis=0) * 8).tobytes()
        assert profiles.flags.f_contiguous and profiles[:, 5].flags.c_contiguous

    def test_complex64_profiles_are_kept(self):
        echo = synthesize_echo(RADAR, one_position(), Scene(interferers=[Interferer(2.0)]))
        narrow = range_compress(echo, 4).profiles.astype(np.complex64)
        assert imaging.RangeProfileSet(narrow, 4, RADAR, one_position()).profiles is narrow
        wide = imaging.RangeProfileSet(narrow.real, 4, RADAR, one_position()).profiles
        assert wide.dtype == np.complex128

    @pytest.mark.parametrize("oversample", [2.5, 2.0, True, "2"])
    def test_oversample_must_be_an_integer(self, oversample):
        echo = synthesize_echo(RADAR, one_position(), Scene())
        with pytest.raises(ValueError, match=f"^oversample: must be an integer >= 1, got {oversample!r}$"):
            range_compress(echo, oversample)

    def test_profiles_over_the_echo_budget_refused_before_the_transform(self, monkeypatch):
        # The profiles hold oversample times the echo's samples, so they meet
        # the echo's budget, here shrunk to below one oversampled profile set.
        echo = synthesize_echo(RADAR, linear_aperture(count=3), Scene(interferers=[Interferer(2.0)]))
        monkeypatch.setattr(core_model, "MAX_ECHO_SAMPLES", 4 * 128 * 3)
        assert range_compress(echo, 4).profiles.shape == (512, 3)
        monkeypatch.setattr(core_model, "MAX_ECHO_SAMPLES", 4 * 128 * 3 - 1)
        monkeypatch.setattr(np.fft, "ifft", None)  # never reached
        with pytest.raises(ValueError, match=r"^oversample: profile matrix 512 x 3 = 1536 samples exceeds "
                                             r"the budget of 1535 samples$"):
            range_compress(echo, 4)


class TestInterpolateProfile:
    def make_profiles(self, oversample=8):
        scene = Scene(targets=[PointTarget((0.0, 4.5, 0.0))])
        radar = RadarParams(f0=9e9, delta_f=3e9 / 256, num_freq=256)
        return range_compress(synthesize_echo(radar, one_position(), scene), oversample)

    def test_on_bin_returns_bin_value(self):
        profiles = self.make_profiles()
        for i in (0, 100, 2046, 2047):
            tau = profiles.tau_axis[i]
            assert interpolate_profile(profiles, 0, tau) == pytest.approx(
                complex(profiles.profiles[i, 0]), abs=1e-12
            )

    def test_kernel_matches_two_tap_formula(self):
        # the swath is the closed interval [0, nbins - 1]: the last bin is
        # inside, anything past it or below 0 is zero
        col = self.make_profiles().profiles[:, 0]
        nbins = col.size
        rng = np.random.default_rng(3)
        idx = np.concatenate([rng.uniform(-2.0, nbins + 1.0, 5000), [0.0, nbins - 2.0, nbins - 1.0]])
        inside = (idx >= 0) & (idx <= nbins - 1)
        i0 = np.minimum(np.floor(idx[inside]).astype(np.int64), nbins - 2)
        frac = idx[inside] - i0
        expected = np.zeros(idx.size, dtype=np.complex128)
        expected[inside] = col[i0] * (1.0 - frac) + col[i0 + 1] * frac
        samples = imaging._interpolate(col, idx, np.arange(nbins, dtype=float))
        assert np.abs(samples - expected).max() <= 1e-15 * np.abs(col).max()
        assert samples[-3] == col[0] and samples[-1] == col[-1]

    def test_midpoint_is_average(self):
        profiles = self.make_profiles()
        i = 321
        tau = (profiles.tau_axis[i] + profiles.tau_axis[i + 1]) / 2
        expected = (profiles.profiles[i, 0] + profiles.profiles[i + 1, 0]) / 2
        assert interpolate_profile(profiles, 0, tau) == pytest.approx(complex(expected), rel=1e-9)

    def test_out_of_range_returns_zero(self):
        profiles = self.make_profiles()
        assert interpolate_profile(profiles, 0, -1e-12) == 0
        assert interpolate_profile(profiles, 0, profiles.tau_axis[-1] + 1e-12) == 0

    def test_against_dense_oversample_oracle(self):
        # worst case sits on the mainlobe, where the compression phase ramp
        # rotates ~pi/8 per bin at 8x oversampling; the measured ceiling of
        # the 64x nearest-bin oracle (which carries ~pi/64 quantization of
        # its own) is 3.1% of peak
        p8 = self.make_profiles(8)
        p64 = self.make_profiles(64)
        peak = np.abs(p64.profiles[:, 0]).max()
        rng = np.random.default_rng(0)
        taus = rng.uniform(0.0, p8.tau_axis[-2], 2000)
        taus = np.concatenate([taus, 2 * 4.5 / C + np.linspace(-1, 1, 200) / (3e9)])
        err8 = 0.0
        for tau in taus:
            v64 = p64.profiles[int(round(tau / p64.tau_spacing)), 0]
            err8 = max(err8, abs(interpolate_profile(p8, 0, tau) - v64))
        assert err8 <= 0.032 * peak

    def test_against_exact_transform_oracle(self):
        # brute-force oracle: evaluate the zero-padded inverse transform
        # directly at each tau; 16x interpolation lands inside 1% of peak
        radar = RadarParams(f0=9e9, delta_f=3e9 / 256, num_freq=256)
        scene = Scene(targets=[PointTarget((0.0, 4.5, 0.0))])
        echo = synthesize_echo(radar, one_position(), scene)
        p16 = range_compress(echo, 16)
        m = np.arange(radar.num_freq)

        def exact(tau):
            return np.mean(echo.samples[:, 0] * np.exp(2j * np.pi * m * radar.delta_f * tau))

        taus = 2 * 4.5 / C + np.linspace(-1.5, 1.5, 301) / radar.bandwidth
        err = max(abs(interpolate_profile(p16, 0, tau) - exact(tau)) for tau in taus)
        assert err <= 0.01


def carrier(dist, f0):
    out = np.empty(dist.shape, dtype=np.complex128)
    imaging._carrier(dist, imaging._CARRIER_STEPS * (2 * f0 / C), out, imaging._carrier_work(dist.shape))
    return out


class TestCarrier:
    @pytest.mark.parametrize("f0", [1e9, 9e9, 77e9])
    def test_matches_a_long_double_reference(self, f0):
        # Ranges from 0 to past volume3d's 19.2 m unambiguous range; the
        # reference takes exp(2j*pi*frac(u)) from the same float64 u in long
        # double.
        rng = np.random.default_rng(5)
        dist = np.concatenate([[0.0, 1e-9], rng.uniform(0.0, 25.0, 100_000)])
        u = (dist * (2 * f0 / C)).astype(np.longdouble)
        phase = 8 * np.arctan(np.longdouble(1)) * (u - np.rint(u))
        got = carrier(dist, f0)
        err = np.hypot((got.real - np.cos(phase)).astype(float), (got.imag - np.sin(phase)).astype(float))
        assert err.max() <= 1e-15
        assert got[0] == 1
        assert core_model._CARRIER_TABLE[:: core_model._CARRIER_STEPS // 4].tolist() == [1, 1j, -1, -1j]

    def test_negated_steps_give_the_bitwise_conjugate(self):
        # Synthesis takes exp(-j*theta) from negated steps, back-projection
        # exp(+j*theta) from the same steps.  Steps of +-1 hand _carrier v
        # itself: random phases over many turns, every table point, and the
        # ties of rint.  Only table points 0 and 2048 (phase 0 and pi) are left
        # out: their imaginary part is +0 both ways, where conj gives -0.
        table_points = np.setdiff1d(np.arange(-3 * 4096, 3 * 4096), np.arange(-6, 6) * 2048)
        v = np.concatenate([np.random.default_rng(7).uniform(-1e7, 1e7, 100_000), table_points,
                            table_points + 0.5, table_points + 2.0 ** -40])
        plus, minus = np.empty(v.shape, dtype=complex), np.empty(v.shape, dtype=complex)
        core_model._carrier(v, 1.0, plus, core_model._carrier_work(v.shape))
        core_model._carrier(v, -1.0, minus, core_model._carrier_work(v.shape))
        assert minus.tobytes() == plus.conj().tobytes()

    def test_same_bytes_on_any_slice(self):
        # Slabs hand back-projection parts of one grid; each voxel's carrier
        # must not depend on which part it lies in.  Around 256 KiB of
        # complex128 (16384 elements), with odd offsets and lengths.
        dist = np.random.default_rng(6).uniform(0.0, 20.0, 40_001)
        whole = carrier(dist, 9e9)
        for start, length in [(1, 16383), (3, 16385), (4097, 20001), (7, 33), (16383, 23615)]:
            part = carrier(dist[start:start + length], 9e9)
            assert part.tobytes() == whole[start:start + length].tobytes()


class TestGridAxis:
    @pytest.mark.parametrize("start, spacing, field", [
        (float("nan"), 0.025, "start"),
        (float("-inf"), 0.025, "start"),
        (0.0, float("nan"), "spacing"),
        (0.0, float("inf"), "spacing"),
    ])
    def test_non_finite_rejected(self, start, spacing, field):
        with pytest.raises(ValueError, match=f"^{field}: must be finite"):
            GridAxis(start, spacing, 4)


class TestImageGrid:
    @pytest.mark.parametrize("ndim", [1, 4])
    def test_only_2d_and_3d_grids(self, ndim):
        with pytest.raises(ValueError, match="imaging needs a 2D or 3D grid"):
            ImageGrid(tuple(GridAxis(0.0, 1.0, 5) for _ in range(ndim)))
        shape = (5,) * ndim
        with pytest.raises(ValueError, match=rf"^image shape {re.escape(str(shape))} does not match grid \(5, 5\)$"):
            ComplexImage(np.zeros(shape), grid2d(0.0, 5, 0.0, 5))


class TestBackproject2d:
    def image_single_target(self, target_pos, spacing=0.025):
        scene = Scene(targets=[PointTarget(target_pos)])
        profiles = range_compress(synthesize_echo(RADAR, linear_aperture(), scene), 8)
        grid = grid2d(target_pos[1] - 0.3, int(0.6 / spacing) + 1,
                      target_pos[0] - 0.3, int(0.6 / spacing) + 1, spacing)
        return backproject_2d(profiles, grid), grid

    @pytest.mark.parametrize("spacing", [0.025, 0.0125])
    def test_single_target_focus(self, spacing):
        # peak voxel within one cell of truth for any spacing <= c/(4*B)
        target = (0.004, 3.002, 0.0)
        image, grid = self.image_single_target(target, spacing)
        p, q = np.unravel_index(np.argmax(np.abs(image.values)), image.values.shape)
        assert abs(grid.axes[0].values()[p] - target[1]) <= spacing
        assert abs(grid.axes[1].values()[q] - target[0]) <= spacing

    def test_one_voxel_is_the_interpolated_sample_with_carrier_compensation(self):
        # ties the imager to interpolate_profile, which the oracle tests check
        r = 3.0123
        scene = Scene(targets=[PointTarget((0.0, 3.0, 0.0))])
        profiles = range_compress(synthesize_echo(RADAR, one_position(), scene), 8)
        value = backproject_2d(profiles, grid2d(r, 1, 0.0, 1)).values[0, 0]
        expected = interpolate_profile(profiles, 0, 2 * r / C) * np.exp(4j * np.pi * RADAR.f0 * r / C)
        assert abs(expected) > 0.1
        assert value == pytest.approx(expected, rel=1e-12)

    def test_carrier_at_far_range_matches_the_full_phase(self):
        # About 5,700 rad of carrier phase, from which back-projection drops
        # the whole turns before its unit-circle table lookup; 7.8125 MHz
        # steps give a 19.2 m unambiguous range.
        radar = RadarParams(f0=9e9, delta_f=7.8125e6, num_freq=384)
        r = 15.0123
        scene = Scene(targets=[PointTarget((0.0, 15.0, 0.0))])
        profiles = range_compress(synthesize_echo(radar, one_position(), scene), 8)
        value = backproject_2d(profiles, grid2d(r, 1, 0.0, 1)).values[0, 0]
        expected = interpolate_profile(profiles, 0, 2 * r / C) * np.exp(4j * np.pi * radar.f0 * r / C)
        assert abs(expected) > 0.1
        assert value == pytest.approx(expected, rel=1e-12)

    def test_two_equal_targets_balanced(self):
        scene = Scene(targets=[PointTarget((0.0, 2.9, 0.0)), PointTarget((0.0, 3.2, 0.0))])
        profiles = range_compress(synthesize_echo(RADAR, linear_aperture(), scene), 8)
        grid = grid2d(2.7, 29, -0.2, 17)
        mag = np.abs(backproject_2d(profiles, grid).values)
        r_vals = grid.axes[0].values()
        peak1 = mag[np.abs(r_vals - 2.9) < 0.1, :].max()
        peak2 = mag[np.abs(r_vals - 3.2) < 0.1, :].max()
        assert abs(20 * np.log10(peak1 / peak2)) < 1.0

    def test_interference_only_stripe_is_low_rank(self):
        scene = Scene(interferers=[Interferer(3.0, 1.0)])
        profiles = range_compress(synthesize_echo(RADAR, linear_aperture(), scene), 8)
        grid = grid2d(2.7, 25, -0.4, 33)
        image = backproject_2d(profiles, grid)
        mag = np.abs(image.values)
        # stripe row at the interferer delay, nearly constant over azimuth
        row = mag[np.argmax(mag.max(axis=1))]
        assert row.std() / row.mean() < 0.05
        spectrum = singular_spectrum(image)
        assert spectrum[1] / spectrum[0] < 0.05

    def test_linearity_of_backprojection(self):
        ap = linear_aperture(count=48)
        scene_a = Scene(targets=[PointTarget((0.05, 3.0, 0.0), 1.0)])
        scene_b = Scene(interferers=[Interferer(3.1, 2.0)])
        both = Scene(targets=scene_a.targets, interferers=scene_b.interferers)
        grid = grid2d(2.8, 17, -0.1, 9)
        images = []
        for scene in (scene_a, scene_b, both):
            profiles = range_compress(synthesize_echo(RADAR, ap, scene), 8)
            images.append(backproject_2d(profiles, grid).values)
        assert np.allclose(images[0] + images[1], images[2], rtol=1e-9, atol=1e-12)

    def test_peak_amplitude_independent_of_aperture_size(self):
        grid = grid2d(2.9, 9, -0.1, 9)
        peaks = []
        for count in (48, 96):
            scene = Scene(targets=[PointTarget((0.0, 3.0, 0.0))])
            profiles = range_compress(synthesize_echo(RADAR, linear_aperture(count), scene), 8)
            peaks.append(np.abs(backproject_2d(profiles, grid).values).max())
        assert peaks[0] == pytest.approx(peaks[1], rel=0.05)

    def test_deterministic(self):
        scene = Scene(targets=[PointTarget((0.0, 3.0, 0.0))])
        profiles = range_compress(synthesize_echo(RADAR, linear_aperture(count=32), scene), 8)
        grid = grid2d(2.8, 9, -0.1, 9)
        a = backproject_2d(profiles, grid).values
        b = backproject_2d(profiles, grid).values
        assert np.array_equal(a, b)

    def test_grid_outside_swath_rejected(self):
        scene = Scene(targets=[PointTarget((0.0, 3.0, 0.0))])
        profiles = range_compress(synthesize_echo(RADAR, linear_aperture(count=16), scene), 8)
        grid = grid2d(RADAR.unambiguous_range + 1.0, 5, -0.05, 5)
        with pytest.raises(ValueError, match="outside the compressed swath"):
            backproject_2d(profiles, grid)

    def test_partially_outside_swath_warns(self):
        scene = Scene(targets=[PointTarget((0.0, 3.0, 0.0))])
        profiles = range_compress(synthesize_echo(RADAR, linear_aperture(count=16), scene), 8)
        grid = grid2d(RADAR.unambiguous_range - 0.1, 9, -0.05, 5)
        with pytest.warns(RuntimeWarning, match="outside the swath"):
            backproject_2d(profiles, grid)

    def test_requires_linear_aperture_and_2d_grid(self):
        ap = Aperture(kind="planar", azimuth_count=4, azimuth_spacing=0.05,
                      height_count=2, height_spacing=0.05)
        profiles = range_compress(synthesize_echo(RADAR, ap, Scene(interferers=[Interferer(3.0)])), 4)
        with pytest.raises(ValueError, match="linear"):
            backproject_2d(profiles, grid2d(2.8, 5, -0.05, 5))
        lin = range_compress(synthesize_echo(RADAR, linear_aperture(16), Scene(interferers=[Interferer(3.0)])), 4)
        grid3 = ImageGrid((GridAxis(2.8, 0.05, 5), GridAxis(-0.1, 0.05, 5), GridAxis(-0.1, 0.05, 5)))
        with pytest.raises(ValueError, match="2D"):
            backproject_2d(lin, grid3)
        # planar profiles pair with a 3D grid, so only the rank check refuses them
        with pytest.raises(ValueError, match=r"^backproject_2d needs a 2D \(range, azimuth\) grid$"):
            backproject_2d(profiles, grid3)


class TestBackproject3d:
    def test_single_target_peak_at_true_voxel(self):
        target = (0.05, 3.0, -0.05)
        scene = Scene(targets=[PointTarget(target)])
        profiles = range_compress(synthesize_echo(RADAR, planar_aperture(), scene), 8)
        grid = ImageGrid((GridAxis(2.85, 0.025, 13), GridAxis(-0.15, 0.025, 13),
                          GridAxis(-0.15, 0.025, 13)))
        image = backproject_3d(profiles, grid)
        p, q, o = np.unravel_index(np.argmax(np.abs(image.values)), image.values.shape)
        assert abs(grid.axes[0].values()[p] - target[1]) <= 0.025
        assert abs(grid.axes[1].values()[q] - target[0]) <= 0.025
        assert abs(grid.axes[2].values()[o] - target[2]) <= 0.025

    def test_interference_plate_constant_over_azimuth_height(self):
        # dense aperture, voxels well inside the scan footprint: the plate
        # magnitude is flat over azimuth x height at the interferer's range
        scene = Scene(interferers=[Interferer(2.0, 1.0)])
        ap = planar_aperture(count=48, spacing=0.015)
        profiles = range_compress(synthesize_echo(RADAR, ap, scene), 8)
        grid = ImageGrid((GridAxis(1.85, 0.025, 13), GridAxis(-0.05, 0.025, 5),
                          GridAxis(-0.05, 0.025, 5)))
        mag = np.abs(backproject_3d(profiles, grid).values)
        plate = mag[np.argmax(mag.reshape(13, -1).max(axis=1))]
        assert plate.std() / plate.mean() < 0.05

    def test_interference_volume_unfolds_low_rank(self):
        scene = Scene(interferers=[Interferer(5.5, 1.0)])
        ap = planar_aperture(count=16, spacing=0.03)
        profiles = range_compress(synthesize_echo(RADAR, ap, scene), 8)
        grid = ImageGrid((GridAxis(5.35, 0.025, 13), GridAxis(-0.08, 0.025, 7),
                          GridAxis(-0.08, 0.025, 7)))
        vol = backproject_3d(profiles, grid)
        p, q, o = vol.values.shape
        spectrum = singular_spectrum(vol.values.transpose(0, 2, 1).reshape(p, q * o))
        assert spectrum[1] / spectrum[0] < 0.05

    def test_height_slice_matches_2d_image(self):
        # a single-row planar aperture reproduces the linear-aperture image
        # on the z = 0 slice, and the height collapse peaks there
        count, spacing = 24, 0.02
        origin = (-(count - 1) / 2 * spacing, 0.0, 0.0)
        planar_row = Aperture(kind="planar", origin=origin, azimuth_count=count,
                              azimuth_spacing=spacing, height_count=1)
        linear_row = Aperture(kind="linear", origin=origin, azimuth_count=count,
                              azimuth_spacing=spacing)
        scene = Scene(targets=[PointTarget((0.0, 3.0, 0.0))])
        prof3 = range_compress(synthesize_echo(RADAR, planar_row, scene), 8)
        prof2 = range_compress(synthesize_echo(RADAR, linear_row, scene), 8)
        grid3 = ImageGrid((GridAxis(2.9, 0.025, 9), GridAxis(-0.1, 0.025, 9),
                           GridAxis(-0.05, 0.05, 3)))
        grid2 = grid2d(2.9, 9, -0.1, 9)
        vol = backproject_3d(prof3, grid3)
        img = backproject_2d(prof2, grid2)
        assert np.allclose(vol.values[:, :, 1], img.values, rtol=1e-10, atol=1e-13)
        collapsed = np.abs(vol.values).max(axis=2)
        p3 = np.unravel_index(np.argmax(collapsed), collapsed.shape)
        p2 = np.unravel_index(np.argmax(np.abs(img.values)), img.values.shape)
        assert p3 == p2

    def test_requires_planar_aperture(self):
        profiles = range_compress(
            synthesize_echo(RADAR, linear_aperture(16), Scene(interferers=[Interferer(3.0)])), 4
        )
        grid3 = ImageGrid((GridAxis(2.8, 0.05, 5), GridAxis(-0.1, 0.05, 5), GridAxis(-0.1, 0.05, 5)))
        with pytest.raises(ValueError, match="planar"):
            backproject_3d(profiles, grid3)
        # linear profiles pair with a 2D grid, so only the rank check refuses them
        with pytest.raises(ValueError, match=r"^backproject_3d needs a 3D \(range, azimuth, height\) grid$"):
            backproject_3d(profiles, grid2d(2.8, 5, -0.05, 5))


class TestSlabThreads:
    """Range rows are split across the CPUs of the process's affinity, and the
    image, the out-of-swath warning and the errors do not depend on how many."""

    R_U = RADAR.unambiguous_range

    def case(self, ndim, range_start):
        # Large enough for 4 slabs; with 4 slabs some hold fewer than 16384
        # voxels (256 KiB of complex128) while the whole grid holds more,
        # so arithmetic whose rounding follows operand size would show.
        scene = Scene(targets=[PointTarget((0.0, self.R_U - 0.3, 0.0))], interferers=[Interferer(self.R_U - 0.2)])
        if ndim == 3:
            aperture = planar_aperture(count=4, spacing=0.03)
            grid = ImageGrid((GridAxis(range_start, 0.2, 6), GridAxis(-0.6, 0.01, 120),
                              GridAxis(-0.6, 0.01, 120)))
        else:
            aperture = linear_aperture(count=16)
            grid = ImageGrid((GridAxis(range_start, 0.08, 14), GridAxis(-2.5, 0.001, 5000)))
        profiles = range_compress(synthesize_echo(RADAR, aperture, scene), 4)
        return profiles, grid, (backproject_3d if ndim == 3 else backproject_2d)

    @staticmethod
    def pretend_cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_same_bytes_and_warning_at_any_cpu_count(self, monkeypatch, ndim):
        # the grid straddles the swath's far end, so some contributions are zeroed
        profiles, grid, backproject = self.case(ndim, self.R_U - 0.5)
        images, messages = [], []
        for cpus in (1, 2, 3, 4):
            self.pretend_cpus(monkeypatch, cpus)
            assert imaging._slab_count(grid.shape) == cpus
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                images.append(backproject(profiles, grid).values.tobytes())
            (record,) = caught
            assert record.category is RuntimeWarning
            assert record.filename == __file__  # stacklevel points at the caller
            messages.append(str(record.message))
        assert images.count(images[0]) == len(images)
        assert messages.count(messages[0]) == len(messages)
        assert "voxel contributions fell outside the swath" in messages[0]

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_grid_outside_swath_rejected_when_split(self, monkeypatch, ndim):
        profiles, grid, backproject = self.case(ndim, self.R_U + 1.0)
        self.pretend_cpus(monkeypatch, 4)
        assert imaging._slab_count(grid.shape) == 4
        with pytest.raises(ValueError, match="entirely outside the compressed swath"):
            backproject(profiles, grid)

    def test_error_in_a_worker_slab_is_raised_to_the_caller(self, monkeypatch):
        profiles, grid, backproject = self.case(2, self.R_U - 0.5)
        self.pretend_cpus(monkeypatch, 2)
        gather = imaging._gather

        def fails_off_the_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker slab failed")
            return gather(*args)

        monkeypatch.setattr(imaging, "_gather", fails_off_the_main_thread)
        with pytest.raises(RuntimeError, match="worker slab failed"):
            backproject(profiles, grid)

    def test_slab_count_limits(self, monkeypatch):
        self.pretend_cpus(monkeypatch, 8)
        assert imaging._slab_count((105, 97)) == 1  # under 2 x 16384 voxels
        assert imaging._slab_count((41, 31, 31)) == 2
        assert imaging._slab_count((3, 400, 400)) == 3  # at most one slab per range row
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert imaging._slab_count((41, 31, 31)) == 2
        assert imaging._slab_count((3, 400, 400)) == 2


class TestGatherKernel:
    """The gather gives _interpolate's samples (compared with ==)."""

    NBINS = 300

    @staticmethod
    def gather(col, idx, first, final, tables):
        """_gather's samples at idx, prepared as a slab prepares them."""
        last = len(col) - 1
        moved = np.where(idx > last, last + 1.0, idx)  # the slab moves delays past the last bin there
        whole, row = np.empty(idx.shape), np.empty(idx.shape, dtype=np.intp)
        imaging._index_parts(moved, whole, row)  # leaves the fractions in moved
        return imaging._gather(col, first, final, row, moved, tables).copy()

    def windows(self, rng):
        """Random windows with their indices: below final, or anywhere past first if final is the last bin."""
        last = self.NBINS - 1
        for k in range(60):
            first = int(rng.integers(0, last))
            final = last if k % 3 == 0 else int(rng.integers(first + 1, last + 1))
            idx = [rng.uniform(first, final, 500), np.arange(first, final, dtype=float)]  # exact integers too
            if final == last:
                idx += [[last, np.nextafter(last, np.inf), last + 0.5, np.nextafter(last + 1, 0)],  # (last, last + 1)
                        rng.uniform(last + 1, 1e6, 20), [last + 1.0, 1e300]]  # beyond the swath
            yield first, final, np.concatenate(idx).reshape(-1, 1, 1)
        yield last, last, np.array([last, last + 0.25, 1e3]).reshape(-1, 1, 1)  # a one-bin window

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_same_samples_as_np_interp(self, dtype):
        rng = np.random.default_rng(36)
        zeroed = (np.zeros(self.NBINS + 1, complex), np.zeros(self.NBINS + 1, complex))  # shared, as in a slab
        compared = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, such as a cast of a huge index
            for first, final, idx in self.windows(rng):
                col = random_column(rng, self.NBINS).astype(dtype)
                tables = zeroed + (np.empty(idx.shape, complex), np.empty(idx.shape, complex))
                expected = imaging._interpolate(col, idx, np.arange(first, final + 1, dtype=float))
                got = self.gather(col, idx, first, final, tables)
                assert np.array_equal(got, expected), (first, final)
                compared += idx.size
        assert compared > 60 * 500

    def test_tables_serve_set_after_set(self):
        # A slab rewrites one pair of tables for every set and position of its window.
        rng = np.random.default_rng(37)
        last = self.NBINS - 1
        idx = np.concatenate([rng.uniform(200, last, 400), [last, last + 0.5, 500.0]]).reshape(-1, 1, 1)
        tables = (np.zeros(last + 2, complex), np.zeros(last + 2, complex),
                  np.empty(idx.shape, complex), np.empty(idx.shape, complex))
        bins = np.arange(200, last + 1, dtype=float)
        for _ in range(3):
            col = random_column(rng, self.NBINS)
            assert np.array_equal(self.gather(col, idx, 200, last, tables), imaging._interpolate(col, idx, bins))


class TestBackprojectReference:
    """Every voxel and the out-of-swath count against brute force."""

    @staticmethod
    def case(monkeypatch, ndim, cpus, range_start, scene):
        """Profiles of scene, and a grid from range_start that slabs of two or three rows cut, one per CPU."""
        monkeypatch.setattr(imaging, "_MIN_VOXELS_PER_THREAD", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if ndim == 3:
            aperture = planar_aperture(count=3, spacing=0.05)
            grid = ImageGrid((GridAxis(range_start, 0.07, 6), GridAxis(-0.06, 0.03, 5),
                              GridAxis(-0.06, 0.03, 4)))
            backproject = backproject_3d
        else:
            aperture = linear_aperture(count=5, spacing=0.05)
            grid = grid2d(range_start, 9, -0.09, 7, spacing=0.045)
            backproject = backproject_2d
        assert imaging._slab_count(grid.shape) == cpus
        return range_compress(synthesize_echo(RADAR, aperture, scene, seed=2), 4), grid, backproject

    @staticmethod
    def brute_force(profiles, grid):
        """The image voxel by voxel, the number of its delays beyond the swath and the number in the last bin."""
        aperture = profiles.aperture
        axes = [ax.values() for ax in grid.axes]
        max_tau = profiles.tau_axis[-1]
        expected = np.zeros(grid.shape, dtype=np.complex128)
        beyond = in_last_bin = 0
        for voxel in np.ndindex(grid.shape):
            y, x = axes[0][voxel[0]], axes[1][voxel[1]]
            z = axes[2][voxel[2]] if grid.ndim == 3 else aperture.origin[2]
            for n, (px, py, pz) in enumerate(aperture.positions()):
                r = math.sqrt((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2)
                tau = 2 * r / C
                beyond += tau > max_tau
                in_last_bin += profiles.tau_axis[-2] < tau <= max_tau
                expected[voxel] += interpolate_profile(profiles, n, tau) * np.exp(4j * np.pi * RADAR.f0 * r / C)
        return expected / aperture.num_positions, beyond, in_last_bin

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_every_voxel_and_the_out_of_swath_count(self, monkeypatch, ndim, cpus):
        # Slabs of two or three rows, each with its own window of bins.  The
        # range axis straddles the swath's far end, so the last slab's window
        # ends on the last bin while the others end short of it; each
        # window's first bin holds its slab's nearest voxel.
        r_u = RADAR.unambiguous_range
        scene = Scene(targets=[PointTarget((0.01, r_u - 0.25, 0.0))],
                      interferers=[Interferer(r_u - 0.15)], noise_sigma=0.05)
        profiles, grid, backproject = self.case(monkeypatch, ndim, cpus, r_u - 0.3, scene)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            image = backproject(profiles, grid).values

        expected, beyond, in_last_bin = self.brute_force(profiles, grid)
        assert np.abs(image - expected).max() <= 1e-12 * np.abs(image).max()
        total = image.size * profiles.aperture.num_positions
        assert 0 < beyond < total and in_last_bin > 0
        (record,) = caught
        assert str(record.message) == f"{beyond} of {total} voxel contributions fell outside the swath and were zeroed"

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_delays_just_past_the_last_bin_are_zeroed(self, monkeypatch, ndim):
        # Between the last bin and the zero row past it, the slope tables
        # would hand a delay part of the last sample: the slab moves such
        # delays onto the zero row, as np.interp zeroes them.
        scene = Scene(interferers=[Interferer(RADAR.unambiguous_range - 0.05)], noise_sigma=0.05)
        profiles, _, backproject = self.case(monkeypatch, ndim, 1, 0.0, scene)
        bin_range = profiles.tau_spacing * C / 2
        far = profiles.tau_axis[-1] * C / 2  # the last bin's range
        # Two range rows on the aperture's axis: one half a bin inside the
        # last bin, one 0.3 of a bin past it.
        axes = (GridAxis(far - 0.5 * bin_range, 0.8 * bin_range, 2),) + (GridAxis(0.0, 1.0, 1),) * (ndim - 1)
        grid = ImageGrid(axes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            image = backproject(profiles, grid).values
        expected, beyond, _ = self.brute_force(profiles, grid)
        positions = profiles.aperture.num_positions
        assert beyond == positions  # every delay of the far row
        assert str(caught[0].message).startswith(f"{positions} of {2 * positions} voxel contributions")
        assert np.all(image[0] != 0) and np.all(image[1] == 0)
        assert np.abs(image - expected).max() <= 1e-12 * np.abs(image).max()

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_every_voxel_from_the_aperture_line(self, monkeypatch, ndim, cpus):
        # The range axis starts on the aperture line and one voxel sits on a
        # scan position, so the first slab's window begins at bin 0: the near
        # end of the swath, which no delay passes.
        scene = Scene(targets=[PointTarget((0.01, 0.2, 0.0))], interferers=[Interferer(0.15)], noise_sigma=0.05)
        profiles, grid, backproject = self.case(monkeypatch, ndim, cpus, 0.0, scene)
        windows = []
        gather = imaging._gather
        monkeypatch.setattr(imaging, "_gather", lambda col, first, *rest: windows.append(first)
                            or gather(col, first, *rest))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            image = backproject(profiles, grid).values
        assert caught == []
        assert 0 in windows and len(set(windows)) == cpus

        expected, beyond, _ = self.brute_force(profiles, grid)
        assert beyond == 0
        assert np.abs(image - expected).max() <= 1e-12 * np.abs(image).max()


class TestBackprojectSets:
    """One pass over several profile sets gives each set's own image."""

    R_U = RADAR.unambiguous_range

    def case(self, ndim):
        # The grid straddles the swath's far end: some contributions are zeroed.
        if ndim == 3:
            aperture = planar_aperture(count=3, spacing=0.05)
            grid = ImageGrid((GridAxis(self.R_U - 0.3, 0.07, 6), GridAxis(-0.06, 0.03, 5),
                              GridAxis(-0.06, 0.03, 4)))
        else:
            aperture = linear_aperture(count=5, spacing=0.05)
            grid = grid2d(self.R_U - 0.3, 9, -0.09, 7, spacing=0.045)
        interferers = [Interferer(self.R_U - 0.15)]
        raw = Scene(targets=[PointTarget((0.01, self.R_U - 0.25, 0.0))], interferers=interferers, noise_sigma=0.05)
        sets = [range_compress(synthesize_echo(RADAR, aperture, scene, seed=2), 4)
                for scene in (raw, Scene(interferers=interferers, noise_sigma=0.05))]
        return sets, grid, (backproject_3d if ndim == 3 else backproject_2d)

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_same_bytes_as_one_set_at_a_time_and_one_warning(self, monkeypatch, ndim, cpus):
        monkeypatch.setattr(imaging, "_MIN_VOXELS_PER_THREAD", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        (a, b), grid, backproject = self.case(ndim)
        assert imaging._slab_count(grid.shape) == cpus
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone = [backproject(p, grid).values.tobytes() for p in (a, b)]
            paired = imaging._backproject((a, b), grid)
        assert [image.values.tobytes() for image in paired] == alone
        assert alone[0] != alone[1]
        # a warning per one-set call, then one for the pair with the same count
        assert [str(w.message) for w in caught] == [str(caught[0].message)] * 3
        assert "voxel contributions fell outside the swath" in str(caught[0].message)

    def test_complex64_set_images_as_its_widening(self):
        (a, _), grid, backproject = self.case(2)
        narrow = imaging.RangeProfileSet(a.profiles.astype(np.complex64), 4, a.radar, a.aperture)
        wide = imaging.RangeProfileSet(narrow.profiles.astype(np.complex128), 4, a.radar, a.aperture)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert backproject(narrow, grid).values.tobytes() == backproject(wide, grid).values.tobytes()

    @pytest.mark.parametrize("change", ["radar", "aperture", "oversample"])
    def test_sets_must_share_geometry(self, change):
        echo = synthesize_echo(RADAR, linear_aperture(count=8), Scene(interferers=[Interferer(3.0)]))
        a = range_compress(echo, 4)
        other = {
            "radar": lambda: imaging.RangeProfileSet(a.profiles, 4, RadarParams(9.1e9, RADAR.delta_f, 128),
                                                     a.aperture),
            "aperture": lambda: imaging.RangeProfileSet(a.profiles, 4, RADAR, linear_aperture(count=8, spacing=0.02)),
            "oversample": lambda: range_compress(echo, 2),
        }[change]()
        with pytest.raises(ValueError, match="^profile sets imaged in one pass must share radar, aperture and oversample$"):
            imaging._backproject((a, other), grid2d(2.8, 5, -0.05, 5))


class TestPositionLoopMemory:
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_no_slab_sized_array_is_allocated_per_position(self, monkeypatch, ndim):
        # Traced allocations between checkpoints at the entry and exit of
        # _gather and _carrier, in one slab of 48,000 voxels away from the
        # swath's ends: both write into the slab's buffers.  Broadcasting adds
        # get numpy's iterator buffers, at most 8192 elements per operand
        # whatever the grid's size, which is why the slab holds more than
        # 16,384 voxels.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        scene = Scene(targets=[PointTarget((0.0, 3.0, 0.0))])
        if ndim == 3:
            profiles = range_compress(synthesize_echo(RADAR, planar_aperture(count=2), scene), 8)
            grid = ImageGrid((GridAxis(2.8, 0.02, 12), GridAxis(-0.2, 0.01, 40), GridAxis(-0.2, 0.01, 100)))
        else:
            profiles = range_compress(synthesize_echo(RADAR, linear_aperture(count=4), scene), 8)
            grid = grid2d(2.8, 120, -0.2, 400, spacing=0.003)
        voxels = int(np.prod(grid.shape))
        growth: dict[str, list[int]] = {}
        last = {}

        def checkpoint(name):
            current, peak = tracemalloc.get_traced_memory()
            if last:
                growth.setdefault(f"{last['name']} -> {name}", []).append(peak - last["current"])
            tracemalloc.reset_peak()
            last.update(name=name, current=current)

        gather, carrier = imaging._gather, imaging._carrier

        def traced_gather(*args):
            checkpoint("gather")
            result = gather(*args)
            checkpoint("gathered")
            return result

        def traced_carrier(*args):
            checkpoint("carrier")
            carrier(*args)
            checkpoint("carried")

        monkeypatch.setattr(imaging, "_gather", traced_gather)
        monkeypatch.setattr(imaging, "_carrier", traced_carrier)
        tracemalloc.start()
        try:
            backproject_3d(profiles, grid) if ndim == 3 else backproject_2d(profiles, grid)
        finally:
            tracemalloc.stop()
        assert set(growth) == {"gather -> gathered", "gathered -> carrier",
                               "carrier -> carried", "carried -> gather"}
        assert all(max(g) < 8 * voxels for g in growth.values())  # not one float64 slab array


class TestImageToDb:
    def row(self, values):
        """A single-row 2D image."""
        values = np.asarray(values, dtype=complex)[None, :]
        return ComplexImage(values, ImageGrid((GridAxis(0.0, 1.0, 1), GridAxis(0.0, 1.0, values.shape[1]))))

    def test_peak_is_zero_db(self):
        db = image_to_db(self.row([1j, 2.0, 0.5]), -60.0)
        assert db[0, 1] == 0.0

    def test_half_magnitude_is_minus_six_db(self):
        db = image_to_db(self.row([1.0, 0.5]), -60.0)
        assert db[0, 1] == pytest.approx(-6.0205999, abs=1e-5)

    def test_all_zero_maps_to_floor(self):
        assert np.all(image_to_db(self.row(np.zeros(4)), -60.0) == -60.0)

    def test_floor_clamps_and_validates(self):
        img = self.row([1.0, 1e-9])
        db = image_to_db(img, -60.0)
        assert db[0, 1] == -60.0
        with pytest.raises(ValueError):
            image_to_db(img, 0.0)
