import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from nfsar import suppression
from nfsar.imaging import ComplexImage, GridAxis, ImageGrid
from nfsar.suppression import (
    SolverConfig,
    _svt,
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


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rank_k(rng, n, sigmas):
    a = random_complex(rng, (n, len(sigmas)))
    b = random_complex(rng, (n, len(sigmas)))
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return (qa * np.asarray(sigmas)) @ qb.conj().T


def warm_start(i, mu, rho):
    """decompose's continuation run by hand: plain steps at weights s*mu and s*rho.

    s starts at 0.99*sigma_1/rho, sigma_1 from the eigenvalues of the smaller
    Gram matrix, and shrinks by 0.7 while it exceeds 1.  Returns the last C
    and the number of steps.
    """
    a = i if i.shape[0] <= i.shape[1] else i.T
    scale = 0.99 * math.sqrt(np.linalg.eigvalsh(a @ a.conj().T)[-1]) / rho
    c, steps = np.zeros_like(i), 0
    while scale > 1.0:
        c = update_interference(update_target(c, i, scale * mu), i, scale * rho)
        scale *= 0.7
        steps += 1
    return c, steps


def accelerated_reference(i, mu, rho, n_iter):
    """decompose's accelerated iteration run by hand through the public step functions.

    Starts from the C of warm_start.  Returns the last X and C, the trace,
    the number of restarts and, per iteration, the rank of C (singular values
    of the step matrix above the threshold) and the nonzeros of X.
    """
    x = np.zeros_like(i)
    c, _ = warm_start(i, mu, rho)
    c_prev = c
    t = 1.0
    trace, ranks, nnz = [], [], []
    restarts = 0

    def plain(c):
        x_new = update_target(c, i, mu)
        rank = int(np.count_nonzero(np.linalg.svd(i - x_new, compute_uv=False) > rho))
        c_new = update_interference(x_new, i, rho)
        return x_new, c_new, rank, objective(i, x_new, c_new, mu, rho)

    for _ in range(n_iter):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        weight = (t - 1.0) / t_next
        x_new, c_new, rank, value = plain(c + weight * (c - c_prev))
        if weight and value > trace[-1]:
            restarts += 1
            t_next = 1.0
            x_new, c_new, rank, value = plain(c)
        t = t_next
        trace.append(value)
        ranks.append(rank)
        nnz.append(int(np.count_nonzero(x_new)))
        c_prev, x, c = c, x_new, c_new
    return x, c, trace, restarts, ranks, nnz


def plain_bcd(i, mu, rho, tol, max_iter=20000):
    """The unaccelerated block coordinate descent, stopped on the relative change of its iterates."""
    x = np.zeros_like(i)
    c = np.zeros_like(i)

    def rel(new, old):
        base = np.linalg.norm(new)
        return np.linalg.norm(new - old) / base if base else 0.0

    for n in range(1, max_iter + 1):
        x_new = update_target(c, i, mu)
        c_new = update_interference(x_new, i, rho)
        change = max(rel(x_new, x), rel(c_new, c))
        x, c = x_new, c_new
        if change < tol:
            break
    return x, c, n, objective(i, x, c, mu, rho)


def low_rank_plus_spikes(rng, shape):
    """A rank-4 matrix plus 20 spikes of magnitude 0.3 to 1 plus noise.

    With mu = 0.1 and rho = 1.0 the last singular value sits just above the
    threshold and the noise just below mu: the slow regime of the plain
    iteration.
    """
    sigmas = [9.0, 4.0, 2.0, 1.05]
    qa, _ = np.linalg.qr(random_complex(rng, (shape[0], len(sigmas))))
    qb, _ = np.linalg.qr(random_complex(rng, (shape[1], len(sigmas))))
    i = (qa * np.asarray(sigmas)) @ qb.conj().T
    flat = rng.choice(shape[0] * shape[1], size=20, replace=False)
    i.flat[flat] += rng.uniform(0.3, 1.0, 20) * np.exp(2j * np.pi * rng.random(20))
    return i + 0.03 * random_complex(rng, shape)


class TestObjective:
    def test_exact_split_zero_weights(self):
        rng = np.random.default_rng(0)
        c = random_complex(rng, (4, 4))
        x = random_complex(rng, (4, 4))
        assert objective(c + x, x, c, mu=0.0, rho=0.0) == pytest.approx(0.0, abs=1e-20)

    def test_diagonal_example(self):
        i = np.zeros((2, 2))
        c = np.diag([2.0, 3.0])
        assert objective(i, np.zeros((2, 2)), c, mu=0.0, rho=1.0) == pytest.approx(11.5)

    def test_homogeneity_degrees(self):
        rng = np.random.default_rng(1)
        i = random_complex(rng, (5, 5))
        x = random_complex(rng, (5, 5))
        c = random_complex(rng, (5, 5))
        mu, rho = 0.3, 0.7
        resid1 = objective(i, x, c, 0.0, 0.0)
        pen1 = objective(i, x, c, mu, rho) - resid1
        resid2 = objective(2 * i, 2 * x, 2 * c, 0.0, 0.0)
        pen2 = objective(2 * i, 2 * x, 2 * c, mu, rho) - resid2
        assert resid2 == pytest.approx(4 * resid1)
        assert pen2 == pytest.approx(2 * pen1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            objective(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), 1.0, 1.0)
        for update in (update_target, update_interference):
            with pytest.raises(ValueError, match=f"^{update.__name__} requires matching matrix dimensions$"):
                update(np.zeros((2, 3)), np.zeros((3, 2)), 1.0)


NAN = float("nan")


@pytest.mark.parametrize("call, field", [
    (lambda m: soft_threshold_entries(m, NAN), "threshold"),
    (lambda m: singular_value_threshold(m, NAN), "threshold"),
    (lambda m: update_target(m, m, NAN), "mu"),
    (lambda m: update_interference(m, m, NAN), "rho"),
    (lambda m: objective(m, m, m, NAN, 1.0), "mu"),
    (lambda m: objective(m, m, m, 1.0, NAN), "rho"),
], ids=["soft_threshold_entries", "singular_value_threshold", "update_target", "update_interference",
        "objective-mu", "objective-rho"])
def test_nan_weight_rejected_naming_the_field(call, field):
    with pytest.raises(ValueError, match=f"^{field}: must be finite"):
        call(np.ones((2, 3), dtype=complex))


class TestSoftThreshold:
    def test_shrinks_magnitude_preserves_phase(self):
        out = soft_threshold_entries(np.array([[3 + 4j]]), 2.0)
        assert out[0, 0] == pytest.approx(1.8 + 2.4j)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(2)
        m = random_complex(rng, (3, 3))
        assert np.allclose(soft_threshold_entries(m, 0.0), m)

    def test_below_threshold_maps_to_zero(self):
        out = soft_threshold_entries(np.array([[0.5 - 0.5j, -0.0 - 0.25j, 0.0]]), 1.0)
        assert np.all(out == 0)
        assert not np.signbit(out.real).any() and not np.signbit(out.imag).any()

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 1.0, 3.0])
    def test_support_values_are_the_dense_formula(self, threshold):
        rng = np.random.default_rng(35)
        m = random_complex(rng, (13, 29))
        m[2, :5] = 0.0
        mag = np.abs(m)
        dense = (m / np.where(mag > 0, mag, 1.0)) * np.maximum(mag - threshold, 0.0)
        assert np.array_equal(soft_threshold_entries(m, threshold), dense)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold_entries(np.zeros((2, 2)), -0.1)


class TestUpdateTarget:
    def test_zero_residual_gives_zero(self):
        rng = np.random.default_rng(3)
        i = random_complex(rng, (4, 4))
        out = update_target(i, i, mu=0.5)
        assert np.allclose(out, 0.0)

    def test_reduces_to_plain_shrinkage(self):
        rng = np.random.default_rng(4)
        i = random_complex(rng, (4, 4))
        out = update_target(np.zeros((4, 4)), i, mu=0.3)
        assert np.allclose(out, soft_threshold_entries(i, 0.3))

    def test_prox_optimality_against_grid_search(self):
        # per entry, the closed form must beat a brute-force complex grid
        rng = np.random.default_rng(5)
        i = random_complex(rng, (2, 2))
        c = random_complex(rng, (2, 2), scale=0.3)
        mu = 0.4
        x = update_target(c, i, mu=mu)

        def sub_objective(xm):
            return 0.5 * np.linalg.norm(xm - (i - c)) ** 2 + mu * np.abs(xm).sum()

        best = sub_objective(x)
        grid = np.linspace(-2, 2, 41)
        for r in range(2):
            for s in range(2):
                for re in grid:
                    for im in grid:
                        trial = x.copy()
                        trial[r, s] = re + 1j * im
                        assert sub_objective(trial) >= best - 1e-12

    def test_single_entry_perturbations_never_improve(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            i = random_complex(rng, (3, 3))
            c = random_complex(rng, (3, 3), scale=0.5)
            mu = 0.3
            x = update_target(c, i, mu=mu)

            def sub_objective(xm):
                return 0.5 * np.linalg.norm(xm - (i - c)) ** 2 + mu * np.abs(xm).sum()

            base = sub_objective(x)
            for r in range(3):
                for s in range(3):
                    for delta in (1e-3, -1e-3, 1e-3j, -1e-3j):
                        trial = x.copy()
                        trial[r, s] += delta
                        assert sub_objective(trial) >= base - 1e-12


class TestSingularValueThreshold:
    def test_diagonal_example(self):
        out = singular_value_threshold(np.diag([5.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-12)

    def test_zero_threshold_reconstructs(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, (6, 4))
        out = singular_value_threshold(m, 0.0)
        assert np.linalg.norm(out - m) <= 1e-10 * np.linalg.norm(m)

    def test_singular_values_shrunk_exactly(self):
        rng = np.random.default_rng(8)
        m = random_complex(rng, (8, 5))
        t = 0.7
        sv_in = np.linalg.svd(m, compute_uv=False)
        sv_out = np.linalg.svd(singular_value_threshold(m, t), compute_uv=False)
        assert np.all(np.abs(sv_out - np.maximum(sv_in - t, 0.0)) < 1e-8)

    def test_prox_optimality_per_singular_value(self):
        # the nuclear prox separates over singular values once U, V are
        # fixed; 1D brute force per value cannot beat the closed form
        rng = np.random.default_rng(9)
        t = 0.5
        for shape in ((4, 4), (6, 4), (4, 6)):
            z = random_complex(rng, shape)
            out = singular_value_threshold(z, t)
            u, s, vh = np.linalg.svd(z, full_matrices=False)

            def sub_objective(y):
                return 0.5 * np.linalg.norm(y - z) ** 2 + t * np.linalg.svd(y, compute_uv=False).sum()

            best = sub_objective(out)
            for l in range(s.size):
                for g in np.linspace(0.0, s[l] * 1.5, 61):
                    gammas = np.maximum(s - t, 0.0)
                    gammas[l] = g
                    trial = (u * gammas) @ vh
                    assert sub_objective(trial) >= best - 1e-10

    def test_random_perturbations_never_improve(self):
        rng = np.random.default_rng(10)
        t = 0.6
        for shape in ((5, 5), (7, 5), (5, 7)):
            z = random_complex(rng, shape)
            out = singular_value_threshold(z, t)

            def sub_objective(y):
                return 0.5 * np.linalg.norm(y - z) ** 2 + t * np.linalg.svd(y, compute_uv=False).sum()

            base = sub_objective(out)
            for _ in range(100):
                e = random_complex(rng, shape)
                e /= np.linalg.norm(e)
                assert sub_objective(out + 1e-3 * e) >= base - 1e-12


def svt_by_thin_svd(m, t):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u * np.maximum(s - t, 0.0)) @ vh


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the np.linalg.svd calls made after the fixture is set up."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def svt_cases():
    rng = np.random.default_rng(30)
    deficient = random_complex(rng, (25, 3)) @ random_complex(rng, (3, 15))
    return {
        "tall": random_complex(rng, (30, 12)),
        "wide": random_complex(rng, (12, 30)),
        "square": random_complex(rng, (20, 20)),
        "rank_deficient_tall": deficient,
        "rank_deficient_wide": deficient.conj().T,
    }


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the np.linalg.eigh calls made after the fixture is set up."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def without_zheevr(monkeypatch):
    """Make _svt's LAPACK lookup find nothing, as on a numpy built on another LAPACK."""
    monkeypatch.setattr(suppression, "_lapacke_zheevr", lambda: None)


def exact_gram_matrix(sigmas, wide):
    """A dense matrix with the given singular values whose Gram matrix is exactly diagonal.

    Its rows are Hadamard rows times sigma/2 and a unit phase, so every
    product and sum forming the Gram matrix, and sigma**2, are exact.
    """
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex)
    phases = np.array([1, 1j, -1, -1j])[: len(sigmas)]
    m = np.hstack([hadamard[: len(sigmas)] * (np.asarray(sigmas) / 2 * phases)[:, None], np.zeros((len(sigmas), 3))])
    return m if wide else m.conj().T


needs_zheevr = pytest.mark.skipif(suppression._lapacke_zheevr() is None,
                                  reason="numpy's BLAS exports no LAPACKE_zheevr")


class TestSvtKernel:
    """The private one-factorization kernel behind singular_value_threshold."""

    @pytest.mark.parametrize("name", list(svt_cases()))
    @pytest.mark.parametrize("fraction", [0.05, 0.3, 1.0, 1.5])
    def test_gram_route_matches_thin_svd(self, name, fraction, svd_calls):
        m = svt_cases()[name]
        sigma = np.linalg.svd(m, compute_uv=False)
        t = fraction * sigma[0]
        expected = svt_by_thin_svd(m, t)
        svd_calls.clear()
        c, s, u, vh = _svt(m, t)
        assert svd_calls == []
        tol = 1e-12 * sigma[0]
        assert np.abs(c - expected).max() <= tol
        # the kept values are the singular values above t (up to ties with t)
        assert np.all(s > t) and np.abs(s - sigma[: s.size]).max(initial=0.0) <= tol
        assert s.size >= np.count_nonzero(sigma > t + tol)
        assert u.shape == (m.shape[0], s.size) and vh.shape == (s.size, m.shape[1])
        assert np.abs((u * (s - t)) @ vh - c).max() <= tol
        assert np.abs(u.conj().T @ u - np.eye(s.size)).max(initial=0.0) <= 1e-10
        assert np.abs(vh @ vh.conj().T - np.eye(s.size)).max(initial=0.0) <= 1e-10

    def test_zero_matrix_gives_zero(self, svd_calls):
        c, s, u, vh = _svt(np.zeros((4, 7), dtype=complex), 0.5)
        assert svd_calls == [(4, 7)]
        assert c.shape == (4, 7) and np.all(c == 0)
        assert s.size == 0 and u.shape == (4, 0) and vh.shape == (0, 7)

    @pytest.mark.parametrize("ratio", [0.0, 1e-5])
    def test_threshold_below_cutoff_takes_svd_path(self, ratio, svd_calls):
        m = svt_cases()["wide"]
        sigma1 = np.linalg.svd(m, compute_uv=False)[0]
        expected = svt_by_thin_svd(m, ratio * sigma1)
        svd_calls.clear()
        c = _svt(m, ratio * sigma1)[0]
        assert svd_calls == [m.shape]
        assert np.abs(c - expected).max() <= 1e-12 * sigma1

    def test_svd_failure_names_the_matrix_shape(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        message = "^SVD failed to converge on a 12x30 matrix: SVD did not converge$"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            _svt(svt_cases()["wide"], 0.0)  # a zero threshold takes the SVD route

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_gram_that_overflows_or_underflows_takes_svd_path(self, scale, svd_calls):
        m = svt_cases()["tall"] * scale
        sigma1 = np.linalg.svd(m, compute_uv=False)[0]
        expected = svt_by_thin_svd(m, 0.3 * sigma1)
        svd_calls.clear()
        c = _svt(m, 0.3 * sigma1)[0]
        assert svd_calls == [m.shape]
        assert np.abs(c - expected).max() <= 1e-12 * sigma1

    @needs_zheevr
    @pytest.mark.parametrize("name", list(svt_cases()))
    @pytest.mark.parametrize("fraction", [0.05, 0.3, 1.0, 1.5])
    def test_no_full_factorization_and_the_thin_svd_result(self, name, fraction, svd_calls, eigh_calls):
        m = svt_cases()[name]
        sigma = np.linalg.svd(m, compute_uv=False)
        expected = svt_by_thin_svd(m, fraction * sigma[0])
        svd_calls.clear()
        c = _svt(m, fraction * sigma[0])[0]
        assert svd_calls == [] and eigh_calls == []
        assert np.abs(c - expected).max() <= 1e-12 * sigma[0]

    @needs_zheevr
    @pytest.mark.parametrize("wide", [True, False], ids=["wide", "tall"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rank_at_a_singular_value_and_one_ulp_either_side_is_eigh_s(self, wide, k, eigh_calls, monkeypatch):
        sigmas = [3.0, 2.0, 1.5, 0.5]
        m = exact_gram_matrix(sigmas, wide)
        thresholds = [np.nextafter(sigmas[k - 1], 0.0), sigmas[k - 1], np.nextafter(sigmas[k - 1], np.inf)]
        ranks = [_svt(m, t)[1].size for t in thresholds]
        assert ranks == [k, k - 1, k - 1] and eigh_calls == []
        without_zheevr(monkeypatch)
        assert [_svt(m, t)[1].size for t in thresholds] == ranks
        assert len(eigh_calls) == 3

    @needs_zheevr
    @pytest.mark.parametrize("name", list(svt_cases()))
    @pytest.mark.parametrize("fraction", [0.05, 0.3, 0.9])
    def test_without_zheevr_eigh_gives_the_same_rank_and_result(self, name, fraction, eigh_calls, monkeypatch):
        m = svt_cases()[name]
        sigma1 = np.linalg.svd(m, compute_uv=False)[0]
        c, s, _, _ = _svt(m, fraction * sigma1)
        without_zheevr(monkeypatch)
        c_eigh, s_eigh, _, _ = _svt(m, fraction * sigma1)
        assert eigh_calls == [(min(m.shape),) * 2]
        assert s_eigh.size == s.size
        assert np.abs(c_eigh - c).max() <= 1e-12 * sigma1

    @pytest.mark.parametrize("name", list(svt_cases()))
    @pytest.mark.parametrize("factor", [1.0 + 1e-9, 1.5, 1e200])
    def test_threshold_at_or_above_sigma1_gives_zero(self, name, factor, svd_calls):
        m = svt_cases()[name]
        sigma1 = np.linalg.svd(m, compute_uv=False)[0]
        svd_calls.clear()
        c, s, u, vh = _svt(m, factor * sigma1)
        assert svd_calls == [] and s.size == 0 and not np.any(c)
        assert c.shape == m.shape and u.shape == (m.shape[0], 0) and vh.shape == (0, m.shape[1])


class TestUpdateInterference:
    def test_zero_argument_gives_zero(self):
        rng = np.random.default_rng(11)
        i = random_complex(rng, (4, 4))
        out = update_interference(i, i, rho=0.5)
        assert np.allclose(out, 0.0)

    def test_rank_one_shrinks_top_value(self):
        rng = np.random.default_rng(12)
        i = rank_k(rng, 5, [4.0])
        out = update_interference(np.zeros((5, 5)), i, rho=1.0)
        sv = np.linalg.svd(out, compute_uv=False)
        assert sv[0] == pytest.approx(3.0, abs=1e-9)
        assert sv[1] < 1e-9

    def test_large_rho_annihilates(self):
        rng = np.random.default_rng(13)
        i = random_complex(rng, (4, 4))
        rho = np.linalg.svd(i, compute_uv=False)[0] + 0.1
        out = update_interference(np.zeros((4, 4)), i, rho=rho)
        assert np.allclose(out, 0.0, atol=1e-12)


class TestDefaultParams:
    def test_diagonal_example(self):
        mu, rho = default_params(np.diag([8.0, 0.0]))
        assert rho == pytest.approx(2.0)
        assert mu == pytest.approx(2.0 / np.sqrt(2.0))

    def test_identity_example(self):
        mu, rho = default_params(np.eye(4))
        assert rho == pytest.approx(0.25)
        assert mu == pytest.approx(0.125)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(14)
        i = random_complex(rng, (6, 3))
        mu1, rho1 = default_params(i)
        mu2, rho2 = default_params(3.0 * i)
        assert mu2 == pytest.approx(3 * mu1)
        assert rho2 == pytest.approx(3 * rho1)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            default_params(np.zeros((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, complex(1.0, np.nan), np.inf], ids=["nan", "imaginary-nan", "inf"])
    def test_non_finite_input_rejected(self, value):
        i = np.ones((3, 4), dtype=complex)
        i[1, 2] = value
        with pytest.raises(ValueError, match="^default_params requires a finite, non-zero input$"):
            default_params(i)

    @pytest.mark.parametrize("shape", [(5,), (3, 4, 2)], ids=["1d", "3d"])
    def test_non_matrix_rejected_by_its_rank(self, shape):
        with pytest.raises(ValueError, match=f"^default_params expects a 2D matrix, got {len(shape)} dimensions$"):
            default_params(np.ones(shape))

    @pytest.mark.parametrize("shape", [(30, 40), (40, 30)], ids=["wide", "tall"])
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e160, 1e200, 2.0**-600])
    def test_sigma_1_is_the_svd_s_at_any_scale_and_the_weights_are_decompose_s(self, shape, scale):
        # Unscaled, the Gram matrix of the smallest inputs underflows and that of the largest overflows.
        i = scale * random_complex(np.random.default_rng(17), shape)
        mu, rho = default_params(i)
        assert rho == pytest.approx(np.linalg.svd(i, compute_uv=False)[0] / 4.0, rel=1e-13, abs=0.0)
        assert mu == rho / math.sqrt(40)
        res = decompose(i, SolverConfig())
        assert (res.mu, res.rho) == (mu, rho)


class TestDecompose:
    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(mu=0.05, rho=1.0, auto_weights=False)],
                             ids=["auto-weights", "fixed-weights"])
    def test_sigma_1_is_computed_once_and_by_no_svd(self, config, svd_calls, monkeypatch):
        i = random_complex(np.random.default_rng(18), (30, 40))
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(np.shape(a)) or eigvalsh(a, *args))
        res = decompose(i, config)
        assert res.converged and res.warm_steps > 0
        assert calls == [(30, 30)]
        assert svd_calls == []

    def test_zero_input_converges_immediately(self):
        res = decompose(np.zeros((4, 4), dtype=complex))
        assert res.iterations_run == 1
        assert res.converged
        assert np.all(res.target == 0) and np.all(res.interference == 0)

    def test_rank_one_plus_spike_recovery(self):
        rng = np.random.default_rng(15)
        n = 32
        low = rank_k(rng, n, [10.0])
        spike_pos = (7, 21)
        spikes = np.zeros((n, n), dtype=complex)
        spikes[spike_pos] = 5.0 * np.exp(0.3j)
        res = decompose(low + spikes, SolverConfig(auto_weights=True))
        assert np.unravel_index(np.argmax(np.abs(res.target)), (n, n)) == spike_pos
        sv = np.linalg.svd(res.interference, compute_uv=False)
        assert sv[1] / sv[0] < 0.05

    def test_pure_low_rank_with_generous_mu_empties_sparse_part(self):
        rng = np.random.default_rng(16)
        low = rank_k(rng, 16, [5.0, 2.0])
        mu_hat = 1.0
        res = decompose(low, SolverConfig(mu=mu_hat, rho=0.5, auto_weights=False))
        assert np.max(np.abs(res.target)) <= mu_hat

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            i = random_complex(rng, (16, 16))
            res = decompose(i, SolverConfig(max_iter=60))
            trace = np.array(res.objective_trace)
            assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10) + 1e-10)

    def test_consistency_and_residual_reported(self):
        rng = np.random.default_rng(18)
        i = random_complex(rng, (8, 8))
        res = decompose(i, SolverConfig(max_iter=40))
        resid = i - res.target - res.interference
        assert np.isfinite(res.residual_norm)
        assert res.residual_norm == pytest.approx(np.linalg.norm(resid))

    def test_fixed_point_terminates_in_one_iteration(self):
        i = np.zeros((4, 4), dtype=complex)
        i[0, 0] = 3.0
        i[2, 3] = -2.0j
        mu, rho = 0.5, 10.0
        x_star = soft_threshold_entries(i, mu)
        cfg = SolverConfig(mu=mu, rho=rho, auto_weights=False)
        res = decompose(i, cfg)
        # rho exceeds every singular value, so the first iteration lands on the
        # fixed point X = soft(I, mu), C = 0, where the duality gap is 0.
        assert res.iterations_run == 1
        assert res.converged
        assert res.rel_gap == [pytest.approx(0.0, abs=1e-15)]
        assert np.array_equal(res.target, x_star)
        assert not np.any(res.interference)

    def test_one_iteration_is_the_first_target_step(self):
        # The first step has momentum weight 0: it starts from the warm C and reads no earlier iterate.
        i = low_rank_plus_spikes(np.random.default_rng(31), (12, 40))
        res = decompose(i, SolverConfig(mu=0.1, rho=1.0, auto_weights=False, max_iter=1))
        assert res.iterations_run == 1 and not res.converged
        assert len(res.objective_trace) == len(res.rank_c) == len(res.nnz_x) == len(res.rel_gap) == 1
        c_warm, steps = warm_start(i, 0.1, 1.0)
        assert res.warm_steps == steps > 0
        expected = update_target(c_warm, i, 0.1)
        assert np.abs(res.target - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_target_and_trace_are_the_iteration_and_rank_is_the_last_svt(self):
        rng = np.random.default_rng(21)
        i = rank_k(rng, 20, [8.0, 3.0]) + soft_threshold_entries(random_complex(rng, (20, 20)), 2.0)
        mu, rho, n_iter = 0.3, 1.5, 12
        res = decompose(i, SolverConfig(mu=mu, rho=rho, auto_weights=False, max_iter=n_iter, tol=1e-300))
        x, c, trace, restarts, _, _ = accelerated_reference(i, mu, rho, n_iter)
        assert res.iterations_run == n_iter and not res.converged
        assert res.restarts == restarts
        assert np.array_equal(res.target, x)
        assert res.objective_trace == pytest.approx(trace, rel=1e-12, abs=0)

        def rank(m):
            sv = np.linalg.svd(m, compute_uv=False)
            return int(np.count_nonzero(sv > 1e-9 * sv[0]))

        assert rank(c) == 2
        assert rank(res.interference) == rank(c)

    @pytest.mark.parametrize("shape", [(24, 10), (10, 24)])
    def test_trace_is_the_objective_of_each_iterate(self, shape):
        rng = np.random.default_rng(24)
        low = random_complex(rng, (shape[0], 2)) @ random_complex(rng, (2, shape[1]))
        i = low + soft_threshold_entries(random_complex(rng, shape), 2.0)
        mu, rho, n_iter = 0.3, 1.5, 15
        res = decompose(i, SolverConfig(mu=mu, rho=rho, auto_weights=False, max_iter=n_iter, tol=1e-300))
        x, _, trace, _, _, _ = accelerated_reference(i, mu, rho, n_iter)
        for k in range(n_iter):
            assert res.objective_trace[k] == pytest.approx(trace[k], rel=1e-12, abs=0)
        assert np.array_equal(res.target, x)

    def test_restarts_rank_and_nonzeros_are_the_hand_count(self):
        # 30 iterations stop short of convergence, where the objective stalls
        # at rounding level and restart decisions would follow the rounding.
        rng = np.random.default_rng(27)
        i = low_rank_plus_spikes(rng, (12, 40))
        mu, rho, n_iter = 0.1, 1.0, 30
        res = decompose(i, SolverConfig(mu=mu, rho=rho, auto_weights=False, max_iter=n_iter, tol=1e-300))
        _, _, trace, restarts, ranks, nnz = accelerated_reference(i, mu, rho, n_iter)
        assert restarts > 0
        assert res.restarts == restarts
        assert res.rank_c == ranks
        assert res.nnz_x == nnz
        assert len(res.rank_c) == len(res.nnz_x) == len(res.objective_trace) == n_iter

    def test_rounding_noise_at_a_stalled_objective_is_no_restart(self):
        # Past about iteration 50 the objective stalls and successive values
        # differ by a few ulps either way.  The hand-run loop restarts on
        # every such rise; decompose does not restart more often than it.
        rng = np.random.default_rng(27)
        i = low_rank_plus_spikes(rng, (12, 40))
        mu, rho, n_iter = 0.1, 1.0, 60
        res = decompose(i, SolverConfig(mu=mu, rho=rho, auto_weights=False, max_iter=n_iter, tol=1e-300))
        _, _, _, restarts, _, _ = accelerated_reference(i, mu, rho, n_iter)
        assert res.restarts <= restarts
        trace = res.objective_trace
        assert all(b <= a + 8 * math.ulp(a) for a, b in zip(trace, trace[1:]))

    def test_solution_is_the_long_plain_runs(self):
        rng = np.random.default_rng(28)
        i = low_rank_plus_spikes(rng, (12, 40))
        mu, rho = 0.1, 1.0
        res = decompose(i, SolverConfig(mu=mu, rho=rho, auto_weights=False))
        assert res.converged
        x_ref, _, _, _ = plain_bcd(i, mu, rho, tol=1e-12)
        x_max = np.abs(x_ref).max()
        assert np.abs(res.target - x_ref).max() <= 1e-5 * x_max
        assert np.array_equal(res.target != 0, x_ref != 0)
        _, _, _, plain_objective = plain_bcd(i, mu, rho, tol=SolverConfig().tol)
        assert res.objective_trace[-1] <= plain_objective

    def test_extrapolated_step_that_repeats_the_iterate_is_not_convergence(self):
        # Here, after 4 warm steps, X empties at iteration 5 and the extrapolated
        # step 6 gives X = 0 again, so C and X repeat exactly; the optimum has 2 nonzeros.
        rng = np.random.default_rng(196)
        i = random_complex(rng, (7, 1)) @ random_complex(rng, (1, 8)) + random_complex(rng, (7, 8), scale=0.3)
        res = decompose(i)
        assert res.warm_steps == 4
        assert res.nnz_x[4:6] == [0, 0]
        x_ref, _, _, p_star = plain_bcd(i, res.mu, res.rho, tol=1e-12)
        assert np.count_nonzero(x_ref) == 2
        assert np.array_equal(res.target != 0, x_ref != 0)
        # The certificate's bound: the stop's objective is within tol of the minimum.
        p_final = res.objective_trace[-1]
        assert res.converged and p_final - p_star <= SolverConfig().tol * p_final

    @pytest.mark.parametrize("shape", [(12, 40), (40, 12)])
    def test_rel_gap_is_the_independent_gap(self, shape):
        rng = np.random.default_rng(30)
        i = low_rank_plus_spikes(rng, shape)
        mu, rho = 0.1, 1.0
        res = decompose(i, SolverConfig(mu=mu, rho=rho, auto_weights=False))
        assert res.converged and len(res.rel_gap) == res.iterations_run
        # From X alone: C = SVT(I - X) by a full SVD, then the objective and the dual value at theta*R.
        x = res.target
        u, s, vh = np.linalg.svd(i - x, full_matrices=False)
        shrunk = np.maximum(s - rho, 0.0)
        r = i - x - (u * shrunk) @ vh
        p = 0.5 * np.linalg.norm(r) ** 2 + rho * shrunk.sum() + mu * np.abs(x).sum()
        theta = min(1.0, mu / np.abs(r).max())
        assert np.linalg.norm(theta * r, 2) <= rho * (1 + 1e-12) and np.abs(theta * r).max() <= mu * (1 + 1e-15)
        dual = theta * np.vdot(r, i).real - 0.5 * theta**2 * np.linalg.norm(r) ** 2
        assert (p - dual) / p == pytest.approx(res.rel_gap[-1], abs=1e-9)
        assert p - dual >= -1e-12
        assert res.rel_gap[-1] <= SolverConfig().tol

    def test_rel_gap_is_never_negative(self, tmp_path):
        # pipeline2d's CLI image at seed 3 under the default config stops after
        # one step with X = 0, where the gap is pure rounding: -1.65e-16 unfloored.
        from nfsar import cli_io

        config = cli_io.load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "pipeline2d.json")
        config = dataclasses.replace(config, seed=3, output_dir=str(tmp_path))
        cli_io.run_pipeline(config, ["simulate", "compress", "image"])
        image, _ = cli_io.read_array(tmp_path / cli_io.IMAGE_FILE)
        res = decompose(image, SolverConfig())
        assert res.converged and res.rel_gap == [0.0]

    def test_stop_at_max_iter_is_not_converged_and_reports_its_gap(self):
        rng = np.random.default_rng(28)
        i = low_rank_plus_spikes(rng, (12, 40))
        cfg = SolverConfig(mu=0.1, rho=1.0, auto_weights=False, max_iter=5)
        res = decompose(i, cfg)
        assert res.iterations_run == 5 and not res.converged
        assert len(res.rel_gap) == 5 and res.rel_gap[-1] > cfg.tol

    def test_needs_at_most_half_the_plain_iterations(self):
        rng = np.random.default_rng(29)
        i = low_rank_plus_spikes(rng, (12, 40))
        mu, rho = 0.1, 1.0
        res = decompose(i, SolverConfig(mu=mu, rho=rho, auto_weights=False))
        assert res.converged
        _, _, plain_iterations, _ = plain_bcd(i, mu, rho, tol=SolverConfig().tol)
        assert res.iterations_run <= plain_iterations / 2

    @pytest.mark.parametrize("scale", [1e-170, 1e-100, 1e100, 1e160])
    def test_scaled_input_and_weights_scale_the_split(self, scale):
        rng = np.random.default_rng(25)
        i = rank_k(rng, 16, [6.0, 2.0]) + soft_threshold_entries(random_complex(rng, (16, 16)), 1.5)
        i = i[:, :12]
        mu, rho = 0.2, 1.0
        cfg = SolverConfig(mu=mu, rho=rho, auto_weights=False, max_iter=200)
        base = decompose(i, cfg)
        scaled = decompose(scale * i, SolverConfig(mu=scale * mu, rho=scale * rho, auto_weights=False,
                                                   max_iter=200))
        assert scaled.iterations_run == base.iterations_run
        x_max = np.abs(base.target).max()
        assert np.abs(scaled.target / scale - base.target).max() <= 1e-12 * x_max
        c_max = np.abs(base.interference).max()
        assert np.abs(scaled.interference / scale - base.interference).max() <= 1e-12 * c_max

    def test_low_rank_part_refits_singular_values_of_residual(self):
        rng = np.random.default_rng(22)
        low = rank_k(rng, 24, [9.0, 4.0])
        spikes = np.zeros((24, 24), dtype=complex)
        spikes[3, 17] = 6.0j
        spikes[20, 5] = -5.0
        i = low + spikes
        res = decompose(i, SolverConfig(auto_weights=True))
        sv_c = np.linalg.svd(res.interference, compute_uv=False)
        r = int(np.count_nonzero(sv_c > 1e-9 * sv_c[0]))
        assert r == 2
        sv_resid = np.linalg.svd(i - res.target, compute_uv=False)
        assert np.all(np.abs(sv_c[:r] - sv_resid[:r]) < 1e-10)

    def test_svt_keeping_nothing_returns_zero_low_rank_part(self):
        rng = np.random.default_rng(23)
        i = random_complex(rng, (6, 9))
        sigma1 = np.linalg.svd(i, compute_uv=False)[0]
        res = decompose(i, SolverConfig(mu=0.1, rho=2.0 * sigma1, auto_weights=False))
        assert np.all(res.interference == 0)
        assert res.residual_norm == pytest.approx(np.linalg.norm(i - res.target))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            decompose(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="auto_weights"):
            decompose(np.eye(2), SolverConfig(auto_weights=False))
        with pytest.raises(ValueError):
            decompose(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)

    def test_non_finite_iterate_raises(self, monkeypatch):
        svt = suppression._svt

        def nan_svt(m, threshold):
            c, s, u, vh = svt(m, threshold)
            c[0, 0] = np.nan
            return c, s, u, vh

        monkeypatch.setattr(suppression, "_svt", nan_svt)
        rng = np.random.default_rng(29)
        with pytest.raises(RuntimeError, match="^non-finite iterate at iteration 1$"):
            decompose(low_rank_plus_spikes(rng, (12, 40)), SolverConfig(mu=0.1, rho=1.0, auto_weights=False))


class TestWarmStart:
    @pytest.mark.parametrize("rho, steps", [(0.1, 13), (1.0, 7), (2.0, 5), (4.0, 3)])
    def test_step_count_is_the_schedule_on_a_known_sigma1(self, rho, steps):
        # sigma_1 = 10; at rho = 1, s takes 9.9, 6.93, 4.85, 3.40, 2.38, 1.66, 1.16 and stops at 0.82.
        i = rank_k(np.random.default_rng(40), 12, [10.0, 3.0, 1.0])
        res = decompose(i, SolverConfig(mu=0.05, rho=rho, auto_weights=False))
        assert res.warm_steps == warm_start(i, 0.05, rho)[1] == steps
        assert res.converged and len(res.objective_trace) == res.iterations_run

    @pytest.mark.parametrize("factor", [(1 + 1e-12) / 0.99, 1.5, 4.0])
    def test_rho_at_or_above_sigma1_over_0_99_starts_from_zero(self, factor):
        i = low_rank_plus_spikes(np.random.default_rng(41), (12, 40))
        mu, rho = 0.1, factor * np.linalg.svd(i, compute_uv=False)[0]
        c_warm, steps = warm_start(i, mu, rho)
        assert steps == 0 and not np.any(c_warm)
        res = decompose(i, SolverConfig(mu=mu, rho=rho, auto_weights=False, max_iter=3, tol=1e-300))
        x, _, trace, restarts, ranks, nnz = accelerated_reference(i, mu, rho, res.iterations_run)
        assert res.warm_steps == 0
        assert np.array_equal(res.target, x)
        assert res.objective_trace == pytest.approx(trace, rel=1e-12, abs=0)
        assert (res.restarts, res.rank_c, res.nnz_x) == (restarts, ranks, nnz)

    @pytest.mark.parametrize("shape", [(5, 7), (7, 5), (0, 3)])
    @pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(mu=0.1, rho=1.0, auto_weights=False)])
    def test_zero_input_takes_no_warm_step(self, cfg, shape):
        res = decompose(np.zeros(shape, dtype=complex), cfg)
        assert res.warm_steps == 0 and res.iterations_run == 1 and res.converged

    def test_max_iter_counts_only_the_traced_iterations(self):
        i = low_rank_plus_spikes(np.random.default_rng(28), (12, 40))
        res = decompose(i, SolverConfig(mu=0.1, rho=1.0, auto_weights=False, max_iter=5))
        assert res.warm_steps == warm_start(i, 0.1, 1.0)[1] > 0
        assert res.iterations_run == 5 and not res.converged
        assert len(res.objective_trace) == len(res.rank_c) == len(res.nnz_x) == len(res.rel_gap) == 5


def volume_grid(p, q, o):
    return ImageGrid((GridAxis(0.0, 1.0, p), GridAxis(0.0, 1.0, q), GridAxis(0.0, 1.0, o)))


class TestMatricize:
    def test_known_layout(self):
        vol = ComplexImage(np.arange(1, 9, dtype=complex).reshape(2, 2, 2), volume_grid(2, 2, 2))
        m = matricize_3d(vol)
        assert np.array_equal(m, np.array([[1, 3, 2, 4], [5, 7, 6, 8]], dtype=complex))
        back = dematricize_3d(m, vol.grid)
        assert np.array_equal(back.values, vol.values)

    def test_round_trip_random(self):
        rng = np.random.default_rng(20)
        vol = ComplexImage(random_complex(rng, (3, 4, 5)), volume_grid(3, 4, 5))
        assert np.array_equal(dematricize_3d(matricize_3d(vol), vol.grid).values, vol.values)

    def test_constant_plates_unfold_rank_one(self):
        rng = np.random.default_rng(21)
        profile = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        vol = np.broadcast_to(profile[:, None, None], (6, 5, 4)).copy()
        image = ComplexImage(vol, volume_grid(6, 5, 4))
        sv = np.linalg.svd(matricize_3d(image), compute_uv=False)
        assert sv[1] / sv[0] < 1e-12

    def test_2d_image_unfolds_to_itself_and_refolds_exactly(self):
        rng = np.random.default_rng(23)
        img = ComplexImage(random_complex(rng, (4, 3)), ImageGrid((GridAxis(0, 1, 4), GridAxis(0, 1, 3))))
        m = matricize_3d(img)
        assert m.shape == (4, 3) and m.tobytes() == img.values.tobytes()
        back = dematricize_3d(m, img.grid)
        assert back.grid == img.grid and back.values.tobytes() == img.values.tobytes()

    def test_refold_checks_the_shape(self):
        with pytest.raises(ValueError, match="does not match grid"):
            dematricize_3d(np.zeros((4, 6), dtype=complex), volume_grid(4, 3, 3))


class TestDecomposeVolume:
    def test_whole_and_per_slice_modes(self):
        rng = np.random.default_rng(22)
        profile = np.zeros(8, dtype=complex)
        profile[3] = 4.0
        plates = np.broadcast_to(profile[:, None, None], (8, 6, 5)).copy()
        spikes = np.zeros_like(plates)
        spikes[5, 2, 2] = 2.0
        vol = ComplexImage(plates + spikes, volume_grid(8, 6, 5))
        cfg = SolverConfig(mu=0.5, rho=1.0, auto_weights=False)
        x_whole, c_whole, info = decompose_volume(vol, cfg)
        assert len(info) == 1
        assert np.abs(x_whole.values[5, 2, 2]) > 1.0
        assert np.abs(c_whole.values[3]).mean() > 1.0
        cfg_slice = SolverConfig(mu=0.5, rho=1.0, auto_weights=False, per_slice_3d=True)
        x_slice, _, info_slice = decompose_volume(vol, cfg_slice)
        assert len(info_slice) == 5
        assert np.abs(x_slice.values[5, 2, 2]) > 1.0


class TestDecomposeImage:
    cfg = SolverConfig(mu=0.3, rho=1.5, auto_weights=False, max_iter=40)

    @pytest.mark.parametrize("per_slice", [False, True], ids=["whole", "per-slice"])
    def test_2d_image_is_decompose(self, per_slice):
        rng = np.random.default_rng(31)
        grid = ImageGrid((GridAxis(0.0, 1.0, 9), GridAxis(0.0, 1.0, 6)))
        img = ComplexImage(random_complex(rng, (9, 6)), grid)
        cfg = dataclasses.replace(self.cfg, per_slice_3d=per_slice)
        x, c, (res,) = decompose_image(img, cfg)
        ref = decompose(img.values, cfg)
        assert x.grid == grid and c.grid == grid
        assert x.values.tobytes() == ref.target.tobytes()
        assert c.values.tobytes() == ref.interference.tobytes()
        assert res.objective_trace == ref.objective_trace

    def test_3d_volume_whole_is_the_matricized_decompose(self):
        rng = np.random.default_rng(32)
        vol = ComplexImage(random_complex(rng, (7, 5, 4)), volume_grid(7, 5, 4))
        x, c, (res,) = decompose_image(vol, self.cfg)
        ref = decompose(matricize_3d(vol), self.cfg)
        assert x.values.tobytes() == dematricize_3d(ref.target, vol.grid).values.tobytes()
        assert c.values.tobytes() == dematricize_3d(ref.interference, vol.grid).values.tobytes()
        assert res.objective_trace == ref.objective_trace

    def test_3d_volume_per_slice_is_a_slice_loop(self):
        rng = np.random.default_rng(33)
        vol = ComplexImage(random_complex(rng, (7, 5, 4)), volume_grid(7, 5, 4))
        cfg = SolverConfig(mu=0.3, rho=1.5, auto_weights=False, max_iter=40, per_slice_3d=True)
        x, c, results = decompose_image(vol, cfg)
        assert len(results) == 4
        for o, res in enumerate(results):
            ref = decompose(vol.values[:, :, o], cfg)
            assert x.values[:, :, o].tobytes() == ref.target.tobytes()
            assert c.values[:, :, o].tobytes() == ref.interference.tobytes()
            assert res.objective_trace == ref.objective_trace

    def test_other_ranks_rejected(self):
        with pytest.raises(ValueError, match="3D volume"):
            decompose_volume(ComplexImage(np.ones((3, 3), dtype=complex),
                                          ImageGrid((GridAxis(0.0, 1.0, 3), GridAxis(0.0, 1.0, 3)))))
