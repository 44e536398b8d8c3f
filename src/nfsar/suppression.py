"""Sparse-plus-low-rank decomposition of interfered images.

An interfered image is split as I ~ X + C by minimizing

    0.5 * ||I - C - X||_F^2  +  rho * ||C||_*  +  mu * ||X||_1

Point-like targets end up in the sparse part X, comb-pattern interference
(stripes, plates) in the low-rank part C.

One plain step updates X by entrywise complex soft thresholding and then C
by singular value thresholding.  With unit step sizes it is proximal
gradient with step 1 on C alone: the objective in C is rho*||C||_* plus the
Moreau envelope of mu*||.||_1 at I - C, whose gradient is 1-Lipschitz.  The
solver therefore accelerates it as FISTA does (Beck & Teboulle): each step
starts from C extrapolated along its last move, with the momentum weight of
the t_k sequence.  A step whose objective exceeds the previous one is thrown
away, the momentum is reset, and the plain step is taken from the current
iterates instead (a monotone restart, after Beck & Teboulle's MFISTA and
O'Donoghue & Candes' adaptive restart).  The plain step never raises the
objective, so the trace never increases.

The convex problem selects the model and least squares estimates it: X and
the objective trace are those of the iteration, while the returned C keeps
the rank and singular subspaces of the last thresholding step and refits
its singular values to I - X by least squares.  Soft thresholding alone
would leave every retained singular value biased down by the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import ComplexImage, ImageGrid


@dataclass
class SolverConfig:
    """Weights, step sizes and stopping rule for the decomposition."""

    mu: float | None = None  # sparsity weight; None -> derived when auto_weights
    rho: float | None = None  # low-rank weight; None -> derived when auto_weights
    alpha: float = 1.0  # sparse-step size in (0, 1]
    beta: float = 1.0  # low-rank-step size in (0, 1]
    max_iter: int = 500
    tol: float = 1e-6  # relative iterate-change stopping threshold
    auto_weights: bool = True
    per_slice_3d: bool = False  # decompose each height slice separately

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha: must lie in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta: must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter: must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol: must be > 0")
        if self.mu is not None and self.mu < 0:
            raise ValueError("mu: must be >= 0")
        if self.rho is not None and self.rho < 0:
            raise ValueError("rho: must be >= 0")
        if not self.auto_weights and (self.mu is None or self.rho is None):
            raise ValueError("auto_weights: mu and rho must both be set when auto_weights is false")


@dataclass
class DecompositionResult:
    """Recovered sparse target part X and low-rank interference part C.

    target and objective_trace belong to the accelerated iteration, one
    trace entry per accepted iterate, in the input's units (an entry that
    overflows there is inf).  interference is that solution's rank-r part,
    on the singular subspaces the last thresholding step kept, with its
    singular values refit to I - X by least squares.  restarts counts the
    extrapolated steps thrown away; rank_c and nnz_x give, per iteration,
    the rank of C and the number of nonzero entries of X.
    """

    target: np.ndarray
    interference: np.ndarray
    objective_trace: list[float]
    iterations_run: int
    converged: bool
    mu: float
    rho: float
    residual_norm: float  # ||I - X - C||_F for the returned X and C
    restarts: int
    rank_c: list[int]
    nnz_x: list[int]


def objective(interfered, target, interference, mu: float, rho: float) -> float:
    """0.5*||I - C - X||_F^2 + rho*||C||_* + mu*||X||_1 for complex matrices."""
    i_mat = np.asarray(interfered)
    x_mat = np.asarray(target)
    c_mat = np.asarray(interference)
    if not (i_mat.shape == x_mat.shape == c_mat.shape):
        raise ValueError("objective requires matching matrix dimensions")
    return _objective_value(i_mat, x_mat, c_mat, mu, rho, np.sum(np.linalg.svd(c_mat, compute_uv=False)))


def _objective_value(i_mat, x, c, mu: float, rho: float, nuclear: float) -> float:
    """The objective with ||C||_* supplied by the caller."""
    resid = 0.5 * np.linalg.norm(i_mat - c - x) ** 2
    l1 = np.sum(np.abs(x))
    return float(resid + rho * nuclear + mu * l1)


def soft_threshold_entries(matrix, threshold: float) -> np.ndarray:
    """Complex entrywise shrinkage v -> (v/|v|) * max(|v| - threshold, 0)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    m = np.asarray(matrix, dtype=np.complex128)
    mag = np.abs(m)
    keep = mag > threshold
    # Only the support (under 1% of entries in the solver's X) is computed;
    # in place, so the work arrays are one complex and one real matrix.
    out = np.zeros_like(m)
    np.divide(m, mag, out=out, where=keep)
    np.multiply(out, np.subtract(mag, threshold, out=mag), out=out, where=keep)
    return out


def update_target(target_prev, interference_prev, interfered, alpha: float, mu: float) -> np.ndarray:
    """Sparse-part step: shrink X + alpha*(I - C - X) by alpha*mu.

    With alpha = 1 this is the exact proximal map of mu*||.||_1 at I - C.
    """
    x = np.asarray(target_prev)
    c = np.asarray(interference_prev)
    i_mat = np.asarray(interfered)
    if not (x.shape == c.shape == i_mat.shape):
        raise ValueError("update_target requires matching matrix dimensions")
    return soft_threshold_entries(x + alpha * (i_mat - c - x), alpha * mu)


def singular_value_threshold(matrix, threshold: float) -> np.ndarray:
    """Shrink the singular values of a complex matrix by threshold.

    Replaces each singular value s with max(s - threshold, 0) and
    reconstructs; this is the proximal map of the nuclear norm.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return _svt(np.asarray(matrix, dtype=np.complex128), threshold)[0]


# The Gram route squares the singular values, so a kept value s_k > t carries
# an error of about eps*sigma_1**2/(2*s_k) <= eps*sigma_1/(2*t): about
# 1e-12*sigma_1 at this ratio of t to sigma_1.  Below it the SVD is used.
_GRAM_MIN_THRESHOLD_RATIO = 1e-4


def _svt(m: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Singular value thresholding of a complex128 matrix by one factorization.

    Returns (C, s, u, vh): the shrunk matrix, the singular values of m above
    threshold (descending) and their left and right singular vectors, so
    that C = (u * (s - threshold)) @ vh.

    Works on A = m or its conjugate transpose, whichever has fewer rows, by
    the eigendecomposition of the small Gram matrix A A^H.  Falls back to the
    thin SVD of m when the threshold is too small for the Gram route's
    accuracy, or when the Gram matrix overflows, underflows or is zero.
    """
    wide = m.shape[0] <= m.shape[1]
    a = m if wide else m.conj().T
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        gram = a @ a.conj().T
    if gram.size and np.isfinite(gram).all():
        w, q = np.linalg.eigh(gram)
        if w[-1] >= np.finfo(float).tiny and threshold >= _GRAM_MIN_THRESHOLD_RATIO * np.sqrt(w[-1]):
            s = np.sqrt(np.maximum(w[::-1], 0.0))
            r = int(np.count_nonzero(s > threshold))
            s, u = s[:r], q[:, ::-1][:, :r]
            vh = (u.conj().T @ a) / s[:, None]  # A = u diag(s) vh on the kept directions
            if not wide:  # m = A^H
                u, vh = vh.conj().T, u.conj().T
            return (u * (s - threshold)) @ vh, s, u, vh
    u, s, vh = _thin_svd(m)
    r = int(np.count_nonzero(s > threshold))
    u, s, vh = u[:, :r], s[:r], vh[:r]
    return (u * (s - threshold)) @ vh, s, u, vh


def _thin_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed to converge on a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc


def update_interference(interference_prev, target_new, interfered, beta: float, rho: float) -> np.ndarray:
    """Low-rank-part step: singular-value-shrink C + beta*(I - C - X) by beta*rho."""
    c = np.asarray(interference_prev)
    x = np.asarray(target_new)
    i_mat = np.asarray(interfered)
    if not (x.shape == c.shape == i_mat.shape):
        raise ValueError("update_interference requires matching matrix dimensions")
    return singular_value_threshold(_interference_step_point(c, x, i_mat, beta), beta * rho)


def _interference_step_point(c, x, i_mat, beta: float) -> np.ndarray:
    """The matrix whose singular values the low-rank step shrinks."""
    return c + beta * (i_mat - c - x)


def _refit_interference(u, vh, x, i_mat) -> np.ndarray:
    """Least-squares refit of the last low-rank step's output.

    u and vh are the singular vectors that step kept.  Each shrunk singular
    value is replaced by the least-squares coefficient u_k^H (I - X) v_k of
    I - X on that direction.  With beta = 1 the coefficients are the
    unshrunk singular values of I - X.  Returns zero when the step retained
    nothing.
    """
    coeffs = np.sum(u.conj() * ((i_mat - x) @ vh.conj().T), axis=0)
    return (u * coeffs) @ vh


def default_params(interfered) -> tuple[float, float]:
    """Input-scaled weights: rho = sigma_1/4, mu = rho/sqrt(max dimension)."""
    i_mat = np.asarray(interfered)
    if not np.any(i_mat):
        raise ValueError("default_params requires a non-zero input")
    sigma1 = float(np.linalg.svd(i_mat, compute_uv=False)[0])
    rho = sigma1 / 4.0
    mu = rho / np.sqrt(max(i_mat.shape))
    return mu, rho


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    diff = float(np.linalg.norm(new - old))
    base = float(np.linalg.norm(new))
    if base == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return diff / base


def _times_power_of_two(a: np.ndarray, exponent: int, out: np.ndarray) -> np.ndarray:
    """out = a * 2**exponent for complex arrays, exact unless a result is subnormal."""
    np.ldexp(a.real, exponent, out=out.real)
    np.ldexp(a.imag, exponent, out=out.imag)
    return out


def decompose(interfered, config: SolverConfig | None = None) -> DecompositionResult:
    """Run the accelerated proximal iteration from X = C = 0.

    Each iteration extrapolates Y = C + ((t_{k-1} - 1)/t_k)(C - C_prev),
    with t_0 = 1 and t_k = (1 + sqrt(1 + 4 t_{k-1}^2))/2, then takes
    X = update_target(X, Y, I, alpha, mu) and C = SVT(Y + beta(I - Y - X),
    beta*rho).  If that step's objective exceeds the previous iterate's, it
    is discarded, t_k is reset to 1 and the plain step from the current X
    and C is taken instead; the plain step does not raise the objective at
    any step sizes in (0, 1], so the trace is non-increasing.

    The iteration runs on I divided by the power of two next above its
    largest component, with mu and rho divided alike, which is exact in
    binary floating point.  The objectives it compares therefore neither
    overflow nor underflow, and its decisions do not depend on the input's
    scale.  X, C, residual_norm and the trace are scaled back.

    Stops when the relative change of both iterates drops below config.tol
    (after an extrapolated step, C must also lie within tol of Y, the point
    the step started from) or after config.max_iter iterations.  The
    returned target and objective trace are the iteration's; the returned
    interference is the last low-rank step with its retained singular
    values refit by least squares, and residual_norm is measured against it.
    """
    cfg = config if config is not None else SolverConfig()
    i_mat = np.asarray(interfered, dtype=np.complex128)
    if i_mat.ndim != 2:
        raise ValueError("decompose expects a 2D matrix; unfold volumes first")
    if not np.all(np.isfinite(i_mat.real)) or not np.all(np.isfinite(i_mat.imag)):
        raise ValueError("decompose requires finite input")

    mu, rho = cfg.mu, cfg.rho
    if mu is None or rho is None:  # auto_weights: SolverConfig allows no other case
        auto_mu, auto_rho = default_params(i_mat) if np.any(i_mat) else (0.0, 0.0)
        mu = auto_mu if mu is None else mu
        rho = auto_rho if rho is None else rho

    peak = max(np.abs(i_mat.real).max(initial=0.0), np.abs(i_mat.imag).max(initial=0.0))
    exponent = math.frexp(peak)[1]
    i_mat = _times_power_of_two(i_mat, -exponent, np.empty_like(i_mat))
    mu_n, rho_n = math.ldexp(mu, -exponent), math.ldexp(rho, -exponent)
    threshold = cfg.beta * rho_n

    def step(x, c):
        x_new = update_target(x, c, i_mat, cfg.alpha, mu_n)
        c_new, s, u, vh = _svt(_interference_step_point(c, x_new, i_mat, cfg.beta), threshold)
        value = _objective_value(i_mat, x_new, c_new, mu_n, rho_n, np.sum(s - threshold))
        return x_new, c_new, s, u, vh, value

    x = np.zeros_like(i_mat)
    c = np.zeros_like(i_mat)
    c_prev = c
    t = 1.0
    trace: list[float] = []
    rank_c: list[int] = []
    nnz_x: list[int] = []
    restarts = 0
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        weight = (t - 1.0) / t_next
        if weight:
            # Y = C + weight*(C - C_prev), formed in C_prev's buffer, which is not needed again.
            y = np.subtract(c, c_prev, out=c_prev)
            y *= weight
            y += c
        else:
            y = c
        x_new, c_new, s, u, vh, value = step(x, y)
        if weight and value > trace[-1]:
            restarts += 1
            t_next = 1.0
            x_new = c_new = None  # free the discarded step and Y before the plain one
            y = c_prev = c
            x_new, c_new, s, u, vh, value = step(x, c)
        t = t_next
        if not (np.isfinite(x_new).all() and np.isfinite(c_new).all()):
            raise RuntimeError(f"non-finite iterate at iteration {iterations}")
        trace.append(value)
        rank_c.append(len(s))
        nnz_x.append(int(np.count_nonzero(x_new)))
        change = max(_relative_change(x_new, x), _relative_change(c_new, c))
        if change < cfg.tol and y is not c:
            # A step from an extrapolated point can repeat the iterate (X
            # unchanged, hence C unchanged) without that point being a fixed
            # point; then C_new is far from Y.
            change = _relative_change(c_new, y)
        c_prev, x, c = c, x_new, c_new
        if change < cfg.tol:
            converged = True
            break

    c = _refit_interference(u, vh, x, i_mat)
    residual = float(np.linalg.norm(i_mat - x - c))
    with np.errstate(over="ignore"):  # an overflow in input units is inf, left to the caller
        trace_in_units = np.ldexp(np.array(trace), 2 * exponent).tolist()
        residual = float(np.ldexp(residual, exponent))
    return DecompositionResult(
        target=_times_power_of_two(x, exponent, x),
        interference=_times_power_of_two(c, exponent, c),
        objective_trace=trace_in_units,
        iterations_run=iterations,
        converged=converged,
        mu=float(mu),
        rho=float(rho),
        residual_norm=residual,
        restarts=restarts,
        rank_c=rank_c,
        nnz_x=nnz_x,
    )


def matricize_3d(volume: ComplexImage) -> np.ndarray:
    """Unfold a (range, azimuth, height) volume into a range-by-rest matrix.

    Row p holds voxel (p, q, o) at column q + azimuth_count * o.  Plates that
    are constant over azimuth and height at fixed range unfold to near
    rank-one matrices, which is what the low-rank penalty exploits.
    """
    if volume.grid.ndim != 3:
        raise ValueError("matricize_3d expects a 3D volume")
    p, q, o = volume.values.shape
    return volume.values.transpose(0, 2, 1).reshape(p, q * o)


def dematricize_3d(matrix, grid: ImageGrid) -> ComplexImage:
    """Exact inverse of matricize_3d for the given 3D grid."""
    if grid.ndim != 3:
        raise ValueError("dematricize_3d expects a 3D grid")
    p, q, o = grid.shape
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (p, q * o):
        raise ValueError(f"matrix shape {m.shape} does not match grid {grid.shape}")
    return ComplexImage(m.reshape(p, o, q).transpose(0, 2, 1), grid)


def decompose_image(
    image: ComplexImage,
    config: SolverConfig | None = None,
) -> tuple[ComplexImage, ComplexImage, list[DecompositionResult]]:
    """Split a 2D image or a 3D volume into target and interference images.

    A 2D image is decomposed as it is.  A 3D volume is decomposed whole, by
    its mode-1 unfolding (matricize_3d), or with config.per_slice_3d one
    height slice at a time.  Returns the two parts on the input's grid and
    one result per decomposed matrix.
    """
    cfg = config if config is not None else SolverConfig()
    grid = image.grid
    if grid.ndim == 3 and cfg.per_slice_3d:
        results = [decompose(image.values[:, :, o], cfg) for o in range(grid.height.count)]
        x_vol = np.stack([r.target for r in results], axis=2)
        c_vol = np.stack([r.interference for r in results], axis=2)
        return ComplexImage(x_vol, grid), ComplexImage(c_vol, grid), results
    if grid.ndim == 3:
        res = decompose(matricize_3d(image), cfg)
        return dematricize_3d(res.target, grid), dematricize_3d(res.interference, grid), [res]
    if grid.ndim != 2:
        raise ValueError("decompose_image expects a 2D image or a 3D volume")
    res = decompose(image.values, cfg)
    return ComplexImage(res.target, grid), ComplexImage(res.interference, grid), [res]


def decompose_volume(
    volume: ComplexImage,
    config: SolverConfig | None = None,
) -> tuple[ComplexImage, ComplexImage, list[DecompositionResult]]:
    """Decompose a 3D volume, whole (mode-1 unfolding) or per height slice."""
    if volume.grid.ndim != 3:
        raise ValueError("decompose_volume expects a 3D volume")
    return decompose_image(volume, config)
