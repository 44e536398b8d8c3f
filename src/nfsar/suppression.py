"""Sparse-plus-low-rank decomposition of interfered images.

An interfered image is split as I ~ X + C by minimizing

    0.5 * ||I - C - X||_F^2  +  rho * ||C||_*  +  mu * ||X||_1

Point-like targets end up in the sparse part X, comb-pattern interference
(stripes, plates) in the low-rank part C.

One plain step sets X to the proximal map of mu*||.||_1 at I - C (entrywise
complex soft thresholding) and then C to the proximal map of rho*||.||_* at
I - X (singular value thresholding).  That is proximal gradient with step 1
on C alone: the objective in C is rho*||C||_* plus the Moreau envelope of
mu*||.||_1 at I - C, whose gradient is 1-Lipschitz.  The solver therefore
accelerates it as FISTA does (Beck & Teboulle): each step starts from C
extrapolated along its last move, with the momentum weight of the t_k
sequence.  A step whose objective exceeds the previous one by more than
rounding is thrown away, the momentum is reset, and the plain step is
taken from the current C instead (a monotone restart, after Beck &
Teboulle's MFISTA and O'Donoghue & Candes' adaptive restart).  The plain
step never raises the objective, so the trace never increases by more than
rounding.  The iteration stops on a certificate: the gap between the
objective and the Fenchel dual's value at a scaled copy of the step's
residual, relative to the objective (see decompose).

The accelerated iteration starts from a C found by continuation on the
weights (Lin, Ganesh, Wright, Wu, Chen & Ma 2009; Toh & Yun 2010): a few
plain steps with mu and rho both scaled by s > 1, s shrinking geometrically
towards 1.  At large s the answer is of low rank and sparse, so these steps
are cheap, and each starts near the next one's answer.  The certificate
bounds the distance of the returned iterate from the minimum whatever the
start, so the start changes the path and the iteration count, not what a
converged result guarantees.

The convex problem selects the model and least squares estimates it: X and
the objective trace are those of the iteration, while the returned C is the
rank-r truncated SVD of I - X, r being the rank the last thresholding step
kept.  On those singular directions it is the least-squares fit of I - X;
soft thresholding alone would leave every kept singular value biased down
by the threshold.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .core_model import _require_bool, _require_int, _require_nonnegative, _require_positive
from .imaging import ComplexImage, ImageGrid


@dataclass
class SolverConfig:
    """Weights and stopping rule for the decomposition."""

    mu: float | None = None  # sparsity weight; None -> derived when auto_weights
    rho: float | None = None  # low-rank weight; None -> derived when auto_weights
    max_iter: int = 500
    tol: float = 1e-6  # stop once the duality gap is at most tol times the objective
    auto_weights: bool = True
    per_slice_3d: bool = False  # decompose each height slice separately

    def __post_init__(self):
        if self.mu is not None:
            self.mu = _require_positive("mu", self.mu)
        if self.rho is not None:
            self.rho = _require_positive("rho", self.rho)
        self.max_iter = _require_int("max_iter", self.max_iter, 1)
        self.tol = _require_positive("tol", self.tol)
        self.auto_weights = _require_bool("auto_weights", self.auto_weights)
        self.per_slice_3d = _require_bool("per_slice_3d", self.per_slice_3d)
        if not self.auto_weights and (self.mu is None or self.rho is None):
            raise ValueError("auto_weights: mu and rho must both be set when auto_weights is false")


@dataclass
class DecompositionResult:
    """Recovered sparse target part X and low-rank interference part C.

    target and objective_trace belong to the accelerated iteration, one
    trace entry per accepted iterate, in the input's units (an entry that
    overflows there is inf; one that underflows is 0 or subnormal).
    warm_steps counts the continuation steps before it, which enter none
    of the per-iteration lists and do not count toward max_iter.
    interference is the rank-r truncated SVD of I - X for that X, r being
    the rank the last thresholding step kept.  restarts counts the
    extrapolated steps thrown away; rank_c, nnz_x and rel_gap give, per
    iteration, the rank of C, the number of nonzero entries of X and the
    duality gap relative to the objective (0 when the objective is 0, and
    never below 0: a gap that rounding takes below 0 reads 0).
    converged is true when the last rel_gap is at most the config's tol.
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
    rel_gap: list[float]
    warm_steps: int


def objective(interfered, target, interference, mu: float, rho: float) -> float:
    """0.5*||I - C - X||_F^2 + rho*||C||_* + mu*||X||_1 for complex matrices."""
    i_mat = np.asarray(interfered)
    x_mat = np.asarray(target)
    c_mat = np.asarray(interference)
    if not (i_mat.shape == x_mat.shape == c_mat.shape):
        raise ValueError("objective requires matching matrix dimensions")
    _require_nonnegative("mu", mu)
    _require_nonnegative("rho", rho)
    fit = 0.5 * np.linalg.norm(i_mat - c_mat - x_mat) ** 2
    nuclear = np.sum(np.linalg.svd(c_mat, compute_uv=False))
    return float(fit + rho * nuclear + mu * np.sum(np.abs(x_mat)))


def soft_threshold_entries(matrix, threshold: float) -> np.ndarray:
    """Complex entrywise shrinkage v -> (v/|v|) * max(|v| - threshold, 0)."""
    _require_nonnegative("threshold", threshold)
    m = np.asarray(matrix, dtype=np.complex128)
    mag = np.abs(m)
    # Only the support (under 1% of entries in the solver's X) is divided and
    # shrunk.  One index array per axis works for any memory layout (flat
    # indices, unravelled, cost a tenth of np.nonzero on a matrix), and each
    # entry meets the same complex divide and multiply as over the whole matrix.
    keep = np.unravel_index(np.flatnonzero(mag > threshold), m.shape)
    out = np.zeros_like(m)
    kept = mag[keep]
    out[keep] = m[keep] / kept * (kept - threshold)
    return out


def update_target(interference, interfered, mu: float) -> np.ndarray:
    """Sparse-part step: the proximal map of mu*||.||_1 at I - C."""
    c = np.asarray(interference)
    i_mat = np.asarray(interfered)
    if c.shape != i_mat.shape:
        raise ValueError("update_target requires matching matrix dimensions")
    _require_nonnegative("mu", mu)
    return soft_threshold_entries(i_mat - c, mu)


def singular_value_threshold(matrix, threshold: float) -> np.ndarray:
    """Shrink the singular values of a complex matrix by threshold.

    Replaces each singular value s with max(s - threshold, 0) and
    reconstructs; this is the proximal map of the nuclear norm.
    """
    _require_nonnegative("threshold", threshold)
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
    the eigenpairs of the small Gram matrix A A^H near and above threshold^2.
    Falls back to the thin SVD of m when the threshold is too small for the
    Gram route's accuracy, or when the Gram matrix overflows, underflows or is zero.
    """
    wide = m.shape[0] <= m.shape[1]
    a = m if wide else m.conj().T
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        gram, floor = a @ a.conj().T, threshold * threshold * (1.0 - 1e-6)  # s > t picks the rank below
    if gram.size and np.isfinite(gram).all():
        w, q = _eigh_above(gram, floor)
        # None above floor: rank 0, lambda_max < t^2 passes the cutoff, a diagonal entry stands in below.
        top = w[-1] if w.size else gram.diagonal().real.max()
        if top >= np.finfo(float).tiny and threshold >= _GRAM_MIN_THRESHOLD_RATIO * np.sqrt(top):
            s = np.sqrt(np.maximum(w[::-1], 0.0))
            r = int(np.count_nonzero(s > threshold))
            s, u = s[:r], q[:, ::-1][:, :r]
            vh = (u.conj().T @ a) / s[:, None]  # A = u diag(s) vh on the kept directions
            if not wide:  # m = A^H
                u, vh = vh.conj().T, u.conj().T
            return (u * (s - threshold)) @ vh, s, u, vh
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed to converge on a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc
    r = int(np.count_nonzero(s > threshold))
    u, s, vh = u[:, :r], s[:r], vh[:r]
    return (u * (s - threshold)) @ vh, s, u, vh


def update_interference(target, interfered, rho: float) -> np.ndarray:
    """Low-rank-part step: the proximal map of rho*||.||_* at I - X."""
    x = np.asarray(target)
    i_mat = np.asarray(interfered)
    if x.shape != i_mat.shape:
        raise ValueError("update_interference requires matching matrix dimensions")
    _require_nonnegative("rho", rho)
    return singular_value_threshold(i_mat - x, rho)


def default_params(interfered) -> tuple[float, float]:
    """Input-scaled weights: rho = sigma_1/4, mu = rho/sqrt(max dimension).

    sigma_1 is the square root of the top eigenvalue of A A^H, A being the input or its transpose (whichever
    has fewer rows) over the power of two next above its largest component: A A^H neither overflows nor
    underflows.  The values-only SVD costs more; norm(I, 2)'s full SVD raised volume3d's peak RSS 0.3 MB.
    """
    i_mat = np.asarray(interfered, dtype=np.complex128)
    if i_mat.ndim != 2:
        raise ValueError(f"default_params expects a 2D matrix, got {i_mat.ndim} dimensions")
    peak = float(np.maximum(np.abs(i_mat.real).max(initial=0.0), np.abs(i_mat.imag).max(initial=0.0)))
    if not 0.0 < peak < math.inf:  # NaN fails too
        raise ValueError("default_params requires a finite, non-zero input")
    exponent = math.frexp(peak)[1]
    a = i_mat if i_mat.shape[0] <= i_mat.shape[1] else i_mat.T
    a = _times_power_of_two(a, -exponent, np.empty_like(a))
    rho = math.ldexp(math.sqrt(np.linalg.eigvalsh(a @ a.conj().T)[-1]), exponent) / 4.0
    return rho / math.sqrt(max(i_mat.shape)), rho


def _times_power_of_two(a: np.ndarray, exponent: int, out: np.ndarray) -> np.ndarray:
    """out = a * 2**exponent for complex arrays, exact unless a result is subnormal."""
    np.ldexp(a.real, exponent, out=out.real)
    np.ldexp(a.imag, exponent, out=out.imag)
    return out


# An extrapolated step is thrown away only when its objective exceeds the
# previous one by more than this many ulps of it.  Once the iteration
# stalls, successive objectives differ by rounding alone, and restarting on
# that noise only costs a second factorization per step.  At tol=1e-300,
# once the objective is within 64 ulps of its value at iteration 400, the
# largest such rise was 15 ulps on the 105x97 benchmark image and 29 on the
# 41x961 benchmark volume (7 on both past iteration 100), and 6 on 12x40 and
# 40x12 matrices, so some noise still restarts.  The benchmark scenes'
# restarts at the default tol, the smallest at 3,023 ulps, are all kept.
_RESTART_ULPS = 8


@functools.cache
def _numpy_blas():
    """numpy's linalg extension; dlsym on it finds its OpenBLAS's symbols, as threadpoolctl does."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)  # wheels: numpy.libs/libscipy_openblas64_-*.so


@functools.cache
def _blas_thread_calls():
    """Get and set calls for numpy's OpenBLAS thread count; no-ops if it exports none."""
    lib = _numpy_blas()
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get, put = (getattr(lib, f"{prefix}_{op}_num_threads{suffix}", None) for op in ("get", "set"))
        if get and put:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return (lambda: 0), (lambda threads: None)


@functools.cache
def _lapacke_zheevr():
    """LAPACKE_zheevr of numpy 2's scipy_openblas64 (64-bit lapack_int); None if it exports none."""
    if zheevr := getattr(_numpy_blas(), "scipy_LAPACKE_zheevr64_", None):
        i, f, p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        zheevr.argtypes, zheevr.restype = [ctypes.c_int, *[ctypes.c_char] * 3, i, p, i, f, f, i, i, f, p, p, p, i, p], i
    return zheevr


def _eigh_above(gram: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of a Hermitian matrix above floor and their eigenvectors as columns.

    They come from numpy's OpenBLAS zheevr, given the matrix scaled to a fixed binade, as its bits
    do not scale with its input as eigh's do.  Where it exports none or zheevr fails, eigh gives all.
    """
    if floor >= gram.trace().real:  # no eigenvalue exceeds the trace
        return np.empty(0), np.empty((len(gram), 0), np.complex128)
    if zheevr := _lapacke_zheevr():
        n, exponent = len(gram), math.frexp(gram.diagonal().real.max())[1]
        work = _times_power_of_two(gram, -exponent, np.empty((n, n), np.complex128))  # zheevr overwrites it
        w, z = np.empty(n), np.empty((n, n), np.complex128)
        count, isuppz = np.zeros(1, np.int64), np.empty(2 * n, np.int64)
        # Column-major (102), the C-order matrix reads as its conjugate: no copy, conjugated vectors, eigh's triangle.
        info = zheevr(102, b"V", b"V", b"U", n, work.ctypes, n, math.ldexp(floor, -exponent), math.inf, 0, 0, 0.0,
                      count.ctypes, w.ctypes, z.ctypes, n, isuppz.ctypes)
        if info == 0:
            return np.ldexp(w[: count[0]], exponent), z[: count[0]].conj().T
    return np.linalg.eigh(gram)


_blas_lock = threading.RLock()  # a nested decompose call does not deadlock


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, process-wide, then restore the caller's count."""
    get_threads, set_threads = _blas_thread_calls()
    with _blas_lock:  # overlapping holders would restore each other's count
        threads = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(threads)


def decompose(interfered, config: SolverConfig | None = None) -> DecompositionResult:
    """Run the accelerated proximal iteration from a warm start by continuation.

    The start C comes from plain steps X = update_target(C, I, s*mu), C =
    SVT(I - X, s*rho), from C = 0 with s = 0.99*sigma_1(I)/rho, s shrinking
    by 0.7 while it exceeds 1; sigma_1(I) is 4*rho of default_params, whose
    weights fill a None weight.  From s = sigma_1(I)/rho up, C = 0 solves
    the scaled problem.  A zero input, or rho at least sigma_1(I)/0.99,
    takes no such step.  These warm steps are counted in warm_steps only:
    they enter no per-iteration list and do not count toward max_iter.

    Each iteration extrapolates Y = C + ((t_{k-1} - 1)/t_k)(C - C_prev),
    with t_0 = 1 and t_k = (1 + sqrt(1 + 4 t_{k-1}^2))/2, then takes
    X = update_target(Y, I, mu) and C = SVT(I - X, rho).  If that step's
    objective exceeds the previous iterate's by more than _RESTART_ULPS ulps
    of it, it is discarded, t_k is reset to 1 and the plain step from the
    current C is taken instead; the plain step does not raise the
    objective, so the trace is non-increasing up to that rounding allowance.

    The iteration runs on I divided by the power of two next above its
    largest component, with mu and rho divided alike, which is exact in
    binary floating point.  The objectives it compares therefore neither
    overflow nor underflow, and its decisions do not depend on the input's
    scale.  X, C, residual_norm and the trace are scaled back.

    Every iterate is certified by the problem's Fenchel dual, maximize
    Re<L, I> - 0.5*||L||_F^2 over ||L||_2 <= rho and max|L_ij| <= mu, whose
    optimum is L = I - X - C.  The step's residual R = I - X - C has the
    singular values min(s_i, rho) of I - X, so theta*R with theta =
    min(1, mu / max|R|) is feasible, and the gap between the objective P and
    the dual value at theta*R bounds P's distance from the minimum.  The
    iteration stops once that gap is at most config.tol * P, or after
    config.max_iter iterations.  The bound holds for any iterate, so the
    certificate needs nothing of the start.  The returned target and
    objective trace are the iteration's; the returned interference is the
    last low-rank step's input I - X truncated to the rank that step kept,
    with its singular values unshrunk, and residual_norm is measured
    against it.

    The weights and the iteration run with numpy's OpenBLAS held at one
    thread, so the result is the same bits whatever its pool size.
    """
    cfg = config if config is not None else SolverConfig()
    i_mat = np.asarray(interfered, dtype=np.complex128)
    if i_mat.ndim != 2:
        raise ValueError("decompose expects a 2D matrix; unfold volumes first")
    if not np.isfinite(i_mat).all():
        raise ValueError("decompose requires finite input")

    with _one_blas_thread():
        peak = max(np.abs(i_mat.real).max(initial=0.0), np.abs(i_mat.imag).max(initial=0.0))
        exponent = math.frexp(peak)[1]
        i_mat = _times_power_of_two(i_mat, -exponent, np.empty_like(i_mat))
        auto_mu, auto_rho = default_params(i_mat) if peak else (0.0, 0.0)
        mu = math.ldexp(auto_mu, exponent) if cfg.mu is None else cfg.mu
        rho = math.ldexp(auto_rho, exponent) if cfg.rho is None else cfg.rho
        mu_n, rho_n = math.ldexp(mu, -exponent), math.ldexp(rho, -exponent)

        def step(c):
            x_new = update_target(c, i_mat, mu_n)
            resid = i_mat - x_new
            c_new, s, u, vh = _svt(resid, rho_n)
            resid -= c_new  # R = I - X - C
            r_sq = np.linalg.norm(resid) ** 2
            value = float(0.5 * r_sq + rho_n * np.sum(s - rho_n) + mu_n * np.sum(np.abs(x_new)))
            r_max = np.abs(resid).max(initial=0.0)
            theta = mu_n / r_max if r_max > mu_n else 1.0  # theta*R is dual feasible
            gap = value - (theta * np.vdot(resid, i_mat).real - 0.5 * theta**2 * r_sq)
            # A duality gap is never negative; below 0 it is rounding, and reads 0.
            return x_new, c_new, s, u, vh, value, max(float(gap / value), 0.0) if value else 0.0

        # Continuation from s0 = 0.99*sigma_1/rho, sigma_1 being 4*auto_rho exactly, by 0.7 while s > 1.
        c = np.zeros_like(i_mat)
        warm_steps = 0
        scale = 0.99 * (4.0 * auto_rho) / rho_n if rho_n else 0.0
        while scale > 1.0:
            c = _svt(i_mat - update_target(c, i_mat, scale * mu_n), scale * rho_n)[0]
            scale *= 0.7
            warm_steps += 1

        # Step 1 has weight 0, so reads no C_prev; max_iter >= 1 sets x and iterations.
        t = 1.0
        trace: list[float] = []
        rank_c: list[int] = []
        nnz_x: list[int] = []
        rel_gap: list[float] = []
        restarts = 0
        converged = False
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
            x_new, c_new, s, u, vh, value, rel = step(y)
            if weight and value > trace[-1] + _RESTART_ULPS * math.ulp(trace[-1]):
                restarts += 1
                t_next = 1.0
                x_new = c_new = None  # free the discarded step and Y before the plain one
                y = c_prev = c
                x_new, c_new, s, u, vh, value, rel = step(c)
            t = t_next
            # I is scaled to |entries| <= 1, so the objective, which sums ||X||_1
            # and ||I - C - X||^2, is finite only when X and C are.
            if not math.isfinite(value):
                raise RuntimeError(f"non-finite iterate at iteration {iterations}")
            trace.append(value)
            rank_c.append(len(s))
            nnz_x.append(int(np.count_nonzero(x_new)))
            rel_gap.append(rel)
            c_prev, x, c = c, x_new, c_new
            if rel <= cfg.tol:
                converged = True
                break

        c = (u * s) @ vh
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
            rel_gap=rel_gap,
            warm_steps=warm_steps,
        )


def matricize_3d(volume: ComplexImage) -> np.ndarray:
    """Unfold a (range, azimuth, height) volume into a range-by-rest matrix.

    Row p holds voxel (p, q, o) at column q + azimuth_count * o; a 2D image
    unfolds to itself.  Plates constant over azimuth and height at fixed range
    unfold to near rank-one matrices, which the low-rank penalty exploits.
    """
    p, q = volume.values.shape[:2]
    return volume.values.reshape(p, q, -1).transpose(0, 2, 1).reshape(p, -1)


def dematricize_3d(matrix, grid: ImageGrid) -> ComplexImage:
    """Exact inverse of matricize_3d for the given 2D or 3D grid."""
    p, q = grid.shape[:2]
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (p, math.prod(grid.shape[1:])):
        raise ValueError(f"matrix shape {m.shape} does not match grid {grid.shape}")
    return ComplexImage(m.reshape(p, -1, q).transpose(0, 2, 1).reshape(grid.shape), grid)


def decompose_image(
    image: ComplexImage,
    config: SolverConfig | None = None,
) -> tuple[ComplexImage, ComplexImage, list[DecompositionResult]]:
    """Split a 2D image or a 3D volume into target and interference images.

    The image is decomposed by its unfolding (matricize_3d), whole or, with
    config.per_slice_3d, one height block of it at a time; a 2D image is the
    one-height volume either way.  Returns the two parts on the input's grid
    and one result per decomposed matrix.
    """
    cfg = config if config is not None else SolverConfig()
    unfolded = matricize_3d(image)
    blocks = unfolded.shape[1] // image.grid.shape[1] if cfg.per_slice_3d else 1
    results = [decompose(block, cfg) for block in np.hsplit(unfolded, blocks)]

    def refold(parts):  # one block as it is: np.hstack would copy it
        return dematricize_3d(parts[0] if blocks == 1 else np.hstack(parts), image.grid)

    return refold([r.target for r in results]), refold([r.interference for r in results]), results


def decompose_volume(
    volume: ComplexImage,
    config: SolverConfig | None = None,
) -> tuple[ComplexImage, ComplexImage, list[DecompositionResult]]:
    """Decompose a 3D volume, whole (mode-1 unfolding) or per height slice."""
    if volume.grid.ndim != 3:
        raise ValueError("decompose_volume expects a 3D volume")
    return decompose_image(volume, config)
