"""Sampling, empirical operators, and the regularized estimator.

Data model: m design points x_i (i.i.d. uniform on [0,1], or the exact
midpoint grid) with observations y_i = g(x_i) + sigma * z_i where g is
the forward image of the true solution.  The estimator applies a
spectral filter to the empirical covariance

    T_x = (1/m) Phi^T Phi,      Phi[i, j] = (a_j / l_j) e_j(x_i),

and maps back through the scale operator:

    u_hat = g_lambda(T_x) (1/m) Phi^T y,      f_hat_j = u_hat_j / l_j.

T_x is not formed by a dense product.  The product-to-sum identity
cos(j s) cos(k s) = [cos((j-k) s) + cos((j+k) s)] / 2 gives

    Phi^T Phi = W [S(|j-k|) + S(j+k)] W / 2,   S(n) = sum_i cos(n pi x_i),

a Toeplitz-plus-Hankel matrix between the diagonal column weights W,
so it takes only the 2d-1 cosine moments S(0..2d-2), read off Phi in
O(m*d) (see ``crossprod``).  T_x is kept in that factored form: the
moments, the weights and the divisor m (``_sample_sums``).  Its product
with a vector is one real FFT convolution in O(d log d) (the circulant
embedding of the Toeplitz part has a real spectrum, and the Hankel part
is a correlation with the same transform), and ``toarray()`` assembles
the dense matrix where a factorization needs it.

The moments and Phi^T y are sums over the design points, so when
m >= d they are added up over blocks of ``_POINT_BLOCK`` = 4096 points
(see ``_sample_sums``): each block fills its own cosine table, adds its
moments and its share of Phi^T y, and is freed before the next block
is filled.  The estimator, ``empirical_cov`` and the coverage
diagnostics so never hold more than a 4096-by-d table (16 MiB at
d = 512, 62.5 MiB at d = 2000), whatever m is; a design of up to 4096
points is one block.  The m < d routes factor Phi itself (by SVD or
through the m-by-m Gram matrix) and build the whole table.

When m >= d, Tikhonov solves (T_x + lambda I) u = Phi^T y / m by
conjugate gradients preconditioned with the population operator
T = diag(t_j): the preconditioner is (T + lambda I)^-1, the start point
(T + lambda I)^-1 b, and each step is one FFT matrix-vector product with
T_x, so the solve holds nothing of size d x d.  The preconditioned
operator is
(T + lambda)^(-1/2) (T_x + lambda) (T + lambda)^(-1/2) = I - E with
||E|| <= Upsilon / sqrt(lambda), Upsilon = ||(T + lambda)^(-1/2)(T - T_x)||,
and the analysis keeps Upsilon small under its standing hypothesis
N(lambda) <= m lambda; so the spectrum clusters at 1 and a few steps
reach a residual of 1e-14 ||b||.  Off that hypothesis (tiny lambda at
small m) the iteration may not get there within ``_PCG_MAX_STEPS``
steps, and the estimate falls to the route every other filter takes at
m >= d: the eigendecomposition of the dense T_x with the filter applied
to its eigenvalues.

Phi itself is filled column by column by complex rotation: with
z_i = exp(i pi x_i), column j is w_j Re z_i^j, and z^(j+1) = z^j z is
one in-place complex product over all points.  Each product adds only
a few eps of relative error, so entry (i, j) is within O(j * eps) of
w_j cos(j pi x_i) (``design_matrix`` gives the constant).

Every BLAS and LAPACK call a trial makes goes through numpy.  The numpy
and scipy wheels each bundle their own OpenBLAS, each with its own pool
of worker threads; a trial that woke both would leave the idle workers
of one pool spinning against the other on a small machine.

Randomness is counter-based (numpy Philox): a dataset's design points
come from the stream keyed by (seed, 0) and its noise from (seed, 1),
so identical (problem, m, seed, design) always reproduce the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .filters import FilterFamily, filter_values
from .mercer import midpoint_grid
from .model import SpectralProblem, _cosine_coef, forward_eval

DESIGNS = ("random_uniform", "midpoint_grid")

# m*d at or below which the m < d branch takes Phi's SVD, not the Gram
# matrix: 1.9-181 ms against 0.10-9.8 ms for Gram + solve at 64x256 to
# 512x2000 (bench_kernels); kept because perfbench pins dual_svd
_SVD_DIRECT_LIMIT = 1 << 18

_NEG_EIG_TOL = 1e-12

# the primal Tikhonov PCG stops at ||r|| <= _PCG_RTOL ||b||; past
# _PCG_MAX_STEPS steps the eigh route of the other filters answers
_PCG_RTOL = 1e-14
_PCG_MAX_STEPS = 100

# rows of the dense d x d operator scaled per block in toarray()
_ROW_BLOCK = 256

# design points per cosine table when T_x and Phi^T v are summed over
# the samples, so no table is larger than _POINT_BLOCK x d
_POINT_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class Dataset:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.shape != x.shape or x.size < 1:
            raise ValueError("x and y must be equal-length nonempty vectors")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.x.size


@dataclass(frozen=True, eq=False)
class Estimate:
    """A regularized solution and how it was solved.

    ``cg_steps`` counts the conjugate-gradient steps of the primal
    Tikhonov solve (0 on every other route).  It is ``math.inf`` when
    the PCG reached ``_PCG_MAX_STEPS`` without converging, so that the
    eigendecomposition of the dense T_x gave u_hat.
    """

    f_hat: np.ndarray
    u_hat: np.ndarray
    cg_steps: float = 0


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), which])))


def _design_points(seed: int, m: int) -> np.ndarray:
    """The m uniform design points that ``sample_dataset`` draws under seed."""
    return _stream(seed, 0).random(m)


def _noise(problem: SpectralProblem, seed: int, m: int) -> np.ndarray:
    """The noise sigma * z that ``sample_dataset`` adds under seed."""
    return problem.noise.sigma * _stream(seed, 1).standard_normal(m)


def _trial_seeds(seed: int, m: int, n: int) -> np.ndarray:
    """The n Monte Carlo trial seeds of sample size m under seed."""
    return np.random.SeedSequence([seed, m]).generate_state(
        n, dtype=np.uint64)


def sample_dataset(problem: SpectralProblem, m: int, seed: int,
                   design: str = "random_uniform") -> Dataset:
    """Draw a dataset of size m from the problem's observation model."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if design == "midpoint_grid":
        x = midpoint_grid(m)
    elif design == "random_uniform":
        x = _design_points(seed, m)
    else:
        raise ValueError(f"design must be one of {DESIGNS}")
    y = forward_eval(problem, problem.f_true, x)
    if problem.noise.sigma > 0:
        y = y + _noise(problem, seed, m)
    return Dataset(x=x, y=y)


def _design_weights(problem: SpectralProblem) -> np.ndarray:
    # the column weights of design_matrix, Phi = C diag(w): a_j / l_j
    # in the basis e_j, so with its normalization folded in
    return _cosine_coef(problem.a / problem.l)


def _weighted_cosine_table(x, w):
    # the m-by-d table w[j] * cos(j pi x[i]) = w[j] * Re z_i^j with
    # z_i = exp(i pi x[i]), the powers taken by repeated multiplication;
    # each column is filled as one contiguous row of a d-by-m buffer, and
    # the result is its Fortran-ordered transpose
    out = np.empty((w.shape[0], x.shape[0]))
    step = np.exp(1j * np.pi * x)
    z = np.ones(x.shape[0], dtype=np.complex128)
    for j in range(w.shape[0]):
        np.multiply(w[j], z.real, out=out[j])
        z *= step
    return out.T


def design_matrix(problem: SpectralProblem, x: np.ndarray) -> np.ndarray:
    """m-by-d matrix of B_x in the basis: entries (a_j/l_j) e_j(x_i).

    The table is Fortran-ordered (each column contiguous).  Column j is
    the real part of the j-th power of exp(i pi x), taken by j complex
    products, so entry (i, j) is within about 4.5 j eps of its exact
    value, relative to the column's weight (a_j/l_j) sup|e_j|: each
    power adds at most 1.1 eps for its product, 1 eps for exp and
    2.1 eps for the rounded argument pi x_i.  At unit weights the
    largest error measured for d up to 4096 is 1.7 j eps.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    return _weighted_cosine_table(x, _design_weights(problem))


class _ToeplitzHankel:
    """W [Toe(S) + Han(S)] W / (2 m): phi^T phi / m in factored form.

    Toe(S)[j, k] = S(|j-k|) and Han(S)[j, k] = S(j+k) for the 2d-1
    moments S, W = diag(w), and m is the divisor (1 from ``crossprod``,
    the number of design points from ``_sample_sums``).
    """

    def __init__(self, s: np.ndarray, w: np.ndarray, m: float):
        self.s, self.w, self.m = s, w, m

    @cached_property
    def _spectra(self):
        # FFT length n >= 2d-1, so that neither circular product wraps;
        # c is the Toeplitz symbol embedded in a circulant, even and so
        # with a real spectrum
        d = self.w.shape[0]
        n = 1 << (2 * d - 2).bit_length()
        c = np.zeros(n)
        c[:d] = self.s[:d]
        c[n - d + 1:] = self.s[d - 1:0:-1]
        return n, np.fft.rfft(c).real, np.fft.rfft(self.s, n)

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        """The product with a d-vector p, in O(d log d).

        With q = w p zero-padded to n and Q its transform, the Toeplitz
        part is the circular convolution of c with q and the Hankel part
        the circular correlation of S with q, whose transform is
        FFT(S) conj(Q); both are read off entries 0..d-1.
        """
        n, toe, han = self._spectra
        q = np.fft.rfft(self.w * p, n)
        v = np.fft.irfft(toe * q + han * q.conj(), n)[:self.w.shape[0]]
        v *= 0.5 * self.w
        v /= self.m
        return v

    def toarray(self) -> np.ndarray:
        """The dense d-by-d matrix, exactly symmetric.

        The Toeplitz and Hankel parts are read-only strided views of the
        moment vector, and the weights are applied in row blocks, so the
        only d-by-d array built is the result.
        """
        s, w = self.s, self.w
        d = w.shape[0]
        # sym[d-1+n] = S(|n|) for |n| < d, so sym[d-1-j+k] = S(|j-k|)
        sym = np.concatenate((s[d - 1:0:-1], s[:d]))
        step = s.strides[0]
        toe = as_strided(sym[d - 1:], shape=(d, d), strides=(-step, step),
                         writeable=False)
        han = as_strided(s, shape=(d, d), strides=(step, step),
                         writeable=False)
        out = np.add(toe, han)
        half = 0.5 * w
        for i in range(0, d, _ROW_BLOCK):
            out[i:i + _ROW_BLOCK] *= np.outer(w[i:i + _ROW_BLOCK], half)
        out /= self.m
        return out


def crossprod(phi: np.ndarray, w: np.ndarray) -> _ToeplitzHankel:
    """phi^T phi of a weighted cosine table phi = C diag(w), in O(m*d).

    C[i, j] = cos(j pi x_i) and every w_j is nonzero.  By the
    product-to-sum identity,

        (phi^T phi)[j, k] = w_j w_k [S(|j-k|) + S(j+k)] / 2

    with the cosine moments S(n) = sum_i cos(n pi x_i).  The column sums
    of phi give S(0..d-1); its last column against all columns gives
    (phi^T phi)[:, d-1] = w w_{d-1} [S(d-1..0) + S(d-1..2d-2)] / 2 and so
    the high moments.

    The result stays in that factored form (``_ToeplitzHankel``): the
    moments, the weights and the divisor 1.  Its ``@`` is an FFT
    matrix-vector product in O(d log d); its ``toarray()`` builds the
    dense, exactly symmetric matrix.
    """
    d = w.shape[0]
    s = np.empty(2 * d - 1)
    s[:d] = phi.sum(axis=0) / w
    s[d - 1:] = 2.0 * (phi.T @ phi[:, d - 1]) / (w * w[d - 1]) - s[d - 1::-1]
    return _ToeplitzHankel(s, w, 1.0)


def gram(phi: np.ndarray) -> np.ndarray:
    """phi phi^T, the m-by-m Gram matrix (exactly symmetric)."""
    return phi @ phi.T


def _sample_sums(problem: SpectralProblem, x: np.ndarray, v=None):
    """(T_x, Phi^T v / m) of the design x, one block of points at a time.

    T_x is the factored ``crossprod`` form with the divisor m.  Both are
    sums over the points: the moments S(n) = sum_i cos(n pi x_i) and
    Phi^T v = sum_i v_i Phi[i].  So each block of ``_POINT_BLOCK`` points
    builds its own cosine table, adds its share to both and frees the
    table before the next block is built.  A design of up to
    ``_POINT_BLOCK`` points is one block, which does the work of a
    whole-table build.  The product is None when v is.
    """
    m = x.size
    w = _design_weights(problem)
    s = b = 0.0
    for lo in range(0, m, _POINT_BLOCK):
        phi = design_matrix(problem, x[lo:lo + _POINT_BLOCK])
        s = s + crossprod(phi, w).s
        if v is not None:
            b = b + phi.T @ v[lo:lo + _POINT_BLOCK]
        del phi
    return _ToeplitzHankel(s, w, m), None if v is None else b / m


def empirical_cov(problem: SpectralProblem, x: np.ndarray) -> np.ndarray:
    """T_x = (1/m) Phi^T Phi (symmetric positive semidefinite)."""
    x = np.asarray(x, dtype=np.float64)
    return _sample_sums(problem, x)[0].toarray()


def _clamped_eigh(S: np.ndarray, kappa_sq: float):
    """Eigendecomposition of a symmetric S with the PSD clamp.

    S must be exactly symmetric: eigh reads only its lower triangle.
    Eigenvalues in [-1e-12 * kappa_sq, 0) are floating-point debris of a
    PSD-by-construction matrix and are set to 0; anything more negative
    signals a real defect and raises.
    """
    w, V = np.linalg.eigh(S)
    floor = -_NEG_EIG_TOL * kappa_sq
    if w[0] < floor:
        raise np.linalg.LinAlgError(
            f"eigenvalue {w[0]:.3e} below the PSD tolerance {floor:.3e}")
    np.clip(w, 0.0, None, out=w)
    return w, V


def _pcg(T, lam: float, b: np.ndarray, t: np.ndarray):
    """(u, steps) solving (T + lam I) u = b by CG preconditioned with
    (t + lam)^-1, from u = b / (t + lam), until ||r|| <= _PCG_RTOL ||b||.

    T is anything with a symmetric ``T @ p``: a dense array or the
    factored operator of ``crossprod``.  (None, inf) when
    _PCG_MAX_STEPS steps do not get there.  T is left unchanged.
    """
    pinv = 1.0 / (t + lam)
    u = pinv * b
    r = b - (T @ u + lam * u)
    tol = _PCG_RTOL * np.linalg.norm(b)
    z = pinv * r
    p = z.copy()
    rz = r @ z
    steps = 0
    while np.linalg.norm(r) > tol:
        if steps == _PCG_MAX_STEPS:
            return None, math.inf
        q = T @ p + lam * p
        alpha = rz / (p @ q)
        u += alpha * p
        r -= alpha * q
        z = pinv * r
        rz, rz_old = r @ z, rz
        p *= rz / rz_old
        p += z
        steps += 1
    return u, steps


def _eigen_filter(S: np.ndarray, rhs: np.ndarray, filt: FilterFamily,
                  lam: float, kappa_sq: float) -> np.ndarray:
    """V g_lambda(evals) V^T rhs, for the clamped eigendecomposition
    (``_clamped_eigh``) of the exactly symmetric S.

    It is the filter applied to the spectrum of a dense operator: T_x at
    m >= d, for every filter but Tikhonov and for a PCG that reaches
    ``_PCG_MAX_STEPS``, and the m-by-m Gram matrix of ``_dual_gram``.
    """
    evals, V = _clamped_eigh(S, kappa_sq)
    g = filter_values(filt, lam, evals, kappa_sq)
    return V @ (g * (V.T @ rhs))


def _dual_svd(phi: np.ndarray, y: np.ndarray, filt: FilterFamily,
              lam: float, kappa_sq: float) -> np.ndarray:
    """u_hat through the singular system of Phi / sqrt(m), Phi the
    m-by-d design table with m < d: u = W g_lambda(s^2) W^T Phi^T y / m
    from a direct (thin) SVD, for every filter."""
    m = phi.shape[0]
    _, s, Wt = np.linalg.svd(phi / np.sqrt(m), full_matrices=False)
    g = filter_values(filt, lam, s * s, kappa_sq)
    return Wt.T @ (g * (Wt @ (phi.T @ y / m)))


def _dual_gram(phi: np.ndarray, y: np.ndarray, filt: FilterFamily,
               lam: float, kappa_sq: float) -> np.ndarray:
    """u_hat through the m-by-m Gram matrix G = Phi Phi^T / m (m < d).

    Tikhonov is u = Phi^T (G + lambda I)^-1 y / m by LU; every other
    filter is u = Phi^T g_lambda(G) y / m (``_eigen_filter``).  The LU
    solve uses numpy rather than scipy's Cholesky: numpy and scipy each
    bundle their own OpenBLAS thread pool, and waking both in one trial
    costs more than LU's extra flops.
    """
    m = phi.shape[0]
    G = gram(phi) / m
    if filt.id != "tikhonov":
        return phi.T @ _eigen_filter(G, y, filt, lam, kappa_sq) / m
    G[np.diag_indices_from(G)] += lam
    return phi.T @ np.linalg.solve(G, y) / m


def estimate(problem: SpectralProblem, dataset: Dataset,
             filt: FilterFamily, lam: float) -> Estimate:
    """Regularized solution u_hat = g_lambda(T_x) B_x^* y, f_hat = L^-1 u_hat.

    The route is chosen by m, d and the filter, and each route function
    describes itself.  When m >= d, T_x (in factored form) and B_x^* y
    come from ``_sample_sums``; Tikhonov takes ``_pcg`` on them, and
    every other filter, or a PCG that reaches ``_PCG_MAX_STEPS``
    (``cg_steps`` is then inf), takes ``_eigen_filter`` on the dense
    T_x.  When m < d, the whole design table goes to ``_dual_svd`` if
    m*d <= ``_SVD_DIRECT_LIMIT`` and to ``_dual_gram`` otherwise.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    m, d = dataset.m, problem.d
    steps, u = 0, None

    if m >= d:
        T, bvec = _sample_sums(problem, dataset.x, dataset.y)
        if filt.id == "tikhonov":
            u, steps = _pcg(T, lam, bvec, problem.t)
        if u is None:
            u = _eigen_filter(T.toarray(), bvec, filt, lam, problem.kappa_sq)
    else:
        route = _dual_svd if m * d <= _SVD_DIRECT_LIMIT else _dual_gram
        u = route(design_matrix(problem, dataset.x), dataset.y, filt, lam,
                  problem.kappa_sq)
    return Estimate(f_hat=u / problem.l, u_hat=u, cg_steps=steps)


def errors(problem: SpectralProblem, est: Estimate) -> dict:
    """Error norms of an estimate against the problem's truth.

    h_norm is the plain coefficient-space norm, and prediction_norm
    weights the gap by a_j (the population prediction error).
    """
    if est.f_hat.shape != (problem.d,):
        raise ValueError("estimate dimension does not match problem")
    gap = est.f_hat - problem.f_true
    return {
        "h_norm": float(np.linalg.norm(gap)),
        "prediction_norm": float(np.linalg.norm(problem.a * gap)),
    }
