"""Low-level numerical kernels, numba-compiled when available.

Two operations dominate the Monte Carlo experiments: filling the m-by-d
cosine design matrix and evaluating a cosine series at many points.
Both are implemented twice -- as jit-compiled loops and as vectorized
numpy code with identical semantics.  The backend is chosen once at
import time: setting the environment variable ``SCALEREG_NO_NUMBA`` to
anything other than ``""`` or ``"0"`` forces the numpy fallback, as
does a missing numba installation.

Column ``j`` of the cosine table holds ``cos(j*pi*x)``.  Columns are
generated with the three-term recurrence

    cos((j+1)s) = 2*cos(s)*cos(j*s) - cos((j-1)s)

re-seeded from direct ``cos`` calls every ``_BLOCK`` columns so the
accumulated rounding error stays at O(_BLOCK**2 * eps) independent of d
(a fresh pair of anchor columns starts each block, so errors do not
propagate across blocks).
"""

from __future__ import annotations

import os

import numpy as np

_BLOCK = 64

JIT_DISABLED = os.environ.get("SCALEREG_NO_NUMBA", "0") not in ("", "0")

try:
    if JIT_DISABLED:
        raise ImportError("numba disabled via SCALEREG_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def backend_name() -> str:
    return "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# weighted cosine table
# ---------------------------------------------------------------------------

def _weighted_cosine_table_np(x, w):
    # each column is filled as one contiguous row of a d-by-m buffer; the
    # m-by-d result is its Fortran-ordered transpose
    m = x.shape[0]
    d = w.shape[0]
    out = np.empty((d, m))
    out[0] = w[0]
    if d == 1:
        return out.T
    c = np.cos(np.pi * x)
    np.multiply(w[1], c, out=out[1])
    two_c = 2.0 * c
    # unweighted previous two columns of the recurrence, kept separately
    # so the weights never enter the recurrence itself
    prev2 = np.ones(m)
    prev1 = c
    for j in range(2, d):
        if j % _BLOCK < 2:
            cur = np.cos((j * np.pi) * x)
        else:
            cur = two_c * prev1 - prev2
        np.multiply(w[j], cur, out=out[j])
        prev2 = prev1
        prev1 = cur
    return out.T


def _clenshaw_cosine_np(x, c):
    # f(x) = sum_k c_k cos(k*pi*x), evaluated with the Clenshaw recurrence
    n = c.shape[0] - 1
    ct = np.cos(np.pi * x)
    if n == 0:
        return np.full_like(ct, c[0])
    two_ct = 2.0 * ct
    b1 = np.zeros_like(ct)
    b2 = np.zeros_like(ct)
    for k in range(n, 0, -1):
        b1, b2 = c[k] + two_ct * b1 - b2, b1
    return c[0] + ct * b1 - b2


if HAVE_NUMBA:

    @njit(cache=True)
    def _weighted_cosine_table_nb(x, w):  # pragma: no cover - numba path
        m = x.shape[0]
        d = w.shape[0]
        out = np.empty((m, d))
        for i in range(m):
            xi = x[i]
            out[i, 0] = w[0]
            if d > 1:
                c = np.cos(np.pi * xi)
                out[i, 1] = w[1] * c
                two_c = 2.0 * c
                prev2 = 1.0
                prev1 = c
                for j in range(2, d):
                    if j % _BLOCK < 2:
                        cur = np.cos(j * np.pi * xi)
                    else:
                        cur = two_c * prev1 - prev2
                    out[i, j] = w[j] * cur
                    prev2 = prev1
                    prev1 = cur
        return out

    @njit(cache=True)
    def _clenshaw_cosine_nb(x, c):  # pragma: no cover - numba path
        m = x.shape[0]
        n = c.shape[0] - 1
        out = np.empty(m)
        for i in range(m):
            ct = np.cos(np.pi * x[i])
            if n == 0:
                out[i] = c[0]
            else:
                two_ct = 2.0 * ct
                b1 = 0.0
                b2 = 0.0
                for k in range(n, 0, -1):
                    b1, b2 = c[k] + two_ct * b1 - b2, b1
                out[i] = c[0] + ct * b1 - b2
        return out

    _weighted_cosine_table = _weighted_cosine_table_nb
    _clenshaw_cosine = _clenshaw_cosine_nb
else:
    _weighted_cosine_table = _weighted_cosine_table_np
    _clenshaw_cosine = _clenshaw_cosine_np


# ---------------------------------------------------------------------------
# public wrappers (contiguous float64 in, consistent validation)
# ---------------------------------------------------------------------------

def weighted_cosine_table(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Return the m-by-d matrix with entries ``w[j] * cos(j*pi*x[i])``.

    This is the shared workhorse behind basis evaluation and design
    matrices; callers fold any per-column normalization (such as the
    sqrt(2) of an orthonormal cosine basis) into ``w``.  The numpy
    backend returns the table in Fortran order (each column contiguous).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if x.ndim != 1 or w.ndim != 1:
        raise ValueError("x and w must be one-dimensional")
    if w.shape[0] < 1:
        raise ValueError("need at least one column weight")
    return _weighted_cosine_table(x, w)


def clenshaw_cosine(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_k coef[k] * cos(k*pi*x)`` at each point of ``x``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    coef = np.ascontiguousarray(coef, dtype=np.float64)
    if coef.ndim != 1 or coef.shape[0] < 1:
        raise ValueError("coef must be a nonempty vector")
    scalar = x.ndim == 0
    if scalar:
        x = x.reshape(1)
    out = _clenshaw_cosine(x, coef)
    return out[0] if scalar else out


def warmup() -> None:
    """Trigger jit compilation on tiny inputs (no-op for the numpy path)."""
    x = np.array([0.25, 0.5])
    w = np.ones(3)
    weighted_cosine_table(x, w)
    clenshaw_cosine(x, w)
