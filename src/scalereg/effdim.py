"""Effective dimension of a spectrum and its structural checks."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .indexfn import IndexFunction
from .model import SpectralProblem

# A rescaled argument counts as above the L-spectrum top only past this
# relative margin: far above the 1-ulp rounding of lambda / rho(lambda)^2,
# far below any real exceedance.
_TOP_RTOL = 1e-12

# report threshold of check_effdim_relation, not a derived constant
_RELATION_CEILING = 8.0


def effdim(spectrum, lam: float) -> float:
    """N(lambda) = sum_j t_j / (t_j + lambda)."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    t = np.asarray(spectrum, dtype=np.float64)
    return float(np.sum(t / (t + lam)))


@dataclass(frozen=True, eq=False)
class EffDimCurve:
    lambdas: np.ndarray
    values: np.ndarray


def effdim_curve(spectrum, lambda_lo: float, lambda_hi: float,
                 points_per_decade: int = 40) -> EffDimCurve:
    """Log-spaced effective-dimension curve on [lambda_lo, lambda_hi]."""
    if not 0 < lambda_lo < lambda_hi:
        raise ValueError("need 0 < lambda_lo < lambda_hi")
    decades = np.log10(lambda_hi / lambda_lo)
    n = max(2, int(round(points_per_decade * decades)) + 1)
    lams = np.geomspace(lambda_lo, lambda_hi, n)
    vals = np.array([effdim(spectrum, lam) for lam in lams])
    return EffDimCurve(lambdas=lams, values=vals)


def _wls_line(xs, ys, weights):
    """Weighted least squares for y = b0 + b1 x; returns (b1, stderr)."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    w = np.asarray(weights, float)
    X = np.column_stack([np.ones_like(xs), xs])
    xtwx = X.T @ (w[:, None] * X)
    beta = np.linalg.solve(xtwx, X.T @ (w * ys))
    resid = ys - X @ beta
    dof = len(xs) - 2
    if dof <= 0:
        return float(beta[1]), float("nan")
    s2 = float(w @ resid ** 2) / dof
    cov = np.linalg.inv(xtwx) * s2
    return float(beta[1]), float(math.sqrt(max(cov[1, 1], 0.0)))


def fit_effdim_exponent(spectrum, lambda_lo: float,
                        lambda_hi: float) -> dict:
    """Least-squares decay exponent of N(lambda) ~ lambda^(-b).

    Refuses ranges where N(lambda_lo) >= d/2: there the finite
    truncation of the spectrum, not its decay, controls the curve.
    """
    if not 0 < lambda_lo < lambda_hi <= 1.0:
        raise ValueError("need 0 < lambda_lo < lambda_hi <= 1")
    t = np.asarray(spectrum, dtype=np.float64)
    curve = effdim_curve(t, lambda_lo, lambda_hi)
    if curve.values[0] >= t.size / 2:
        raise ValueError(
            f"N(lambda_lo) = {curve.values[0]:.1f} >= d/2 = {t.size / 2}: "
            "truncation binds; increase the spectrum length d")
    slope, stderr = _wls_line(np.log(curve.lambdas), np.log(curve.values),
                              np.ones(curve.lambdas.size))
    return {"b_hat": -slope, "stderr": stderr}


def check_tail_condition(spectrum, t_grid) -> float:
    """Smallest C with (1/t) sum_{s_j < t} s_j <= C * #{j : s_j >= t}.

    Evaluated over the grid; grid points above the top of the spectrum
    (where the right-hand count is zero) are excluded.
    """
    s = np.sort(np.asarray(spectrum, dtype=np.float64))[::-1]
    ts = np.asarray(t_grid, dtype=np.float64)
    if np.any(ts <= 0):
        raise ValueError("t_grid entries must be positive")
    tail = np.concatenate((np.cumsum(s[::-1])[::-1], [0.0]))  # sum_{j>=k}
    c_min = 0.0
    seen = False
    for t in ts:
        count = int(np.searchsorted(-s, -t, side="right"))  # s_j >= t
        if count == 0:
            continue
        seen = True
        c_min = max(c_min, tail[count] / t / count)
    if not seen:
        raise ValueError("no grid point lies within the spectrum range")
    return c_min


def check_effdim_relation(problem: SpectralProblem, rho: IndexFunction,
                          lambda_grid) -> dict:
    """Compare N_L(lambda / rho(lambda)^2) against N_T(lambda).

    The ratio of the two effective dimensions stays below a modest
    constant when the link between the scales holds; the check passes
    at ratios up to ``_RELATION_CEILING`` (8).  Grid points where the
    rescaled argument exceeds the top of the L-spectrum by more than the
    relative tolerance ``_TOP_RTOL`` (1e-12) are skipped with a warning;
    the tolerance absorbs rounding only.  On a flat L-spectrum
    (``a_link = 1/2``) every rescaled argument sits exactly at the top,
    so every grid point counts.  A grid whose every point is skipped has
    checked nothing and does not pass.
    """
    lams = np.asarray(lambda_grid, dtype=np.float64)
    t = problem.t
    lnu = problem.lnu_eigs
    top = float(lnu.max())
    max_ratio = 0.0
    skipped = 0
    for lam in lams:
        lam = float(lam)
        arg = lam / float(np.asarray(rho(np.array(lam)))) ** 2
        if arg > top * (1.0 + _TOP_RTOL):
            skipped += 1
            continue
        max_ratio = max(max_ratio, effdim(lnu, arg) / effdim(t, lam))
    if skipped:
        warnings.warn(f"skipped {skipped} grid points whose rescaled "
                      f"argument exceeded the L-spectrum top {top:.3g}")
    checked = skipped < lams.size
    return {"max_ratio": max_ratio,
            "pass": checked and max_ratio <= _RELATION_CEILING,
            "n_skipped": skipped}
