"""Distance functions to benchmark smoothness classes, solved exactly.

In the diagonal model both constrained projections reduce to a scalar
root-find in the Lagrange multiplier mu:

- d(R)  : distance of the truth to {L^-1 v : |v| <= R} in the plain
          norm; the optimal v_j is l_j f_j / (1 + mu l_j^2).
- d_q(R): distance of L f to L {L^-q v : |v| <= R}; the optimal v_j is
          l_j^(2-q) f_j / (l_j^(2-2q) + mu).

|v(mu)| decreases strictly from the unconstrained optimum at mu = 0, so
a doubling bracket plus bisection pins mu to high accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lambda_rules import benchmark_order
from .model import PowerProblemSpec, SpectralProblem

_ROOT_TOL = 1e-12
_MAX_BISECT = 200


@dataclass(frozen=True)
class DistanceResult:
    d_value: float
    minimizer_v: np.ndarray
    mu: float


@dataclass(frozen=True)
class DistanceCurve:
    Rs: np.ndarray
    values: np.ndarray


def _solve_mu(vnorm, R: float) -> float:
    """Root of |v(mu)| = R for a strictly decreasing vnorm(mu)."""
    lo, hi = 0.0, 1.0
    grow = 0
    while vnorm(hi) > R:
        lo, hi = hi, hi * 2.0
        grow += 1
        if grow > 200:
            raise RuntimeError("distance root-find failed to bracket mu")
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if vnorm(mid) > R:
            lo = mid
        else:
            hi = mid
        if abs(vnorm(mid) - R) <= _ROOT_TOL * max(1.0, R):
            return mid
    mid = 0.5 * (lo + hi)
    if abs(vnorm(mid) - R) > 1e-9 * max(1.0, R):
        raise RuntimeError("distance root-find did not converge")
    return mid


def distance_fn(problem: SpectralProblem, R: float) -> DistanceResult:
    """Distance of the truth to the R-ball of the first scale space."""
    if not R > 0:
        raise ValueError("R must be positive")
    f, l = problem.f_true, problem.l
    lf = l * f
    if np.linalg.norm(lf) <= R:
        return DistanceResult(0.0, lf.copy(), 0.0)

    def vnorm(mu):
        return float(np.linalg.norm(lf / (1.0 + mu * l * l)))

    mu = _solve_mu(vnorm, R)
    v = lf / (1.0 + mu * l * l)
    d_val = float(np.linalg.norm(f - v / l))
    return DistanceResult(d_val, v, mu)


def distance_fn_q(problem: SpectralProblem, q: float,
                  R: float) -> DistanceResult:
    """Distance in the graph norm of L to the benchmark class of order q."""
    if not R > 0:
        raise ValueError("R must be positive")
    if not q > 1:
        raise ValueError("q must be > 1")
    f, l = problem.f_true, problem.l
    lqf = l ** q * f
    if np.linalg.norm(lqf) <= R:
        return DistanceResult(0.0, lqf.copy(), 0.0)
    num = l ** (2.0 - q) * f
    den0 = l ** (2.0 - 2.0 * q)

    def vnorm(mu):
        return float(np.linalg.norm(num / (den0 + mu)))

    mu = _solve_mu(vnorm, R)
    v = num / (den0 + mu)
    d_val = float(np.linalg.norm(l * (l ** (-q) * v - f)))
    return DistanceResult(d_val, v, mu)


def distance_curve(problem: SpectralProblem, Rs,
                   q: float | None = None) -> DistanceCurve:
    Rs = np.asarray(Rs, dtype=np.float64)
    vals = np.array([(distance_fn(problem, float(R)) if q is None
                      else distance_fn_q(problem, q, float(R))).d_value
                     for R in Rs])
    return DistanceCurve(Rs, vals)


def distance_bound(theta_r: float, R_dagger: float, R: float) -> float:
    """Closed-form upper bound R * (R_dagger / R)^(1/(1-r)) for power
    sources with exponent r < 1.

    At r >= 1 the benchmark smoothness is attained and the bound
    degenerates; 0 is returned with a warning.
    """
    if not theta_r > 0:
        raise ValueError("theta_r must be positive")
    if not (R_dagger > 0 and R > 0):
        raise ValueError("R_dagger and R must be positive")
    if theta_r >= 1.0:
        warnings.warn("source exponent >= 1: benchmark attained, distance "
                      "bound degenerates to 0")
        return 0.0
    return float(R * (R_dagger / R) ** (1.0 / (1.0 - theta_r)))


def r_of_lambda(spec: PowerProblemSpec, lam: float, case: str) -> float:
    """Balancing radius R(lambda) = R_dagger lambda^(a (r - q_c)), q_c
    the benchmark order of the case (``lambda_rules.benchmark_order``)."""
    if not 0 < lam <= 1:
        raise ValueError("lambda must be in (0, 1]")
    q_c = benchmark_order(case, spec.q)
    return float(spec.R_dagger * lam ** (spec.a_link * (spec.r - q_c)))
