"""A-priori choices of the regularization parameter lambda(m).

Three rules are provided, all returning lambda in (0, 1]:

- balance_effdim:   solve N(lambda) = m * lambda (the balancing
                    equation of the oversmoothing-case analysis).
- balance_general:  solve theta^2(rho(lambda))/rho^2(lambda) * lambda
                    * m = N(lambda) for power-type theta, rho.
- power_table:      the closed-form power laws per smoothness regime.

The regime of a case is decided here alone, by ``_rate_law`` and
``benchmark_order``.

``fixed`` is an extra config-level kind for diagnostic runs with a
pinned value; it is not one of the analysis rules.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .effdim import effdim
from .model import (CASES, FieldError, PowerProblemSpec, SpectralProblem,
                    _real)

LAMBDA_FLOOR = 1e-14

RULE_NAMES = ("balance_effdim", "balance_general", "power_table", "fixed")


def _balance(spectrum, m: int, expo: float) -> float:
    """Root of N(lambda) = m * lambda^expo on (0, 1], N the spectrum's
    effective dimension, by bisection in log-lambda.

    The right side increases strictly in lambda and N decreases, so the
    root is unique.  Without a sign change on [LAMBDA_FLOOR, 1] the
    nearer endpoint is returned with a warning: 1 when even lambda = 1
    leaves N(1) > m (the sample is too small), the floor when N stays
    below the right side down to it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")

    def h(lam):
        return effdim(spectrum, lam) - m * lam ** expo

    if h(1.0) > 0.0:
        warnings.warn(f"N(1) = {effdim(spectrum, 1.0):.3g} > m = {m}: "
                      "sample too small for the balancing equation; "
                      "returning lambda = 1")
        return 1.0
    if h(LAMBDA_FLOOR) < 0.0:
        warnings.warn("no sign change down to the lambda floor; "
                      "returning the floor")
        return LAMBDA_FLOOR
    llo, lhi = math.log(LAMBDA_FLOOR), 0.0
    for _ in range(120):
        mid = 0.5 * (llo + lhi)
        if h(math.exp(mid)) > 0.0:
            llo = mid
        else:
            lhi = mid
    lam = math.exp(0.5 * (llo + lhi))
    if abs(h(lam)) > 1e-8 * m * lam ** expo:
        raise RuntimeError("balancing equation residual above tolerance")
    return lam


def lambda_balance_effdim(spectrum, m: int) -> float:
    """Root of N(lambda) = m * lambda on (0, 1] (see ``_balance``)."""
    return _balance(spectrum, m, 1.0)


def lambda_balance_general(spectrum, spec: PowerProblemSpec,
                           m: int) -> float:
    """Root of m * lambda^(2a(r-1)+1) = N(lambda) on (0, 1]: for
    power-type theta(t) = t^r and rho(t) = t^a the balancing equation
    collapses to that single power (see ``_balance``)."""
    return _balance(spectrum, m, 2.0 * spec.a_link * (spec.r - 1.0) + 1.0)


def benchmark_order(case: str, q: float) -> float:
    """Order q_c of the benchmark smoothness class of a case: 1 in the
    oversmoothing case, the problem's q in the regular case."""
    if case == "oversmoothing":
        return 1.0
    if case == "regular":
        return q
    raise ValueError(f"case must be one of {CASES}")


def _rate_law(a: float, b: float, r: float, q: float, case: str) -> float:
    """Check (a, b, r, q, case) and return the exponent e of the rate
    table's lambda(m) = m^e.

    oversmoothing (0 < r <= 1):     e = -1/(b+1)
    regular (1 <= r <= q, q > 1):   e = -1/(2a(q-1)) when
        a q >= a r + (b+1)/2 (the benchmark exponent q sets the rate,
        also chosen at the tie), else e = -1/(2 a r + b + 1 - 2a).
    """
    if not 0 < a <= 0.5:
        raise ValueError("a must be in (0, 1/2]")
    if b < 0:
        raise ValueError("b must be >= 0")
    if r <= 0:
        raise ValueError("r must be positive")
    if case == "oversmoothing":
        if r > 1.0:
            raise ValueError("oversmoothing case requires r <= 1 "
                             "(benchmark exponent above the scale)")
        return -1.0 / (b + 1.0)
    if case == "regular":
        if not 1.0 <= r <= q:
            raise ValueError("regular case requires 1 <= r <= q")
        if q <= 1.0:
            raise ValueError("regular case requires q > 1")
        if a * q >= a * r + (b + 1.0) / 2.0:
            return -1.0 / (2.0 * a * (q - 1.0))
        return -1.0 / (2.0 * a * r + b + 1.0 - 2.0 * a)
    raise ValueError("case must be 'oversmoothing' or 'regular'")


def lambda_power_table(a: float, b: float, r: float, q: float, m: int,
                       case: str) -> float:
    """Closed-form lambda(m) = m^e of the rate table, e from
    ``_rate_law``, clamped to [LAMBDA_FLOOR, 1]."""
    e = _rate_law(a, b, r, q, case)
    if m < 1:
        raise ValueError("m must be >= 1")
    return min(max(float(m) ** e, LAMBDA_FLOOR), 1.0)


def theoretical_exponent(a: float, b: float, r: float, q: float,
                         case: str) -> float:
    """Rate exponent of m (negative) for the power-type benchmark: the
    error bound decays like lambda^(a r), on lambda(m) = m^e like
    m^(a r e)."""
    return a * r * _rate_law(a, b, r, q, case)


@dataclass(frozen=True)
class LambdaRule:
    """Config-level description of a lambda rule.

    ``params`` may carry "case" (power_table) and must carry "value" in
    (0, 1] (fixed); the smoothness parameters always come from the
    problem.  A refused kind or parameter is a ``FieldError``.  The rule
    keeps a read-only copy of ``params``, so no later write to the
    mapping it was given undoes these checks.
    """

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params",
                           MappingProxyType(dict(self.params)))
        if self.kind not in RULE_NAMES:
            raise FieldError("kind", f"unknown lambda rule {self.kind!r}; "
                             f"expected one of {RULE_NAMES}")
        if self.kind == "fixed":
            value = self.params.get("value")
            if not (_real(value) and 0 < value <= 1):
                raise FieldError("params/value",
                                 "fixed lambda needs params.value in (0, 1]")
            object.__setattr__(self, "params", MappingProxyType(
                dict(self.params, value=float(value))))
        if (self.kind == "power_table"
                and self.params.get("case", CASES[0]) not in CASES):
            raise FieldError("params/case",
                             f"params.case must be one of {CASES}")

    def resolve(self, problem: SpectralProblem, m: int) -> float:
        sm = problem.smoothness
        if self.kind == "fixed":
            return self.params["value"]
        if self.kind == "balance_effdim":
            return lambda_balance_effdim(problem.t, m)
        if sm is None:
            raise ValueError(f"rule {self.kind!r} needs a problem with a "
                             "smoothness spec")
        if self.kind == "balance_general":
            return lambda_balance_general(problem.t, sm, m)
        # a power table without a case is refused, never guessed
        return lambda_power_table(sm.a_link, sm.b, sm.r, sm.q, m,
                                  self.params.get("case"))
