"""Monte Carlo convergence-rate experiments on power-type problems.

For a grid of sample sizes the harness picks lambda from the configured
rule, draws seeded trials, computes the h-norm error of each
regularized solution, and fits the decay exponent of the per-m median
error in log-log coordinates.  The fitted exponent is compared against
the closed-form theoretical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .effdim import _wls_line
from .filters import check_covering, make_filter
from .indexfn import power_fn
from .lambda_rules import LambdaRule, benchmark_order, theoretical_exponent
from .model import (CASES, FieldError, PowerProblemSpec, SpectralProblem,
                    _integral, _not_real, _real)
from .sampling import _trial_seeds, errors, estimate, sample_dataset

DEFAULT_TOLERANCE = 0.08
_DEGENERATE_FLOOR = 1e-13


@dataclass(frozen=True)
class ExperimentConfig:
    """One rate experiment.  A ``power_table`` rule that is missing or
    has no ``params.case`` takes ``case``; a different one is refused.
    ``error_norm`` is "h", the norm that ``theoretical_exponent`` bounds.
    A ``case`` that the problem's r contradicts, and a filter whose
    qualification does not cover the case's index function, are refused
    too; each refusal is a ``FieldError`` at its config key.
    """

    problem: PowerProblemSpec
    filter_id: str = "tikhonov"
    lambda_rule: Optional[LambdaRule] = None
    m_grid: tuple = (256, 512, 1024, 2048, 4096, 8192, 16384)
    trials_per_m: int = 50
    seed: int = 0
    error_norm: str = "h"
    case: str = "regular"
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if not all(map(_integral, self.m_grid)):
            raise FieldError("m_grid", "m_grid entries must be integers")
        ms = tuple(int(m) for m in self.m_grid)
        object.__setattr__(self, "m_grid", ms)
        if len(ms) < 2 or any(b <= a for a, b in zip(ms, ms[1:])):
            raise FieldError("m_grid", "m_grid must be strictly increasing")
        if ms[0] < 1:
            raise FieldError("m_grid", "m_grid entries must be >= 1")
        if math.log10(ms[-1] / ms[0]) < 1.5:
            raise FieldError("m_grid",
                             "m_grid must span at least 1.5 decades")
        if not _integral(self.trials_per_m):
            raise FieldError("trials_per_m", "trials_per_m must be an integer")
        if self.trials_per_m < 10:
            raise FieldError("trials_per_m", "trials_per_m must be >= 10")
        if not (_integral(self.seed) and self.seed >= 0):
            raise FieldError("seed", "seed must be an integer >= 0")
        object.__setattr__(self, "trials_per_m", int(self.trials_per_m))
        object.__setattr__(self, "seed", int(self.seed))
        if self.error_norm != "h":
            raise FieldError("error_norm", "error_norm must be 'h', got "
                             f"{self.error_norm!r}")
        if self.case not in CASES:
            raise FieldError("case", f"case must be one of {CASES}")
        if not (_real(self.tolerance) and self.tolerance >= 0):
            raise FieldError("tolerance", _not_real(
                "tolerance", self.tolerance, "[0, inf)"))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        rule = self.lambda_rule or LambdaRule("power_table")
        if rule.kind == "power_table":
            own = rule.params.get("case", self.case)
            if own != self.case:
                raise FieldError("case", f"lambda_rule params.case {own!r} "
                                 f"differs from case {self.case!r}")
            rule = LambdaRule(rule.kind, dict(rule.params, case=self.case))
        object.__setattr__(self, "lambda_rule", rule)
        sm = self.problem
        try:   # e.g. an oversmoothing case on a problem with r > 1
            theoretical_exponent(sm.a_link, sm.b, sm.r, sm.q, self.case)
        except ValueError as exc:
            raise FieldError("case", str(exc))
        try:
            p = make_filter(self.filter_id).qualification_p
        except ValueError as exc:
            raise FieldError("filter", str(exc))
        target = power_fn(sm.a_link * benchmark_order(self.case, sm.q))
        if not check_covering(min(p, 64.0), target):
            raise FieldError(
                "filter", f"filter {self.filter_id!r} (qualification "
                f"{p:g}) does not cover the {self.case} index function; "
                "config refused")

    def to_dict(self) -> dict:
        return {"problem": self.problem.to_dict(),
                "filter": self.filter_id,
                "lambda_rule": {"kind": self.lambda_rule.kind,
                                "params": dict(self.lambda_rule.params)},
                "m_grid": list(self.m_grid),
                "trials_per_m": self.trials_per_m,
                "seed": self.seed,
                "error_norm": self.error_norm,
                "case": self.case,
                "tolerance": self.tolerance}


@dataclass(frozen=True)
class RateReport:
    per_m: tuple
    fitted_exponent: float
    fit_stderr: float
    theoretical_exponent: float
    passed: bool
    config_hash: str
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {"per_m": [dict(row) for row in self.per_m],
                "fitted_exponent": self.fitted_exponent,
                "fit_stderr": self.fit_stderr,
                "theoretical_exponent": self.theoretical_exponent,
                "pass": self.passed,
                "config_hash": self.config_hash,
                "degenerate": self.degenerate}


def run_rate_experiment(config: ExperimentConfig) -> RateReport:
    """Execute the configured rate experiment; deterministic under seed.

    Per m-cell: lambda from the rule, trials_per_m seeded datasets, the
    h-norm error per trial.  Medians are fitted by weighted least
    squares in log-log (weights = trials / variance of the log errors).
    Each cell also reports ``cg_steps``, the median number of PCG steps
    of the primal Tikhonov solve, a per-cell reading of the hypothesis
    N(lambda) <= m lambda.  It is 0 on routes without a PCG, and a trial
    whose PCG reached its step cap, so that the eigh route answered,
    counts as infinitely many.
    Aborts on any NaN error with the cell named.  ``config_hash`` is
    the digest that the run's manifest records as ``config_sha256``.
    """
    # imported here: reporting reads the package's __version__, which
    # is not yet set while the package imports this module
    from .reporting import sha256_of

    filt = make_filter(config.filter_id)
    sm = config.problem
    theo = theoretical_exponent(sm.a_link, sm.b, sm.r, sm.q, config.case)

    cells = []
    for m in config.m_grid:
        problem = sm.build(m, config.seed)
        lam = config.lambda_rule.resolve(problem, m)
        tseeds = _trial_seeds(config.seed, m, config.trials_per_m)
        cells.append((m, problem, lam, tseeds))

    def one(problem: SpectralProblem, m: int, lam: float, k: int,
            tseed) -> tuple:
        ds = sample_dataset(problem, m, int(tseed))
        est = estimate(problem, ds, filt, lam)
        val = errors(problem, est)["h_norm"]
        if not math.isfinite(val):
            raise RuntimeError(f"non-finite error in cell m={m}, trial={k}")
        return val, est.cg_steps

    # each trial runs in its own call, and every trial before any cell's
    # statistics, so that no trial's arrays outlive it.  The largest of
    # them is one block's cosine table (sampling._POINT_BLOCK x d); with
    # every estimate held and the statistics computed between cells,
    # perfbench's rate_oversmoothing command peaked at 67.4 MB, not 65.5
    results = [[one(problem, m, lam, k, tseed)
                for k, tseed in enumerate(tseeds)]
               for m, problem, lam, tseeds in cells]

    vals = [np.array([val for val, _ in cell]) for cell in results]
    meds = [float(np.median(v)) for v in vals]
    per_m = tuple({"m": m, "lambda_used": float(lam),
                   "mean_error": float(np.mean(v)), "median_error": med,
                   "std_error": float(np.std(v, ddof=1)),
                   "cg_steps": float(np.median([k for _, k in cell]))}
                  for (m, _, lam, _), cell, v, med
                  in zip(cells, results, vals, meds))
    degenerate = min(meds) < _DEGENERATE_FLOOR
    if degenerate:
        slope = stderr = float("nan")
    else:
        n = config.trials_per_m
        log_vars = [float(np.var(np.log(np.maximum(v, _DEGENERATE_FLOOR)),
                                 ddof=1)) for v in vals]
        weights = [n / max(var, 1e-12) for var in log_vars]
        slope, stderr = _wls_line(np.log(config.m_grid),
                                  [math.log(med) for med in meds], weights)
    passed = not degenerate and abs(slope - theo) <= config.tolerance
    return RateReport(per_m=per_m, fitted_exponent=slope, fit_stderr=stderr,
                      theoretical_exponent=theo, passed=passed,
                      config_hash=sha256_of(config.to_dict()),
                      degenerate=degenerate)
