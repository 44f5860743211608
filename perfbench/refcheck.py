"""Independent reference values for the outputs the benchmark checks.

Designs are built with direct ``np.cos`` and systems solved densely with
numpy; nothing here calls scalereg's kernels.  Only the data model is
shared: design points and noise come from the counter-based streams
documented in ``scalereg.sampling`` (Philox keyed by (trial seed, 0) and
(trial seed, 1)), with trial seeds drawn from SeedSequence([seed, m]).
The tolerance is the one criteria 07 and 14 use.

Each check returns one entry per Monte Carlo cell it covers; a cell
whose entry is not ok counts all of its trials as failed.
"""

from __future__ import annotations

import inspect

import numpy as np

REL_TOL = 1e-10


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), which])))


def _trial_seeds(seed: int, m: int, trials: int) -> np.ndarray:
    return np.random.SeedSequence([seed, m]).generate_state(
        trials, dtype=np.uint64)


def _basis(x: np.ndarray, d: int) -> np.ndarray:
    """e_1 = 1, e_j = sqrt(2) cos((j-1) pi x), by direct cosines."""
    out = np.sqrt(2.0) * np.cos(np.pi * np.outer(x, np.arange(d)))
    out[:, 0] = 1.0
    return out


def _rel(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / (scale if scale > 0 else 1.0)


def _entry(m: int, trials: int, errs: dict) -> dict:
    worst = max(errs.values())
    return {"m": m, "trials": trials, "ok": bool(worst <= REL_TOL),
            "max_rel_err": worst, "rel_err": errs}


def _harness_estimate_kwargs(filter_id: str) -> dict:
    # mirror the harness: Tikhonov goes through the direct solve where
    # the estimator still offers that switch
    from scalereg import estimate
    if "tikhonov_direct" in inspect.signature(estimate).parameters:
        return {"tikhonov_direct": filter_id == "tikhonov"}
    return {}


def check_rate(cfg: dict, seed: int, report: dict) -> list:
    """First trial of each cell: Tikhonov solution against a dense solve."""
    from scalereg import (LambdaRule, PowerProblemSpec, errors, estimate,
                          make_filter, sample_dataset)

    spec = PowerProblemSpec(**cfg["problem"])
    rule = LambdaRule(cfg["lambda_rule"]["kind"],
                      cfg["lambda_rule"].get("params", {}))
    filt = make_filter(cfg["filter"])
    kwargs = _harness_estimate_kwargs(cfg["filter"])
    rows = {row["m"]: row for row in report["per_m"]}
    trials = int(cfg["trials_per_m"])
    out = []
    for m in cfg["m_grid"]:
        problem = spec.build(m, seed)
        lam = rule.resolve(problem, m)
        tseed = int(_trial_seeds(seed, m, trials)[0])
        ds = sample_dataset(problem, m, tseed)
        est = estimate(problem, ds, filt, lam, **kwargs)

        a, l, f = problem.a, problem.l, problem.f_true
        sigma = problem.noise.sigma
        x = _stream(tseed, 0).random(m)
        basis = _basis(x, problem.d)
        y = basis @ (a * f)
        if sigma > 0:
            y = y + sigma * _stream(tseed, 1).standard_normal(m)
        design = basis * (a / l)
        lhs = design.T @ design / m
        lhs[np.diag_indices_from(lhs)] += lam
        f_ref = np.linalg.solve(lhs, design.T @ y / m) / l
        h_ref = float(np.linalg.norm(f_ref - f))
        out.append(_entry(m, trials, {
            "lambda": _rel(rows[m]["lambda_used"], lam),
            "x": _rel(ds.x, x),
            "y": _rel(ds.y, y),
            "f_hat": _rel(est.f_hat, f_ref),
            "h_norm": _rel(errors(problem, est)["h_norm"], h_ref),
        }))
    return out


def check_coverage(cfg: dict, seed: int, reports: list) -> list:
    """Smallest cell: every trial's TX_DEV and UPSILON, recomputed, must
    reproduce the reported quantiles and coverages."""
    from scalereg import PowerProblemSpec

    prob_doc = dict(cfg["problem"])
    d = int(prob_doc.pop("d"))
    problem = PowerProblemSpec(d_override=d, **prob_doc).build(1, seed)
    m = min(int(v) for v in cfg["m_values"])
    trials = int(cfg["trials"])
    rows = [r for r in reports if r["m"] == m]
    lam = rows[0]["lambda"]
    t = (problem.a / problem.l) ** 2
    n_eff = float(np.sum(t / (t + lam)))
    errs = {"balance": abs(n_eff - m * lam) / (m * lam)}

    vals = {"TX_DEV": [], "UPSILON": []}
    for tseed in _trial_seeds(seed, m, trials):
        x = _stream(int(tseed), 0).random(m)
        design = _basis(x, d) * (problem.a / problem.l)
        dev = np.diag(t) - design.T @ design / m
        vals["TX_DEV"].append(np.linalg.norm(dev))
        vals["UPSILON"].append(np.linalg.norm(dev / np.sqrt(t + lam)[:, None]))
    for row in rows:
        q = row["quantity"]
        if q not in vals:
            continue
        v = np.asarray(vals[q])
        key = f"{q}@{row['eta']:g}"
        errs[f"{key}.quantile"] = _rel(row["empirical_quantile"],
                                       np.quantile(v, 1.0 - row["eta"]))
        errs[f"{key}.coverage"] = _rel(row["coverage"],
                                       np.mean(v <= row["bound_value"]))
    return [_entry(m, trials, errs)]
