"""Command-line front end.

    scalereg COMMAND [--config PATH] [--out DIR] [--seed N]
                     [--set key=value]...

Commands: rate, effdim, bounds, distance, filters-check, decompose.
Configs are JSON; --set overrides a (dotted) config key.  Each command
reads the fields of its list in ``FIELDS`` (a ``problem`` those of
``PROBLEM_FIELDS``, a ``lambda_rule`` those of ``RULE_FIELDS`` and
its ``params`` those of ``RULE_PARAMS``) and refuses any other.  Trials run serially, and a seed (--seed or the
config's "seed") is a non-negative integer.  Exit codes:
0 pass, 2 acceptance failure, 1 runtime error, 64 usage error, 65
malformed config (the message carries a JSON pointer to the field).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .diagnostics import QUANTITIES, _check_zeta, montecarlo_coverage_batch
from .distance import distance_curve
from .effdim import effdim_curve, fit_effdim_exponent
from .filters import (FILTER_NAMES, check_prop_regularization,
                      check_qualification, check_regularization_constants,
                      make_filter)
from .harness import ExperimentConfig, PowerProblemSpec, run_rate_experiment
from .indexfn import from_config as indexfn_from_config
from .indexfn import power_fn
from .lambda_rules import RULE_NAMES, LambdaRule
from .mercer import K2_NOTE, mercer_decompose
from .model import CASES
from .reporting import (DISTANCE_HEADER, EFFDIM_HEADER, write_bounds_csv,
                        write_curve_csv, write_json, write_manifest,
                        write_rate_csv)
from .svgplot import write_loglog_svg

EX_OK, EX_ERROR, EX_FAIL, EX_USAGE, EX_CONFIG = 0, 1, 2, 64, 65

# the config fields each command reads; any other key is a config error
FIELDS = {
    "rate": ("seed", "problem", "filter", "lambda_rule", "m_grid",
             "trials_per_m", "error_norm", "case", "tolerance"),
    "effdim": ("seed", "spectrum", "problem", "lambda_lo", "lambda_hi",
               "points_per_decade", "expected_b", "b_tolerance"),
    "bounds": ("seed", "problem", "quantities", "etas", "m_values", "trials",
               "lambda_rule", "s_exponent", "zeta"),
    "distance": ("seed", "problem", "R_values", "q"),
    "filters-check": (),
    "decompose": ("seed", "kernel", "grid_n", "top"),
}
PROBLEM_FIELDS = ("s", "a_link", "r", "q", "R_dagger", "sigma", "v_pattern",
                  "d")
RULE_FIELDS = ("kind", "params")
# the params each lambda-rule kind reads; the other kinds read none
RULE_PARAMS = {"fixed": ("value",), "power_table": ("case",)}

_USAGE = """\
usage: scalereg COMMAND [--config PATH] [--out DIR] [--seed N]
                        [--set key=value]...

commands:
  rate           convergence-rate experiment (rate_report.json/.csv, rate.svg)
  effdim         effective-dimension curve (effdim.csv)
  bounds         Monte Carlo coverage of the concentration bounds (bounds.csv)
  distance       distance-function curve (distance.csv)
  filters-check  verify filter constants, qualification, covering bounds
  decompose      quadrature eigendecomposition of a reference kernel
                 (kernel k2 reads the source formula 'xt' as x*x')
"""

_MISSING = object()


class ConfigError(Exception):
    """Malformed config; ``pointer`` locates the offending field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(message)
        self.pointer = pointer or "/"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _strict_int(val) -> int:
    """A JSON integer, or a float with an integral value, as an int.

    Everything else, true/false and 1.5 included, raises ValueError:
    truncating would run with a value the config did not ask for.
    """
    if isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(val, int) and not isinstance(val, bool):
        return val
    raise ValueError(f"not an integer: {val!r}")


def _strict_float(val) -> float:
    """A finite JSON number as a float.

    true/false, strings ("2" and "nan" included) and nan/inf raise
    ValueError; an integer beyond the float range raises OverflowError.
    """
    if (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val)):
        return float(val)
    raise ValueError(f"not a finite number: {val!r}")


def _strict_str(val) -> str:
    if isinstance(val, str):
        return val
    raise ValueError(f"not a string: {val!r}")


_READERS = {int: _strict_int, float: _strict_float, str: _strict_str}


def _get(doc, key, ptr, cast=None, default=_MISSING, choices=None):
    if not isinstance(doc, dict):
        raise ConfigError(ptr, "expected an object")
    if key not in doc:
        if default is _MISSING:
            raise ConfigError(f"{ptr}/{key}", "missing required field")
        return default
    val = doc[key]
    if cast is not None:
        try:
            val = _READERS[cast](val)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{ptr}/{key}",
                              f"cannot interpret {val!r} as {cast.__name__}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{ptr}/{key}",
                          f"must be one of {tuple(choices)}, got {val!r}")
    return val


def _float_list(doc, key, ptr, default=_MISSING):
    raw = _get(doc, key, ptr, default=default)
    if raw is default and default is not _MISSING:
        return default
    try:
        vals = [_strict_float(v) for v in raw]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{ptr}/{key}", "must be a list of numbers")
    if not vals:
        raise ConfigError(f"{ptr}/{key}", "must be nonempty")
    return vals


def _refuse_unknown(doc: dict, fields, ptr: str) -> None:
    for key in doc:
        if key not in fields:
            raise ConfigError(f"{ptr}/{key}", "unknown field (known: "
                              f"{', '.join(fields) or 'none'})")


def _lambda_rule_from(doc, ptr) -> LambdaRule:
    kind = _get(doc, "kind", ptr, cast=str, choices=RULE_NAMES)
    params = _get(doc, "params", ptr, default={})
    if not isinstance(params, dict):
        raise ConfigError(f"{ptr}/params", "must be an object")
    _refuse_unknown(params, RULE_PARAMS.get(kind, ()), f"{ptr}/params")
    if kind == "fixed":
        value = _get(params, "value", f"{ptr}/params", cast=float)
        if not 0 < value <= 1:
            raise ConfigError(f"{ptr}/params/value",
                              f"fixed lambda must be in (0, 1], got {value!r}")
    elif kind == "power_table":
        _get(params, "case", f"{ptr}/params", cast=str, default=None,
             choices=CASES)
    return LambdaRule(kind, params)


def _seed_from(doc, seed) -> int:
    """The --seed value if given, else the config's "seed" (default 0)."""
    if seed is not None:
        return seed
    seed = _get(doc, "seed", "", cast=int, default=0)
    if seed < 0:
        raise ConfigError("/seed", f"must be >= 0, got {seed}")
    return seed


def _present(doc, ptr, **casts) -> dict:
    """The fields of ``doc`` named in ``casts`` that it holds, each read
    strictly; a missing one is left out and takes the dataclass default."""
    return {key: _get(doc, key, ptr, cast=cast)
            for key, cast in casts.items() if key in doc}


def _power_spec_from(doc, ptr) -> PowerProblemSpec:
    spec = {key: _get(doc, key, ptr, cast=float)
            for key in ("s", "a_link", "r", "q")}
    spec.update(_present(doc, ptr, R_dagger=float, sigma=float,
                         v_pattern=str))
    if "d" in doc:
        spec["d_override"] = _get(doc, "d", ptr, cast=int)
    try:
        return PowerProblemSpec(**spec)
    except ValueError as exc:
        raise ConfigError(ptr, str(exc))


def _zeta_from(doc):
    """The config's ``zeta`` as an IndexFunction, or None if absent."""
    if doc.get("zeta") is None:
        return None
    try:
        return indexfn_from_config(doc["zeta"])
    except (TypeError, ValueError) as exc:
        raise ConfigError("/zeta", str(exc))


def _concrete_problem(doc, ptr, seed: int):
    """The SpectralProblem of a power spec with an explicit d."""
    spec = _power_spec_from(doc, ptr)
    if spec.d_override is None:
        raise ConfigError(f"{ptr}/d", "missing required field (this command "
                          "needs a concrete dimension)")
    try:
        return spec.build(1, seed)
    except ValueError as exc:
        raise ConfigError(ptr, str(exc))


def _experiment_from_doc(doc, seed: int) -> ExperimentConfig:
    prob = _power_spec_from(_get(doc, "problem", ""), "/problem")
    m_grid = _get(doc, "m_grid", "")
    try:
        m_grid = tuple(_strict_int(m) for m in m_grid)
    except (TypeError, ValueError):
        raise ConfigError("/m_grid", "must be a list of integers")
    kwargs = _present(doc, "", trials_per_m=int, error_norm=str, case=str,
                      tolerance=float)
    if "filter" in doc:
        kwargs["filter_id"] = _get(doc, "filter", "", cast=str,
                                   choices=FILTER_NAMES)
    if "lambda_rule" in doc:
        kwargs["lambda_rule"] = _lambda_rule_from(doc["lambda_rule"],
                                                  "/lambda_rule")
    try:
        return ExperimentConfig(problem=prob, m_grid=m_grid, seed=seed,
                                **kwargs)
    except ValueError as exc:
        msg = str(exc)
        for key in ("m_grid", "trials_per_m", "error_norm", "case",
                    "tolerance"):
            if key in msg:
                raise ConfigError(f"/{key}", msg)
        raise ConfigError("", msg)


# ------------------------------------------------------------- commands

def _cmd_rate(doc, out: Path, seed: int) -> int:
    cfg = _experiment_from_doc(doc, seed)
    report = run_rate_experiment(cfg)
    write_json(out / "rate_report.json", report.to_dict())
    write_rate_csv(out / "rate_report.csv", report)
    pts = [(row["m"], row["median_error"]) for row in report.per_m
           if row["median_error"] > 0]
    if len(pts) >= 2:
        write_loglog_svg(
            out / "rate.svg", pts,
            fitted_slope=None if report.degenerate else report.fitted_exponent,
            theoretical_slope=report.theoretical_exponent,
            title=f"median error vs m ({cfg.filter_id}, {cfg.case})")
    write_manifest(out / "manifest.json", cfg.to_dict(), cfg.seed)
    if report.degenerate:
        print("rate: degenerate fit (errors at machine zero); "
              f"theoretical exponent {report.theoretical_exponent:.4f}")
        return EX_FAIL
    verdict = "PASS" if report.passed else "FAIL"
    print(f"rate: fitted exponent {report.fitted_exponent:.4f} vs "
          f"theoretical {report.theoretical_exponent:.4f} "
          f"(tolerance {cfg.tolerance:g}) -> {verdict}")
    return EX_OK if report.passed else EX_FAIL


def _cmd_effdim(doc, out: Path, seed: int) -> int:
    if "spectrum" in doc:
        spectrum = np.asarray(_float_list(doc, "spectrum", ""),
                              dtype=np.float64)
        if np.any(spectrum <= 0):
            raise ConfigError("/spectrum", "entries must be positive")
    else:
        problem = _concrete_problem(_get(doc, "problem", ""), "/problem", seed)
        spectrum = problem.t
    lo = _get(doc, "lambda_lo", "", cast=float, default=1e-6)
    hi = _get(doc, "lambda_hi", "", cast=float, default=1.0)
    ppd = _get(doc, "points_per_decade", "", cast=int, default=40)
    if not 0 < lo < hi:
        raise ConfigError("/lambda_lo", "need 0 < lambda_lo < lambda_hi")
    if ppd < 1:
        raise ConfigError("/points_per_decade", f"must be >= 1, got {ppd}")
    # the decay exponent is fitted over [lambda_lo, lambda_hi] if and
    # only if the config expects one
    expected_b = _get(doc, "expected_b", "", cast=float, default=None)
    tol = _get(doc, "b_tolerance", "", cast=float, default=0.05)
    if tol < 0:
        raise ConfigError("/b_tolerance", f"must be >= 0, got {tol!r}")
    if expected_b is not None and hi > 1:
        raise ConfigError("/lambda_hi", "fitting expected_b needs "
                          f"lambda_hi <= 1, got {hi!r}")
    curve = effdim_curve(spectrum, lo, hi, ppd)
    write_curve_csv(out / "effdim.csv", EFFDIM_HEADER, curve.lambdas,
                    curve.values)
    write_manifest(out / "manifest.json", doc, seed)
    msg = (f"effdim: N({lo:g}) = {curve.values[0]:.6g}, "
           f"N({hi:g}) = {curve.values[-1]:.6g}")
    if expected_b is None:
        print(msg)
        return EX_OK
    b_hat = fit_effdim_exponent(spectrum, lo, hi)["b_hat"]
    failed = abs(b_hat - expected_b) > tol
    print(f"{msg}, fitted decay exponent b = {b_hat:.4f} (expected "
          f"{expected_b:g} +- {tol:g}) -> {'FAIL' if failed else 'PASS'}")
    return EX_FAIL if failed else EX_OK


def _cmd_bounds(doc, out: Path, seed: int) -> int:
    problem = _concrete_problem(_get(doc, "problem", ""), "/problem", seed)
    quantities = _get(doc, "quantities", "",
                      default=["PSI", "UPSILON", "LAMBDA_Q", "TX_DEV"])
    for q in quantities:
        if q not in QUANTITIES:
            raise ConfigError("/quantities",
                              f"unknown quantity {q!r}; expected subset of "
                              f"{QUANTITIES}")
    etas = _float_list(doc, "etas", "", default=[0.05, 0.1])
    for eta in etas:
        if not 0 < eta < 1:
            raise ConfigError("/etas", "entries must lie in (0, 1)")
    m_values = _get(doc, "m_values", "")
    try:
        m_values = [_strict_int(m) for m in m_values]
    except (TypeError, ValueError):
        raise ConfigError("/m_values", "must be a list of integers")
    if not m_values or min(m_values) < 1:
        raise ConfigError("/m_values", "must be a nonempty list of sample "
                          "sizes >= 1")
    trials = _get(doc, "trials", "", cast=int, default=500)
    if trials < 100:
        raise ConfigError("/trials", "need at least 100 trials")
    rule = _lambda_rule_from(
        _get(doc, "lambda_rule", "", default={"kind": "balance_effdim"}),
        "/lambda_rule")
    if rule.kind == "power_table":
        # bounds has no case of its own for the table to take
        _get(rule.params, "case", "/lambda_rule/params")
    s_exp = _get(doc, "s_exponent", "", cast=float, default=0.5)
    zeta = _zeta_from(doc)
    lams = [rule.resolve(problem, m) for m in m_values]
    # XI_S's t^s and XI_ZETA's zeta pass the coverage batch's own check
    # at every cell before any trial runs, whether or not the run reads
    # them
    for ptr, fn in (("/s_exponent", {"kind": "power", "exponent": s_exp}),
                    ("/zeta", zeta)):
        try:
            for lam in lams:
                if fn is not None:
                    _check_zeta(fn, float(np.max(problem.t)) + lam)
        except ValueError as exc:
            raise ConfigError(ptr, str(exc))

    reports = []
    for m, lam in zip(m_values, lams):
        reports.extend(montecarlo_coverage_batch(
            problem, quantities, lam, m, etas, trials, seed,
            s=s_exp, zeta=zeta))
    write_bounds_csv(out / "bounds.csv", reports)
    write_json(out / "bounds.json", [r.to_dict() for r in reports])
    write_manifest(out / "manifest.json", doc, seed)
    n_pass = sum(r.passed for r in reports)
    worst = min(r.coverage - (1.0 - r.eta) for r in reports)
    print(f"bounds: {n_pass}/{len(reports)} coverage reports passed "
          f"(worst margin {worst:+.4f})")
    return EX_OK if n_pass == len(reports) else EX_FAIL


def _cmd_distance(doc, out: Path, seed: int) -> int:
    problem = _concrete_problem(_get(doc, "problem", ""), "/problem", seed)
    Rs = _float_list(doc, "R_values", "")
    if any(R <= 0 for R in Rs):
        raise ConfigError("/R_values", "entries must be positive")
    qv = _get(doc, "q", "", cast=float, default=None)
    if qv is not None and qv <= 1:
        raise ConfigError("/q", "needs q > 1")
    curve = distance_curve(problem, Rs, q=qv)
    write_curve_csv(out / "distance.csv", DISTANCE_HEADER, curve.Rs,
                    curve.values)
    write_manifest(out / "manifest.json", doc, seed)
    print(f"distance: {len(Rs)} points, d({min(Rs):g}) = "
          f"{curve.values[int(np.argmin(Rs))]:.6g}, d({max(Rs):g}) = "
          f"{curve.values[int(np.argmax(Rs))]:.6g}")
    return EX_OK


def _cmd_filters_check(doc, out: Path, seed: int) -> int:
    rows, ok = [], True
    for name in FILTER_NAMES:
        filt = make_filter(name)
        rep = check_regularization_constants(filt)
        gp_obs = check_qualification(filt, 1.0)
        gp_decl = filt.gamma_p_at(1.0)
        row_ok = rep.passed and gp_obs <= gp_decl + 1e-9
        ok &= row_ok
        rows.append({"filter": name, "D_obs": rep.D_obs, "B_obs": rep.B_obs,
                     "gamma_obs": rep.gamma_obs, "gamma_p_obs": gp_obs,
                     "gamma_p_declared": gp_decl, "pass": row_ok})
        print(f"filters-check: {name:10s} D={rep.D_obs:.6f} "
              f"B={rep.B_obs:.6f} gamma={rep.gamma_obs:.6f} "
              f"gamma_1={gp_obs:.6f} (declared {gp_decl:.6f}) "
              f"{'ok' if row_ok else 'FAIL'}")

    props = []
    for name, phi in (("tikhonov", power_fn(0.5)), ("cutoff", power_fn(1.0))):
        rep = check_prop_regularization(make_filter(name), phi)
        ok &= rep.passed
        props.append({"filter": name, "p": rep.p, "c_p": rep.c_p,
                      "max_ratio_1": rep.max_ratio_1,
                      "max_ratio_2": rep.max_ratio_2, "pass": rep.passed})
        print(f"filters-check: {name} residual bounds p={rep.p:g}: "
              f"{rep.max_ratio_1:.6f} <= {rep.c_p:.6f} and "
              f"{rep.max_ratio_2:.6f} <= {2 ** rep.p * rep.c_p:.6f} "
              f"{'ok' if rep.passed else 'FAIL'}")

    tik2 = check_qualification(make_filter("tikhonov"), 2.0)
    saturated = tik2 > 10.0
    ok &= saturated
    print(f"filters-check: tikhonov order-2 envelope {tik2:.3g} > 10 "
          f"(saturation at order 1) {'ok' if saturated else 'FAIL'}")

    write_json(out / "filters_check.json",
               {"constants": rows, "residual_bounds": props,
                "tikhonov_order2_envelope": tik2, "pass": bool(ok)})
    return EX_OK if ok else EX_FAIL


def _cmd_decompose(doc, out: Path, seed: int) -> int:
    kernel = _get(doc, "kernel", "", cast=str, default="k2",
                  choices=("k1", "k2"))
    grid_n = _get(doc, "grid_n", "", cast=int, default=512)
    if grid_n < 16:
        raise ConfigError("/grid_n", "must be >= 16")
    top = _get(doc, "top", "", cast=int, default=12)
    if top < 1:
        raise ConfigError("/top", f"must be >= 1, got {top}")
    w, _ = mercer_decompose(kernel, grid_n)
    n_pos = int(np.count_nonzero(w > 0))
    payload = {"kernel": kernel, "grid_n": grid_n,
               "eigenvalues": [float(v) for v in w[:top]],
               "n_positive": n_pos}
    if kernel == "k2":
        payload["note"] = K2_NOTE
        ref = 1.0 / (np.arange(1, 6) * np.pi) ** 2
        payload["max_rel_err_top5_vs_exact"] = float(
            np.max(np.abs(w[:5] - ref) / ref))
    write_json(out / "decompose.json", payload)
    write_manifest(out / "manifest.json", doc, seed)
    print(f"decompose: kernel {kernel} on {grid_n} nodes, {n_pos} positive "
          f"modes, top eigenvalue {w[0]:.8g}")
    if kernel == "k2":
        print(f"decompose: {K2_NOTE}")
    return EX_OK


_DISPATCH = {"rate": _cmd_rate, "effdim": _cmd_effdim, "bounds": _cmd_bounds,
             "distance": _cmd_distance, "filters-check": _cmd_filters_check,
             "decompose": _cmd_decompose}

_NEEDS_CONFIG = {"rate", "effdim", "bounds", "distance", "decompose"}


def _apply_override(doc: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError("/", f"--set needs key=value, got {spec!r}")
    key, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError("/" + "/".join(parts),
                              f"cannot override inside non-object {part!r}")
    node[parts[-1]] = value


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return EX_OK if argv else EX_USAGE
    command = argv[0]
    if command not in FIELDS:
        sys.stderr.write(f"unknown command {command!r}\n{_USAGE}")
        return EX_USAGE

    parser = _Parser(prog=f"scalereg {command}", add_help=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--set", action="append", default=[],
                        dest="overrides", metavar="KEY=VALUE")
    try:
        args = parser.parse_args(argv[1:])
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n{_USAGE}")
        return EX_USAGE

    try:
        if args.seed is not None and args.seed < 0:
            raise _UsageError(f"--seed must be >= 0, got {args.seed}")
        if command in _NEEDS_CONFIG:
            if args.config is None:
                raise _UsageError(f"{command} requires --config")
            path = Path(args.config)
            if not path.is_file():
                raise ConfigError("/", f"config file not found: {path}")
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError("/", f"invalid JSON: {exc}")
            if not isinstance(doc, dict):
                raise ConfigError("/", "top-level config must be an object")
        else:
            doc = {}
        for spec in args.overrides:
            _apply_override(doc, spec)
        _refuse_unknown(doc, FIELDS[command], "")
        for key, fields in (("problem", PROBLEM_FIELDS),
                            ("lambda_rule", RULE_FIELDS)):
            if isinstance(doc.get(key), dict):
                _refuse_unknown(doc[key], fields, f"/{key}")
        seed = _seed_from(doc, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[command](doc, out, seed)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n{_USAGE}")
        return EX_USAGE
    except ConfigError as exc:
        sys.stderr.write(f"config error at {exc.pointer}: {exc}\n")
        return EX_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EX_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
