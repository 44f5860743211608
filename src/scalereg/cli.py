"""Command-line front end.

    scalereg COMMAND [--config PATH] [--out DIR] [--seed N]
                     [--set key=value]...

Configs are JSON; --set overrides a (dotted) config key.  ``COMMANDS``
maps each command to its config schema, a ``Group`` with one ``Field``
per key, and to its run function.  ``main`` reads the whole document
against the schema, refusing any key that it does not name, before it
creates --out, so the run function receives typed values only.  The
objects that a schema builds check their own values, and a refusal
names the field it refuses.  Trials run serially, and a seed (--seed
or the config's "seed") is a non-negative integer.  Exit codes: 0 pass,
2 acceptance failure, 1 runtime error, 64 usage error, 65 malformed
config (the message carries a JSON pointer to the field).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import QUANTITIES, _check_zeta, montecarlo_coverage_batch
from .distance import distance_curve
from .effdim import effdim_curve, fit_effdim_exponent
from .filters import (FILTER_NAMES, check_prop_regularization,
                      check_qualification, check_regularization_constants,
                      make_filter)
from .harness import ExperimentConfig, run_rate_experiment
from .indexfn import IndexFunction, power_fn
from .lambda_rules import RULE_NAMES, LambdaRule
from .mercer import K2_NOTE, mercer_decompose
from .model import FieldError, PowerProblemSpec, _integral, _real
from .reporting import (DISTANCE_HEADER, EFFDIM_HEADER, write_bounds_csv,
                        write_curve_csv, write_json, write_manifest,
                        write_rate_csv)
from .svgplot import write_loglog_svg

EX_OK, EX_ERROR, EX_FAIL, EX_USAGE, EX_CONFIG = 0, 1, 2, 64, 65

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


def _integer(val) -> int:
    """A JSON value that ``model._integral`` admits, as an int."""
    if not _integral(val):
        raise ValueError
    return int(val)


def _number(val) -> float:
    """A JSON value that ``model._real`` admits, as a float: strings
    ("2" and "nan" included) are refused too."""
    if not _real(val):
        raise ValueError
    return float(val)


def _string(val) -> str:
    if isinstance(val, str):
        return val
    raise ValueError


def _list_of(read):
    """A reader of a nonempty JSON list whose entries ``read`` reads."""
    def read_list(val) -> list:
        if not isinstance(val, list) or not val:
            raise ValueError
        return [read(v) for v in val]
    read_list.what = f"nonempty list of {read.what}s"
    return read_list


# what a reader reads, in messages and in the README's field table
_integer.what, _number.what, _string.what = "integer", "number", "string"
REQUIRED = object()


def _ge(lo):
    """The range ``>= lo`` as a Field's (need, check)."""
    return f">= {lo}", lambda x: x >= lo


@dataclass(frozen=True)
class Field:
    """One config key: ``read`` is a reader above or a ``Group``;
    ``default`` is REQUIRED, None (the key may be left out, and then has
    no value) or a JSON value, read like a given one; ``check`` tests
    the read value and ``need`` says what it asks; ``choices`` are the
    allowed values (of each entry of a list)."""

    read: object
    default: object = REQUIRED
    need: str = ""
    check: object = None
    choices: tuple = ()

    def value(self, node: dict, key: str, ptr: str):
        ptr = f"{ptr}/{key}"
        raw = node.get(key, self.default)
        if raw is REQUIRED:
            raise ConfigError(ptr, "missing required field")
        try:
            val = (self.read.value(raw, ptr) if isinstance(self.read, Group)
                   else self.read(raw))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(ptr, f"got {raw!r}, need {self.read.what}")
        for item in val if isinstance(val, list) else [val]:
            if self.choices and item not in self.choices:
                raise ConfigError(ptr, f"got {item!r}, need one of "
                                  f"{self.choices}")
        if self.check is not None and not self.check(val):
            raise ConfigError(ptr, f"got {raw!r}, need {self.need}")
        return val


@dataclass(frozen=True)
class Group:
    """A JSON object with the keys ``fields``, plus the ``variants``
    entry named by its ``kind`` field if it has variants.  Exactly one
    of the ``one_of`` fields is given.  ``make`` builds the group's
    value from the dict of the fields that are given or have a default.
    A FieldError that it raises is a config error at the pointer of the
    field that it names, any other ValueError one at the group's."""

    fields: dict
    variants: dict = field(default_factory=dict)
    one_of: tuple = ()
    make: object = dict
    what = "object"

    def value(self, node, ptr: str, **given):
        """The group's value; ``given`` replaces read fields (the --seed
        flag replaces the config's seed)."""
        if not isinstance(node, dict):
            raise ConfigError(ptr, f"got {node!r}, need object")
        fields = dict(self.fields)
        if self.variants:
            fields.update(self.variants[fields["kind"].value(node, "kind",
                                                             ptr)])
        for key in node:
            if key not in fields:
                raise ConfigError(f"{ptr}/{key}", "unknown field (known: "
                                  f"{', '.join(fields) or 'none'})")
        if self.one_of and sum(key in node for key in self.one_of) != 1:
            raise ConfigError(f"{ptr}/{self.one_of[-1]}", "need exactly one "
                              f"of {' and '.join(self.one_of)}")
        vals = {key: f.value(node, key, ptr) for key, f in fields.items()
                if key in node or f.default is not None}
        vals.update(given)
        try:
            return self.make(vals)
        except FieldError as exc:
            raise ConfigError(f"{ptr}/{exc.field}", str(exc))
        except ValueError as exc:
            raise ConfigError(ptr, str(exc))


# ------------------------------------------------- the shared objects

PROBLEM = Group({
    "s": Field(_number), "a_link": Field(_number), "r": Field(_number),
    "q": Field(_number), "R_dagger": Field(_number, PowerProblemSpec.R_dagger),
    "sigma": Field(_number, PowerProblemSpec.sigma),
    "v_pattern": Field(_string, PowerProblemSpec.v_pattern),
    "d": Field(_integer, None)},
    make=lambda v: PowerProblemSpec(d_override=v.pop("d", None), **v))


def _params(**fields) -> dict:
    """The ``params`` object of one lambda-rule kind."""
    return {"params": Field(Group(fields), {})}


RULE = Group(
    {"kind": Field(_string, choices=RULE_NAMES)},
    variants={"balance_effdim": _params(), "balance_general": _params(),
              "power_table": _params(case=Field(_string, None)),
              "fixed": _params(value=Field(_number))},
    make=lambda v: LambdaRule(v["kind"], v["params"]))

INDEX_FN = Group(
    {"kind": Field(_string, choices=("power", "log", "product"))},
    variants={"power": {"exponent": Field(_number)},
              "log": {"p": Field(_number), "nu": Field(_number, 0.0)},
              "product": {}},
    make=lambda v: IndexFunction(**v))
INDEX_FN.variants["product"].update(left=Field(INDEX_FN),
                                    right=Field(INDEX_FN))


# ------------- checks across fields, before --out is created

def _concrete(spec: PowerProblemSpec, seed: int):
    """The SpectralProblem of a power spec with an explicit d."""
    if spec.d_override is None:
        raise ConfigError("/problem/d", "missing required field (this "
                          "command needs a concrete dimension)")
    return spec.build(1, seed)


def _effdim(vals: dict) -> dict:
    if "problem" in vals:
        vals["spectrum"] = _concrete(vals.pop("problem"), vals["seed"]).t
    lo, hi = vals["lambda_lo"], vals["lambda_hi"]
    if not lo < hi:
        raise ConfigError("/lambda_lo", "need lambda_lo < lambda_hi")
    # the decay exponent is fitted over [lambda_lo, lambda_hi] if and
    # only if the config expects one
    if "expected_b" in vals:
        if hi > 1:
            raise ConfigError("/lambda_hi", "fitting expected_b needs "
                              f"lambda_hi <= 1, got {hi!r}")
        try:
            vals["b_hat"] = fit_effdim_exponent(vals["spectrum"], lo,
                                                hi)["b_hat"]
        except ValueError as exc:   # N(lambda_lo) >= d/2
            raise ConfigError("/lambda_lo", str(exc))
    return vals


def _bounds(vals: dict) -> dict:
    rule = vals["lambda_rule"]
    if rule.kind == "power_table" and "case" not in rule.params:
        raise ConfigError("/lambda_rule/params/case", "missing required "
                          "field (bounds has no case of its own)")
    problem = vals["problem"] = _concrete(vals["problem"], vals["seed"])
    try:
        vals["lams"] = [rule.resolve(problem, m) for m in vals["m_values"]]
    except ValueError as exc:   # e.g. a power table case the r refutes
        raise ConfigError("/lambda_rule", str(exc))
    # XI_S's t^s and XI_ZETA's zeta pass the coverage batch's own check
    # at every cell, whether or not the run reads them
    for key in ("s_exponent", "zeta"):
        try:
            fn = (power_fn(vals[key]) if key == "s_exponent"
                  else vals.get(key))
            for lam in vals["lams"]:
                if fn is not None:
                    _check_zeta(fn, float(np.max(problem.t)) + lam)
        except ValueError as exc:
            raise ConfigError(f"/{key}", str(exc))
    return vals


# ------------------------------------------------------------- commands
# each takes its schema's value, the document as given (the manifest
# hashes it) and the output directory

def _cmd_rate(cfg: ExperimentConfig, doc: dict, out: Path) -> int:
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


def _cmd_effdim(cfg: dict, doc: dict, out: Path) -> int:
    lo, hi = cfg["lambda_lo"], cfg["lambda_hi"]
    curve = effdim_curve(cfg["spectrum"], lo, hi, cfg["points_per_decade"])
    write_curve_csv(out / "effdim.csv", EFFDIM_HEADER, curve.lambdas,
                    curve.values)
    write_manifest(out / "manifest.json", doc, cfg["seed"])
    msg = (f"effdim: N({lo:g}) = {curve.values[0]:.6g}, "
           f"N({hi:g}) = {curve.values[-1]:.6g}")
    if "expected_b" not in cfg:
        print(msg)
        return EX_OK
    b_hat, expected_b = cfg["b_hat"], cfg["expected_b"]
    tol = cfg["b_tolerance"]
    failed = abs(b_hat - expected_b) > tol
    print(f"{msg}, fitted decay exponent b = {b_hat:.4f} (expected "
          f"{expected_b:g} +- {tol:g}) -> {'FAIL' if failed else 'PASS'}")
    return EX_FAIL if failed else EX_OK


def _cmd_bounds(cfg: dict, doc: dict, out: Path) -> int:
    reports = []
    for m, lam in zip(cfg["m_values"], cfg["lams"]):
        reports.extend(montecarlo_coverage_batch(
            cfg["problem"], cfg["quantities"], lam, m, cfg["etas"],
            cfg["trials"], cfg["seed"], s=cfg["s_exponent"],
            zeta=cfg.get("zeta")))
    write_bounds_csv(out / "bounds.csv", reports)
    write_json(out / "bounds.json", [r.to_dict() for r in reports])
    write_manifest(out / "manifest.json", doc, cfg["seed"])
    n_pass = sum(r.passed for r in reports)
    worst = min(r.coverage - (1.0 - r.eta) for r in reports)
    print(f"bounds: {n_pass}/{len(reports)} coverage reports passed "
          f"(worst margin {worst:+.4f})")
    return EX_OK if n_pass == len(reports) else EX_FAIL


def _cmd_distance(cfg: dict, doc: dict, out: Path) -> int:
    Rs = cfg["R_values"]
    curve = distance_curve(cfg["problem"], Rs, q=cfg.get("q"))
    write_curve_csv(out / "distance.csv", DISTANCE_HEADER, curve.Rs,
                    curve.values)
    write_manifest(out / "manifest.json", doc, cfg["seed"])
    print(f"distance: {len(Rs)} points, d({min(Rs):g}) = "
          f"{curve.values[int(np.argmin(Rs))]:.6g}, d({max(Rs):g}) = "
          f"{curve.values[int(np.argmax(Rs))]:.6g}")
    return EX_OK


def _cmd_filters_check(cfg: dict, doc: dict, out: Path) -> int:
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


def _cmd_decompose(cfg: dict, doc: dict, out: Path) -> int:
    kernel, grid_n = cfg["kernel"], cfg["grid_n"]
    w, _ = mercer_decompose(kernel, grid_n)
    n_pos = int(np.count_nonzero(w > 0))
    payload = {"kernel": kernel, "grid_n": grid_n,
               "eigenvalues": [float(v) for v in w[:cfg["top"]]],
               "n_positive": n_pos}
    if kernel == "k2":
        payload["note"] = K2_NOTE
        ref = 1.0 / (np.arange(1, 6) * np.pi) ** 2
        payload["max_rel_err_top5_vs_exact"] = float(
            np.max(np.abs(w[:5] - ref) / ref))
    write_json(out / "decompose.json", payload)
    write_manifest(out / "manifest.json", doc, cfg["seed"])
    print(f"decompose: kernel {kernel} on {grid_n} nodes, {n_pos} positive "
          f"modes, top eigenvalue {w[0]:.8g}")
    if kernel == "k2":
        print(f"decompose: {K2_NOTE}")
    return EX_OK


SEED = Field(_integer, 0, *_ge(0))
POSITIVE = ("positive entries", lambda xs: min(xs) > 0)

# every command: its config schema, each field once, and its run
COMMANDS = {
    "rate": (Group({
        "seed": SEED, "problem": Field(PROBLEM),
        "filter": Field(_string, ExperimentConfig.filter_id),
        "lambda_rule": Field(RULE, None),
        "m_grid": Field(_list_of(_integer)),
        "trials_per_m": Field(_integer, ExperimentConfig.trials_per_m),
        "error_norm": Field(_string, ExperimentConfig.error_norm),
        "case": Field(_string, ExperimentConfig.case),
        "tolerance": Field(_number, ExperimentConfig.tolerance)},
        make=lambda v: ExperimentConfig(filter_id=v.pop("filter"), **v)),
        _cmd_rate),
    "effdim": (Group({
        "seed": SEED, "spectrum": Field(_list_of(_number), None, *POSITIVE),
        "problem": Field(PROBLEM, None),
        "lambda_lo": Field(_number, 1e-6, "> 0", lambda x: x > 0),
        "lambda_hi": Field(_number, 1.0),
        "points_per_decade": Field(_integer, 40, *_ge(1)),
        "expected_b": Field(_number, None),
        "b_tolerance": Field(_number, 0.05, *_ge(0))},
        one_of=("spectrum", "problem"), make=_effdim), _cmd_effdim),
    "bounds": (Group({
        "seed": SEED, "problem": Field(PROBLEM),
        "quantities": Field(_list_of(_string),
                            ["PSI", "UPSILON", "LAMBDA_Q", "TX_DEV"],
                            choices=QUANTITIES),
        "etas": Field(_list_of(_number), [0.05, 0.1], "entries in (0, 1)",
                      lambda es: all(0 < e < 1 for e in es)),
        "m_values": Field(_list_of(_integer), REQUIRED, "entries >= 1",
                          lambda ms: min(ms) >= 1),
        "trials": Field(_integer, 500, *_ge(100)),
        "lambda_rule": Field(RULE, {"kind": "balance_effdim"}),
        "s_exponent": Field(_number, 0.5), "zeta": Field(INDEX_FN, None)},
        make=_bounds), _cmd_bounds),
    "distance": (Group({
        "seed": SEED, "problem": Field(PROBLEM),
        "R_values": Field(_list_of(_number), REQUIRED, *POSITIVE),
        "q": Field(_number, None, "> 1", lambda q: q > 1)},
        make=lambda v: dict(v, problem=_concrete(v["problem"], v["seed"]))),
        _cmd_distance),
    "filters-check": (Group({}), _cmd_filters_check),
    "decompose": (Group({
        "seed": SEED, "kernel": Field(_string, "k2", choices=("k1", "k2")),
        "grid_n": Field(_integer, 512, *_ge(16)),
        "top": Field(_integer, 12, *_ge(1))}), _cmd_decompose),
}


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
    if command not in COMMANDS:
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

    schema, run = COMMANDS[command]
    try:
        if args.seed is not None and args.seed < 0:
            raise _UsageError(f"--seed must be >= 0, got {args.seed}")
        doc = {}
        if schema.fields:
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
        for spec in args.overrides:
            _apply_override(doc, spec)
        given = {} if args.seed is None else {"seed": args.seed}
        cfg = schema.value(doc, "", **given)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return run(cfg, doc, out)
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
