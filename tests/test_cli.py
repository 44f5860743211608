import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scalereg
from scalereg.cli import COMMANDS, REQUIRED, Group, main
from scalereg.filters import FILTER_NAMES
from scalereg.model import CASES, V_PATTERNS

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_RATE = {
    "problem": {"s": 1.0, "a_link": 0.5, "r": 0.5, "q": 1.0,
                "R_dagger": 1.0, "sigma": 0.05, "d": 32},
    "filter": "tikhonov",
    "lambda_rule": {"kind": "power_table", "params": {"case": "oversmoothing"}},
    "m_grid": [64, 128, 256, 512, 1024, 2048],
    "trials_per_m": 10,
    "seed": 5,
    "error_norm": "h",
    "case": "oversmoothing",
    "tolerance": 0.5,
}

SMALL_BOUNDS = {
    "problem": {"s": 1.0, "a_link": 0.5, "r": 0.5, "q": 1.0,
                "R_dagger": 1.0, "sigma": 0.05, "d": 32},
    "quantities": ["PSI", "TX_DEV"],
    "etas": [0.1],
    "m_values": [256],
    "trials": 100,
    "lambda_rule": {"kind": "balance_effdim", "params": {}},
}

SMALL_EFFDIM = {"spectrum": [1.0, 0.25, 0.0625, 0.015625],
                "lambda_lo": 1e-3, "lambda_hi": 0.5}

EFFDIM_DEFAULT = json.loads(
    (ROOT / "configs" / "effdim_default.json").read_text(encoding="utf-8"))
RATE_REGULAR = json.loads(
    (ROOT / "configs" / "rate_regular.json").read_text(encoding="utf-8"))

RATE_AND_BOUNDS = [pytest.param("rate", SMALL_RATE, id="rate"),
                   pytest.param("bounds", SMALL_BOUNDS, id="bounds")]


def test_no_arguments_is_usage(capsys):
    assert main([]) == 64
    assert "usage" in capsys.readouterr().out.lower()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "rate" in capsys.readouterr().out


def test_unknown_command_is_usage(capsys):
    assert main(["frobnicate"]) == 64
    assert "unknown command" in capsys.readouterr().err


def test_missing_config_flag_is_usage(tmp_path, capsys):
    assert main(["rate", "--out", str(tmp_path)]) == 64
    assert "requires --config" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["rate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 65
    assert "config error at /" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rate", "--config", str(bad), "--out", str(tmp_path)]) == 65
    assert "invalid JSON" in capsys.readouterr().err


def test_bad_field_reports_json_pointer(tmp_path, capsys):
    for rule, pointer in [
            ({"kind": "newton", "params": {}}, "/lambda_rule/kind"),
            ({"kind": "fixed", "params": {}}, "/lambda_rule/params/value"),
            ({"kind": "fixed", "params": {"value": 0.0}},
             "/lambda_rule/params/value"),
            ({"kind": "fixed", "params": {"value": 1.5}},
             "/lambda_rule/params/value"),
            ({"kind": "power_table", "params": {"case": "bogus"}},
             "/lambda_rule/params/case")]:
        cfg = _write(tmp_path, "cfg.json", dict(SMALL_RATE, lambda_rule=rule))
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 65
        assert f"config error at {pointer}:" in capsys.readouterr().err, rule
        assert not out.exists(), rule
    # integer fields take integers (or integral floats), never a bool or
    # a truncated fraction
    for command, doc, override, pointer in [
            ("rate", SMALL_RATE, "seed=1.5", "/seed"),
            ("rate", SMALL_RATE, "seed=true", "/seed"),
            ("rate", SMALL_RATE, "trials_per_m=10.9", "/trials_per_m"),
            ("rate", SMALL_RATE, "trials_per_m=false", "/trials_per_m"),
            ("rate", SMALL_RATE, "m_grid=[64, 128.5, 256, 512]", "/m_grid"),
            ("rate", SMALL_RATE, "problem.d=32.5", "/problem/d"),
            ("bounds", SMALL_BOUNDS, "m_values=[1024.9]", "/m_values"),
            ("bounds", SMALL_BOUNDS, "m_values=[true]", "/m_values"),
            ("bounds", SMALL_BOUNDS, "trials=true", "/trials"),
            ("decompose", {"kernel": "k2"}, "grid_n=64.5", "/grid_n"),
            # float fields take finite JSON numbers only, and string
            # fields strings only
            ("rate", SMALL_RATE, "problem.sigma=true", "/problem/sigma"),
            ("rate", SMALL_RATE, 'problem.r="2"', "/problem/r"),
            ("rate", SMALL_RATE, 'tolerance="nan"', "/tolerance"),
            ("rate", SMALL_RATE, "tolerance=NaN", "/tolerance"),
            ("rate", SMALL_RATE, "problem.v_pattern=1",
             "/problem/v_pattern"),
            ("effdim", SMALL_EFFDIM, "lambda_hi=true", "/lambda_hi"),
            ("effdim", SMALL_EFFDIM, 'spectrum=[1.0, "0.5"]', "/spectrum"),
            ("bounds", SMALL_BOUNDS, "etas=[false]", "/etas"),
            # problem parameters are checked before any trial runs
            ("rate", SMALL_RATE, "problem.a_link=0.7", "/problem/a_link"),
            ("rate", SMALL_RATE, "problem.v_pattern=bogus",
             "/problem/v_pattern"),
            ("rate", SMALL_RATE, "problem.d=0", "/problem/d"),
            ("rate", SMALL_RATE, "problem.d=1", "/problem/d"),
            ("rate", SMALL_RATE, "problem.sigma=-1", "/problem/sigma"),
            ("rate", SMALL_RATE, "problem.q=0.5", "/problem/q"),
            # the power table's case is the config's case
            ("rate", SMALL_RATE, "case=regular", "/case"),
            # and the case is one that the problem's r admits
            ("rate", SMALL_RATE, "problem.r=2", "/case"),
            ("rate", dict(SMALL_RATE, case="regular", lambda_rule={
                "kind": "power_table", "params": {"case": "regular"}}),
             "problem.q=4", "/case"),
            # and the filter's qualification covers the case's index
            # function (Tikhonov's 1 against a * q = 2)
            ("rate", RATE_REGULAR, "problem.q=8", "/filter"),
            # bounds has no case, so its power table must name one
            ("bounds", SMALL_BOUNDS, "lambda_rule.kind=power_table",
             "/lambda_rule/params/case"),
            # a field the command does not read is refused, at the top
            # level, in problem, in lambda_rule and in its params
            ("rate", SMALL_RATE, "trials_per_n=5", "/trials_per_n"),
            ("rate", SMALL_RATE, 'zeta={"kind": "power", "exponent": 0.5}',
             "/zeta"),
            ("effdim", SMALL_EFFDIM, "fit_lo=1e-3", "/fit_lo"),
            ("filters-check", {}, "seed=1", "/seed"),
            ("bounds", SMALL_BOUNDS, "problem.dd=3", "/problem/dd"),
            ("distance", {"problem": SMALL_BOUNDS["problem"],
                          "R_values": [0.5]},
             "problem.a=[1.0, 0.5]", "/problem/a"),
            ("rate", SMALL_RATE, "lambda_rule.parms={}",
             "/lambda_rule/parms"),
            ("rate", SMALL_RATE, "lambda_rule.params.cse=regular",
             "/lambda_rule/params/cse"),
            # rate gates the h norm only, the norm its exponent bounds
            ("rate", SMALL_RATE, "error_norm=prediction", "/error_norm"),
            # the choices and ranges of the experiment's own fields
            ("rate", SMALL_RATE, "filter=bogus", "/filter"),
            ("rate", SMALL_RATE, "case=bogus", "/case"),
            ("rate", SMALL_RATE, "trials_per_m=3", "/trials_per_m"),
            # zeta is read as an index function, and it and XI_S's t^s
            # must pass the coverage check at every cell, before any
            # trial runs and whether or not the run reads them
            ("bounds", SMALL_BOUNDS, 'zeta={"kind": "power", "exponent": -1}',
             "/zeta/exponent"),
            ("bounds", SMALL_BOUNDS, 'zeta={"kind": "power", "exponent": 2}',
             "/zeta"),
            ("bounds", SMALL_BOUNDS, "s_exponent=2", "/s_exponent"),
            ("bounds", SMALL_BOUNDS, "s_exponent=-1", "/s_exponent"),
            # range checks
            ("bounds", SMALL_BOUNDS, "m_values=[]", "/m_values"),
            ("bounds", SMALL_BOUNDS, "m_values=[0]", "/m_values"),
            ("rate", SMALL_RATE, "m_grid=[0, 64, 2048]", "/m_grid"),
            ("decompose", {"kernel": "k2"}, "top=-2", "/top"),
            ("effdim", SMALL_EFFDIM, "points_per_decade=-5",
             "/points_per_decade"),
            ("effdim", dict(SMALL_EFFDIM, expected_b=0.5), "lambda_hi=2",
             "/lambda_hi"),
            ("effdim", dict(SMALL_EFFDIM, expected_b=0.5), "b_tolerance=-1",
             "/b_tolerance"),
            ("rate", SMALL_RATE, "tolerance=-1", "/tolerance"),
            # effdim fits before it writes, and reads spectrum or
            # problem, never both
            ("effdim", EFFDIM_DEFAULT, "problem.d=64", "/lambda_lo"),
            ("effdim", EFFDIM_DEFAULT, "spectrum=[1.0, 0.5, 0.25, 0.125]",
             "/problem"),
            # a lambda rule that the problem refutes
            ("bounds", dict(SMALL_BOUNDS, lambda_rule={"kind": "power_table"}),
             "lambda_rule.params.case=regular", "/lambda_rule"),
            # quantities is a nonempty list
            ("bounds", SMALL_BOUNDS, "quantities=[]", "/quantities"),
            ("bounds", SMALL_BOUNDS, "quantities=PSI", "/quantities"),
            # zeta's fields are read strictly, at every depth
            ("bounds", SMALL_BOUNDS,
             'zeta={"kind": "power", "exponent": "0.5"}', "/zeta/exponent"),
            ("bounds", SMALL_BOUNDS,
             'zeta={"kind": "power", "exponent": true}', "/zeta/exponent"),
            ("bounds", SMALL_BOUNDS,
             'zeta={"kind": "power", "exponent": 0.5, "expnt": 3}',
             "/zeta/expnt"),
            ("bounds", SMALL_BOUNDS,
             'zeta={"kind": "product", "left": {"kind": "log", "p": 1,'
             ' "nu": "2"}, "right": {"kind": "power", "exponent": 0.5}}',
             "/zeta/left/nu"),
            # phi_inverse is not a rule kind
            ("rate", SMALL_RATE, "lambda_rule.kind=phi_inverse",
             "/lambda_rule/kind")]:
        cfg = _write(tmp_path, "cfg.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out),
                     "--set", override]) == 65, override
        err = capsys.readouterr().err
        assert f"config error at {pointer}:" in err, override
        assert not out.exists(), override
        if override == "quantities=PSI":
            assert "need nonempty list of strings" in err


@pytest.mark.parametrize("command", ["rate", "bounds"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_thread_count_below_one_is_usage(tmp_path, capsys, command, threads):
    # trials run serially and --threads is gone, so any value of it, a
    # count below one included, is a usage error raised before any work
    # starts: no output directory appears
    cfg = _write(tmp_path, "cfg.json",
                 SMALL_RATE if command == "rate" else SMALL_BOUNDS)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--threads", threads]) == 64
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --threads {threads}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc", RATE_AND_BOUNDS)
def test_negative_seed_flag_is_usage(tmp_path, capsys, command, doc):
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--seed", "-1"]) == 64
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, doc", RATE_AND_BOUNDS)
def test_negative_config_seed_is_config_error(tmp_path, capsys, command, doc):
    cfg = _write(tmp_path, "cfg.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--set", "seed=-2"]) == 65
    assert "config error at /seed:" in capsys.readouterr().err


def test_rate_end_to_end(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SMALL_RATE)
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "rate: fitted exponent" in printed and "PASS" in printed
    report = json.loads((out / "rate_report.json").read_text())
    assert report["pass"] is True
    assert len(report["per_m"]) == 6
    csv_lines = (out / "rate_report.csv").read_text().splitlines()
    assert f"# fitted_exponent,{report['fitted_exponent']!r}" in csv_lines
    assert (out / "rate.svg").read_text().startswith("<svg")
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 5 and "config_sha256" in man


def test_rate_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SMALL_RATE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["rate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["rate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("rate_report.json", "rate_report.csv", "rate.svg",
                 "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_rate_without_lambda_rule_uses_the_table_of_its_case(tmp_path,
                                                            capsys):
    # a missing rule, or a power_table rule without params.case, is the
    # table of the config's case: the same run, config hash included
    outputs = []
    for rule in (SMALL_RATE["lambda_rule"], None, {"kind": "power_table"}):
        doc = {k: v for k, v in SMALL_RATE.items() if k != "lambda_rule"}
        if rule is not None:
            doc["lambda_rule"] = rule
        out = tmp_path / f"out{len(outputs)}"
        assert main(["rate", "--config", _write(tmp_path, "cfg.json", doc),
                     "--out", str(out)]) == 0
        outputs.append([capsys.readouterr().out] + [
            (out / name).read_bytes()
            for name in ("rate_report.json", "rate_report.csv", "rate.svg",
                         "manifest.json")])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_rate_failure_exit_code(tmp_path, capsys):
    doc = dict(SMALL_RATE, tolerance=1e-6)
    cfg = _write(tmp_path, "cfg.json", doc)
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "f")]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_rate_degenerate_fit_exit_code(tmp_path, capsys):
    # noiseless cutoff recovery puts every error at machine zero: the run
    # exits 2, says so, and its plot carries the theory line but no fit
    doc = dict(SMALL_RATE, filter="cutoff",
               problem=dict(SMALL_RATE["problem"], sigma=0.0, d=16),
               lambda_rule={"kind": "fixed", "params": {"value": 1e-3}},
               seed=0)
    out = tmp_path / "out"
    assert main(["rate", "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(out)]) == 2
    assert "degenerate fit" in capsys.readouterr().out
    svg = (out / "rate.svg").read_text()
    assert ">theory " in svg and ">fit " not in svg


def test_set_override_changes_seed(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SMALL_RATE)
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out),
                 "--set", "seed=9", "--set", "trials_per_m=12"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 9


def test_effdim_command_with_expected_exponent(tmp_path, capsys):
    doc = {"spectrum": [float(j) ** -2.0 for j in range(1, 2001)],
           "lambda_lo": 1e-5, "lambda_hi": 1e-2,
           "points_per_decade": 40, "expected_b": 0.5,
           "b_tolerance": 0.05}
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "out"
    assert main(["effdim", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    lines = (out / "effdim.csv").read_text().splitlines()
    assert lines[0] == "lambda,n_effective" and len(lines) > 100


@pytest.mark.parametrize("command, doc", [
    pytest.param("effdim", {"problem": {"s": 1.0, "a_link": 0.5, "r": 0.5,
                                        "q": 1.0, "v_pattern": "seeded",
                                        "d": 64}}, id="effdim"),
    pytest.param("decompose", {"kernel": "k2", "grid_n": 32}, id="decompose")])
def test_config_seed_reaches_the_manifest(tmp_path, command, doc):
    cfg = _write(tmp_path, "cfg.json", dict(doc, seed=5))
    for extra, want in (([], 5), (["--seed", "3"], 3),
                        (["--set", "seed=4.0"], 4)):
        out = tmp_path / f"out{want}"
        assert main([command, "--config", cfg, "--out", str(out)]
                    + extra) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["seed"] == want


def test_bounds_command(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SMALL_BOUNDS)
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    assert "bounds: 2/2 coverage reports passed" in capsys.readouterr().out
    rows = json.loads((out / "bounds.json").read_text())
    assert {r["quantity"] for r in rows} == {"PSI", "TX_DEV"}
    assert all(r["passed"] for r in rows)


def test_distance_command(tmp_path, capsys):
    doc = {
        "problem": {"s": 1.0, "a_link": 0.5, "r": 0.5, "q": 1.0,
                    "R_dagger": 1.0, "sigma": 0.0, "d": 200},
        "R_values": [0.25, 0.5, 1.0, 2.0, 4.0],
    }
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "out"
    assert main(["distance", "--config", cfg, "--out", str(out)]) == 0
    assert "distance: 5 points" in capsys.readouterr().out
    lines = (out / "distance.csv").read_text().splitlines()
    assert lines[0] == "R,d_value" and len(lines) == 6


@pytest.mark.parametrize("path", sorted(
    [*(ROOT / "configs").glob("*.json"),
     *(ROOT / "perfbench" / "configs").glob("*.json")]),
    ids=lambda path: path.relative_to(ROOT).as_posix())
def test_shipped_configs_hold_only_known_fields(path):
    # a shipped config is named after its command, except the
    # benchmark's coverage workload, which runs bounds; its command's
    # schema reads it whole, unknown keys and ranges included
    command = "bounds" if path.stem == "coverage" else path.stem.split("_")[0]
    schema, _ = COMMANDS[command]
    schema.value(json.loads(path.read_text(encoding="utf-8")), "")


def _schema_rows():
    """README cells (in, field) -> (type, default, values) of every
    field of the schemas.  A named object (problem, lambda_rule, zeta)
    has rows of its own; a plain one (params) is spelled out in dotted
    names.  ``values`` is the schema's choices or range."""
    rows, seen = {}, set()
    todo = [(f"`{name}`", schema) for name, (schema, _) in COMMANDS.items()]

    def add(label, group, prefix=""):
        if group.variants:
            assert set(group.variants) == set(group.fields["kind"].choices)
        for kind, fields in [(None, group.fields), *group.variants.items()]:
            where = label + (f" of `{kind}`" if kind else "")
            for name, f in fields.items():
                if isinstance(f.read, Group) and f.read.make is dict:
                    add(where, f.read, f"{prefix}{name}.")
                    continue
                if isinstance(f.read, Group) and id(f.read) not in seen:
                    seen.add(id(f.read))
                    todo.append((f"`{name}`", f.read))
                if f.default is REQUIRED:
                    default = "required"
                elif name in group.one_of:
                    default = "one of " + ", ".join(
                        f"`{key}`" for key in group.one_of)
                elif f.default is None:
                    default = "none"
                else:
                    default = f"`{json.dumps(f.default)}`"
                rows[where, f"`{prefix}{name}`"] = (
                    f.read.what, default, f.choices or f.need)

    while todo:
        add(*todo.pop(0))
    return rows


def _readme_table() -> dict:
    """(in, field) -> (type, default, values) of the README's
    five-column field table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            table[cells[0], cells[1]] = tuple(cells[2:])
    return table


def test_readme_field_table_matches_the_schemas():
    # every row of the README's five-column field table is a field of
    # the schemas and every field has a row, with its type, its
    # default, and its choices (in backticks) or its range; where the
    # schema checks neither, the cell is free text
    table = _readme_table()
    want = _schema_rows()
    assert set(table) == set(want)
    for key, (what, default, values) in want.items():
        assert table[key][:2] == (what, default), key
        if isinstance(values, tuple):
            assert tuple(re.findall(r"`([^`]*)`", table[key][2])) == values, \
                key
        elif values:
            assert table[key][2] == values, key


def test_readme_lists_the_choices_that_the_library_owns():
    # these fields have no schema choices, since the object that they
    # build refuses any other value; their cells list the library's
    table = _readme_table()
    for key, values in [(("`rate`", "`filter`"), FILTER_NAMES),
                        (("`rate`", "`case`"), CASES),
                        (("`rate`", "`error_norm`"), ("h",)),
                        (("`problem`", "`v_pattern`"), V_PATTERNS),
                        (("`lambda_rule` of `power_table`", "`params.case`"),
                         CASES)]:
        assert tuple(re.findall(r"`([^`]*)`", table[key][2])) == values, key


def test_filters_check_needs_no_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["filters-check", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("filters-check:") >= 6
    doc = json.loads((out / "filters_check.json").read_text())
    assert {c["filter"] for c in doc["constants"]} == {
        "tikhonov", "cutoff", "landweber"}
    assert all(c["pass"] for c in doc["constants"])
    assert {p["filter"] for p in doc["residual_bounds"]} == {
        "tikhonov", "cutoff"}
    assert doc["tikhonov_order2_envelope"] > 10
    assert doc["pass"] is True


def test_decompose_command(tmp_path, capsys):
    doc = {"kernel": "k2", "grid_n": 128, "top": 6}
    cfg = _write(tmp_path, "cfg.json", doc)
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "decompose.json").read_text())
    assert len(payload["eigenvalues"]) >= 6
    assert "note" in payload or "k2_note" in payload
    assert "decompose:" in capsys.readouterr().out


def test_runtime_error_maps_to_exit_one(tmp_path, capsys, monkeypatch):
    # an exception raised while a valid config runs, after --out exists,
    # is reported as "error: ..." with exit 1
    def refuse(config):
        raise ValueError("refused at run time")

    monkeypatch.setattr(scalereg.cli, "run_rate_experiment", refuse)
    cfg = _write(tmp_path, "cfg.json", SMALL_RATE)
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "e")]) == 1
    assert ("error: ValueError: refused at run time"
            in capsys.readouterr().err)


def test_rate_run_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: a rate run through the CLI, which
    # takes the SVD and the primal PCG routes and writes the manifest,
    # must not load it; nor, running its trials serially on the one
    # numpy backend, a thread pool or numba
    cfg = dict(SMALL_RATE, m_grid=[16, 64, 512], trials_per_m=10)
    code = (
        "import sys\n"
        "from scalereg.cli import main\n"
        f"rc = main(['rate', '--config', {_write(tmp_path, 'c.json', cfg)!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "assert rc == 0, rc\n"
        "print(sorted(n for n in sys.modules\n"
        "             if n.split('.')[0] in ('scipy', 'numba')\n"
        "             or n.startswith('concurrent.futures')))\n"
    )
    # the child imports the same copy of the package as this process
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(scalereg.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         cwd=tmp_path, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "[]"
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert doc["versions"]["scipy"] == pytest.importorskip("scipy").__version__
