"""The parsers of ``benchmarks/bench_trajectory.py``, on canned input:
the verdict lines that ``tests/test_acceptance.py`` prints, and one
perfbench ``report.json``.  Nothing is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = (Path(__file__).resolve().parent.parent / "benchmarks"
          / "bench_trajectory.py")

# in the format of test_acceptance._verdict; pytest -q prints its
# progress dot on the line of the first one that it shows
VERDICTS = """\
.criterion 09 (concentration bound coverage): PASS  [16/16 reports, \
min coverage 0.940; 33.1s < 120s]
.criterion 10 (regular-case convergence rate): PASS  [fitted -0.1805 \
vs -0.25 +- 0.08; 41.2s < 300s]
.criterion 11 (oversmoothing convergence rate): FAIL  [fitted -0.2144 \
vs -0.1667 +- 0.08; 12.0s < 300s]
3 passed, 11 deselected in 90.00s
"""


def _load():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criteria_entry_reads_every_verdict_line():
    found = _load().criteria_entry(VERDICTS)
    assert found == {
        "09": {"label": "concentration bound coverage", "verdict": "PASS",
               "wall_s": 33.1, "budget_s": 120.0},
        "10": {"label": "regular-case convergence rate", "verdict": "PASS",
               "wall_s": 41.2, "budget_s": 300.0},
        "11": {"label": "oversmoothing convergence rate", "verdict": "FAIL",
               "wall_s": 12.0, "budget_s": 300.0}}


def test_criteria_entry_names_a_missing_criterion():
    out = "\n".join(line for line in VERDICTS.splitlines()
                    if "criterion 10" not in line)
    with pytest.raises(RuntimeError, match=r"criteria \['10'\]"):
        _load().criteria_entry(out)


def test_run_values_reads_perfbench_metrics():
    # wall_s is perfbench's own median of the untraced commands, so the
    # report needs no reps; the serial phase's self times are left out
    report = {
        "phases": {"default": {"peak_rss_mb": 86.2}},
        "metrics": {
            "trace.untraced_wall_s": {"value": 0.49, "unit": "s"},
            "trace.wall_s": {"value": 0.61, "unit": "s"},
            "sampling.estimate.calls": {"value": 70, "unit": "count"},
            "sampling.estimate.busy_s": {"value": 0.3, "unit": "s"},
            "sampling.estimate.self_s": {"value": 0.2, "unit": "s"},
            "model.forward_eval.self_s": {"value": 0.05, "unit": "s"},
            "serial.sampling.estimate.self_s": {"value": 0.25, "unit": "s"}}}
    assert _load()._run_values(report) == {
        "wall_s": 0.49, "peak_rss_mb": 86.2,
        "self_s": {"sampling.estimate": 0.2, "model.forward_eval": 0.05}}
