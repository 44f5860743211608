"""perfbench's own checks, run at tier 1: each workload's traced run must
find every layer and route it expects, and its reference check must
agree with an independent dense solve.  A renamed layer, a lost route
or a wrong result then fails here, not only in the benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_passes_its_checks(tmp_path, workload):
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(PERFBENCH / "child.py"),
                    "--workload", workload, "--seed", "7", "--seconds", "0",
                    "--traced", "--check", "--work", str(tmp_path),
                    "--result", str(result)],
                   check=True, cwd=tmp_path, timeout=600)
    doc = json.loads(result.read_text())
    assert spans.self_check(doc["summaries"], WORKLOADS[workload],
                            doc["missing"]) == []
    assert doc["refcheck"], doc["refcheck"]
    assert all(entry["ok"] for entry in doc["refcheck"]), doc["refcheck"]
