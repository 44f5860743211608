"""Smoke test of ``benchmarks/bench_kernels.py`` at one small shape per
size list: the script times ``sampling``'s own route functions, so a
renamed or re-signed route must fail here, not only when the script is
next run by hand."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "benchmarks"
          / "bench_kernels.py")

# kernel name -> shape of its row(s) at the sizes patched in below
ROWS = {"weighted_cosine_table": "64x16", "cosine_sum": "64x16",
        "crossprod": "64x16", "crossprod.toarray()": "64x16",
        "phi.T @ phi": "64x16", "eigh route": "256x64",
        "PCG solve, dense T": "256x64", "PCG solve": "256x64",
        "SVD route": "16x64", "Gram + solve": "16x64",
        "Gram + eigh": "16x64"}


def _load():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kernel_row_runs_and_the_routes_agree(monkeypatch, capsys):
    bench = _load()
    for name in ("TABLE_SIZES", "COSINE_SUM_SIZES", "CROSSPROD_SIZES"):
        monkeypatch.setattr(bench, name, [(64, 16)])
    monkeypatch.setattr(bench, "SOLVE_SIZES", [(256, 64)])
    monkeypatch.setattr(bench, "DUAL_SIZES", [(16, 64)])
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench.run()
    lines = capsys.readouterr().out.splitlines()[1:]
    rows = {line[:22].strip(): line[22:].split() for line in lines}
    assert len(lines) == len(ROWS) and set(rows) == set(ROWS)
    for kernel, shape in ROWS.items():
        assert rows[kernel][0] == shape, kernel
        assert float(rows[kernel][1]) >= 0.0, kernel
    for kernel in ("SVD route", "Gram + solve", "Gram + eigh"):
        assert rows[kernel][2] == "gap", kernel
        assert float(rows[kernel][3]) <= 1e-12, kernel
    for kernel in ("PCG solve, dense T", "PCG solve"):
        assert rows[kernel][3] == "steps", kernel
