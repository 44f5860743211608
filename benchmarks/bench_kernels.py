"""Time the accelerated kernels against the pure-numpy fallback.

The backend is chosen at import time from the SCALEREG_NO_NUMBA
environment flag, so each backend is timed in its own subprocess and the
parent only assembles the comparison table.  The ``crossprod`` rows time
the O(m*d) moment build of the factored phi^T phi, its dense assembly
``toarray()``, and the dense ``phi.T @ phi`` on the same table.  The
``PCG solve`` rows time the estimator's primal Tikhonov solve
(conjugate gradients preconditioned with the population operator, with
its step count) on the factored T_x that ``crossprod`` returns, as
``estimate`` runs it, next to the same PCG on the dense T_x and numpy's
LU solve of the same system (the LU time includes the copy of T it
shifts in place), on criterion-10 cells at the power-table lambda:

    python3 benchmarks/bench_kernels.py

The workers import scalereg from this tree's ``src``, so no install is
needed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
TABLE_SIZES = [(1024, 128), (4096, 512), (16384, 1024)]
CLENSHAW_SIZES = [(4096, 64), (4096, 512), (4096, 2048)]
CROSSPROD_SIZES = [(4096, 256), (2048, 2000), (16384, 512)]
SOLVE_SIZES = [(2048, 2000), (16384, 2000), (16384, 512)]
REPEATS = 7


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_worker():
    import numpy as np

    from scalereg import (LambdaRule, PowerProblemSpec, backend_name,
                          clenshaw_cosine, design_matrix, sample_dataset,
                          warmup, weighted_cosine_table)
    from scalereg.sampling import (_design_weights, _pcg, _shifted_solve,
                                   crossprod)

    warmup()
    rng = np.random.Generator(np.random.Philox(0))
    rows = []
    for m, d in TABLE_SIZES:
        x, w = rng.random(m), rng.standard_normal(d)
        rows.append({"kernel": "weighted_cosine_table", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: weighted_cosine_table(x, w))})
    for m, d in CLENSHAW_SIZES:
        x, coef = rng.random(m), rng.standard_normal(d)
        rows.append({"kernel": "clenshaw_cosine", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: clenshaw_cosine(x, coef))})
    for m, d in CROSSPROD_SIZES:
        w = rng.random(d) + 0.5
        phi = weighted_cosine_table(rng.random(m), w)
        op = crossprod(phi, w)
        rows.append({"kernel": "crossprod", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: crossprod(phi, w))})
        rows.append({"kernel": "crossprod.toarray()", "shape": f"{m}x{d}",
                     "seconds": _best_of(op.toarray)})
        rows.append({"kernel": "phi.T @ phi", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: phi.T @ phi)})
    rule = LambdaRule("power_table", {"case": "regular"})
    for m, d in SOLVE_SIZES:
        prob = PowerProblemSpec(s=0.5, a_link=0.25, r=2.0, q=4.0,
                                d_override=d).build(m, 0)
        ds = sample_dataset(prob, m, 0)
        lam = rule.resolve(prob, m)
        phi = design_matrix(prob, ds.x)
        op = crossprod(phi, _design_weights(prob)) / m
        T = op.toarray()
        b = phi.T @ ds.y / m
        rows.append({"kernel": "LU solve", "shape": f"{m}x{d}",
                     "seconds": _best_of(
                         lambda: _shifted_solve(T.copy(), lam, b))})
        for name, A in (("PCG solve, dense T", T), ("PCG solve", op)):
            rows.append({"kernel": name, "shape": f"{m}x{d}",
                         "seconds": _best_of(lambda: _pcg(A, lam, b, prob.t)),
                         "steps": _pcg(A, lam, b, prob.t)[1]})
    json.dump({"backend": backend_name(), "rows": rows}, sys.stdout)


def _steps(row) -> str:
    return f"  {row['steps']} steps" if "steps" in row else ""


def run_comparison():
    inherited = os.environ.get("PYTHONPATH")
    path = SRC + (os.pathsep + inherited if inherited else "")
    results = {}
    for flag in ("", "1"):
        env = dict(os.environ, SCALEREG_NO_NUMBA=flag, PYTHONPATH=path)
        out = subprocess.run([sys.executable, __file__, "--worker"],
                             env=env, capture_output=True, text=True,
                             check=True)
        doc = json.loads(out.stdout)
        results[doc["backend"]] = doc["rows"]
    if "numba" not in results:
        print("numba backend unavailable; fallback timings only:")
        for row in results["numpy"]:
            print(f"  {row['kernel']:22s} {row['shape']:>10s} "
                  f"{row['seconds'] * 1e3:8.3f} ms{_steps(row)}")
        return
    print(f"{'kernel':22s} {'shape':>10s} {'numba ms':>10s} "
          f"{'numpy ms':>10s} {'speedup':>8s}")
    for fast, slow in zip(results["numba"], results["numpy"]):
        assert (fast["kernel"], fast["shape"]) == (slow["kernel"],
                                                   slow["shape"])
        ratio = slow["seconds"] / fast["seconds"]
        print(f"{fast['kernel']:22s} {fast['shape']:>10s} "
              f"{fast['seconds'] * 1e3:10.3f} {slow['seconds'] * 1e3:10.3f} "
              f"{ratio:8.2f}x{_steps(fast)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", action="store_true",
                        help="time the active backend and emit JSON")
    args = parser.parse_args()
    if args.worker:
        run_worker()
    else:
        run_comparison()


if __name__ == "__main__":
    main()
