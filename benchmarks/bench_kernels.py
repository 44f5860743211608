"""Time the per-trial numerical kernels of scalereg.

The ``weighted_cosine_table`` rows time the m-by-d design table and the
``cosine_sum`` rows the forward evaluation of a cosine series by
Gaussian gridding, at the rate workloads' shapes.  The
``crossprod`` rows time the O(m*d) moment build of the factored
phi^T phi, its dense assembly ``toarray()``, and the dense
``phi.T @ phi`` on the same table.  The solver rows time ``sampling``'s
own route functions, the code that ``estimate`` runs, with the Tikhonov
filter on criterion-10 cells at the power-table lambda.  The
``PCG solve`` rows time ``_pcg``, the primal Tikhonov solve (with its
step count), on the factored T_x that ``crossprod`` returns, next to
the same PCG on the dense T_x; the ``eigh route`` rows time
``_eigen_filter`` on the assembled T_x, the dense route of the other
filters and of a PCG that reaches its step cap.  The m < d rows time
the dual routes on the whole table: the ``SVD route`` (``_dual_svd``,
taken at m*d <= ``_SVD_DIRECT_LIMIT``), ``Gram + solve``
(``_dual_gram``, taken above the limit) and ``Gram + eigh``
(``_eigen_filter`` on the Gram matrix, the route of the other filters
above the limit), each with its largest entrywise gap to the SVD
route's answer, relative to that answer's largest entry:

    python3 benchmarks/bench_kernels.py

scalereg is imported from this tree's ``src``, so no install is needed.
"""

import argparse
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
TABLE_SIZES = [(1024, 128), (4096, 512), (2048, 2000), (16384, 1024)]
COSINE_SUM_SIZES = [(512, 2000), (2048, 2000), (4096, 256), (16384, 512)]
CROSSPROD_SIZES = [(4096, 256), (2048, 2000), (16384, 512)]
SOLVE_SIZES = [(2048, 2000), (16384, 2000), (16384, 512)]
# rate_regular's SVD cell, criterion 10's SVD cell (m*d at the limit)
# and rate_regular's Gram cell
DUAL_SIZES = [(64, 256), (256, 1024), (512, 2000)]
REPEATS = 7


def _best_of(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run():
    sys.path.insert(0, SRC)
    import numpy as np

    from scalereg import (LambdaRule, PowerProblemSpec, design_matrix,
                          make_filter, sample_dataset)
    from scalereg.model import _cosine_sum
    from scalereg.sampling import (_dual_gram, _dual_svd, _eigen_filter,
                                   _pcg, _sample_sums,
                                   _weighted_cosine_table, crossprod, gram)

    tikhonov = make_filter("tikhonov")

    rng = np.random.Generator(np.random.Philox(0))
    rows = []
    for m, d in TABLE_SIZES:
        x, w = rng.random(m), rng.standard_normal(d)
        rows.append({"kernel": "weighted_cosine_table", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: _weighted_cosine_table(x, w))})
    for m, d in COSINE_SUM_SIZES:
        x, coef = rng.random(m), rng.standard_normal(d)
        rows.append({"kernel": "cosine_sum", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: _cosine_sum(x, coef))})
    for m, d in CROSSPROD_SIZES:
        w = rng.random(d) + 0.5
        phi = _weighted_cosine_table(rng.random(m), w)
        op = crossprod(phi, w)
        rows.append({"kernel": "crossprod", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: crossprod(phi, w))})
        rows.append({"kernel": "crossprod.toarray()", "shape": f"{m}x{d}",
                     "seconds": _best_of(op.toarray)})
        rows.append({"kernel": "phi.T @ phi", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: phi.T @ phi)})
    rule = LambdaRule("power_table", {"case": "regular"})

    def cell(m, d):
        prob = PowerProblemSpec(s=0.5, a_link=0.25, r=2.0, q=4.0,
                                d_override=d).build(m, 0)
        return prob, sample_dataset(prob, m, 0), rule.resolve(prob, m)

    for m, d in SOLVE_SIZES:
        prob, ds, lam = cell(m, d)
        op, b = _sample_sums(prob, ds.x, ds.y)
        T = op.toarray()
        rows.append({"kernel": "eigh route", "shape": f"{m}x{d}",
                     "seconds": _best_of(lambda: _eigen_filter(
                         op.toarray(), b, tikhonov, lam, prob.kappa_sq))})
        for name, A in (("PCG solve, dense T", T), ("PCG solve", op)):
            rows.append({"kernel": name, "shape": f"{m}x{d}",
                         "seconds": _best_of(lambda: _pcg(A, lam, b, prob.t)),
                         "steps": _pcg(A, lam, b, prob.t)[1]})
    for m, d in DUAL_SIZES:
        prob, ds, lam = cell(m, d)
        phi = design_matrix(prob, ds.x)
        args = (phi, ds.y, tikhonov, lam, prob.kappa_sq)
        ref = _dual_svd(*args)
        for name, route in (
                ("SVD route", lambda: _dual_svd(*args)),
                ("Gram + solve", lambda: _dual_gram(*args)),
                ("Gram + eigh", lambda: phi.T @ _eigen_filter(
                    gram(phi) / m, ds.y, tikhonov, lam, prob.kappa_sq) / m)):
            gap = np.max(np.abs(route() - ref))
            rows.append({"kernel": name, "shape": f"{m}x{d}",
                         "seconds": _best_of(route),
                         "gap": gap / np.max(np.abs(ref))})
    print(f"{'kernel':22s} {'shape':>10s} {'ms':>8s}")
    for row in rows:
        steps = f"  {row['steps']} steps" if "steps" in row else ""
        gap = f"  gap {row['gap']:.1e}" if "gap" in row else ""
        print(f"{row['kernel']:22s} {row['shape']:>10s} "
              f"{row['seconds'] * 1e3:8.3f}{steps}{gap}")


def main():
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    run()


if __name__ == "__main__":
    main()
