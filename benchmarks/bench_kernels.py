"""Time the per-trial numerical kernels of scalereg.

The ``weighted_cosine_table`` rows time the m-by-d design table and the
``cosine_sum`` rows the forward evaluation of a cosine series by
Gaussian gridding, at the rate workloads' shapes.  The
``crossprod`` rows time the O(m*d) moment build of the factored
phi^T phi, its dense assembly ``toarray()``, and the dense
``phi.T @ phi`` on the same table.  The
``PCG solve`` rows time the estimator's primal Tikhonov solve
(conjugate gradients preconditioned with the population operator, with
its step count) on the factored T_x that ``crossprod`` returns, as
``estimate`` runs it, next to the same PCG on the dense T_x; the
``eigh route`` rows time the dense route that ``estimate`` takes for
the other filters and for a PCG that reaches its step cap (assembly of
T_x, its clamped eigendecomposition and the Tikhonov filter on its
eigenvalues), on criterion-10 cells at the power-table lambda.  The
m < d rows time the three Tikhonov solves of ``estimate``'s m < d
branch on the whole table: the ``SVD route`` (the direct SVD of
Phi / sqrt(m), taken at m*d <= ``_SVD_DIRECT_LIMIT``), ``Gram + solve``
(the m-by-m Gram matrix and ``np.linalg.solve``, taken above the
limit) and ``Gram + eigh`` (its clamped eigendecomposition and the
filter, the route of the other filters above the limit), each with its
largest entrywise gap to the SVD route's answer, relative to that
answer's largest entry:

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


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run():
    sys.path.insert(0, SRC)
    import numpy as np

    from scalereg import (LambdaRule, PowerProblemSpec, design_matrix,
                          filter_values, make_filter, sample_dataset)
    from scalereg.model import _cosine_sum
    from scalereg.sampling import (_clamped_eigh, _pcg, _sample_sums,
                                   _weighted_cosine_table, crossprod, gram)

    tikhonov = make_filter("tikhonov")

    def eigh_route(op, lam, b, prob):
        evals, V = _clamped_eigh(op.toarray(), prob.kappa_sq)
        g = filter_values(tikhonov, lam, evals, prob.kappa_sq)
        return V @ (g * (V.T @ b))

    def svd_route(phi, y, lam, prob):
        m = phi.shape[0]
        _, s, Wt = np.linalg.svd(phi / np.sqrt(m), full_matrices=False)
        g = filter_values(tikhonov, lam, s * s, prob.kappa_sq)
        return Wt.T @ (g * (Wt @ (phi.T @ y / m)))

    def gram_solve_route(phi, y, lam, prob):
        m = phi.shape[0]
        G = gram(phi) / m
        G[np.diag_indices_from(G)] += lam
        return phi.T @ np.linalg.solve(G, y) / m

    def gram_eigh_route(phi, y, lam, prob):
        m = phi.shape[0]
        evals, U = _clamped_eigh(gram(phi) / m, prob.kappa_sq)
        g = filter_values(tikhonov, lam, evals, prob.kappa_sq)
        return phi.T @ (U @ (g * (U.T @ y))) / m

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
                     "seconds": _best_of(
                         lambda: eigh_route(op, lam, b, prob))})
        for name, A in (("PCG solve, dense T", T), ("PCG solve", op)):
            rows.append({"kernel": name, "shape": f"{m}x{d}",
                         "seconds": _best_of(lambda: _pcg(A, lam, b, prob.t)),
                         "steps": _pcg(A, lam, b, prob.t)[1]})
    for m, d in DUAL_SIZES:
        prob, ds, lam = cell(m, d)
        phi = design_matrix(prob, ds.x)
        ref = svd_route(phi, ds.y, lam, prob)
        for name, route in (("SVD route", svd_route),
                            ("Gram + solve", gram_solve_route),
                            ("Gram + eigh", gram_eigh_route)):
            gap = np.max(np.abs(route(phi, ds.y, lam, prob) - ref))
            rows.append({"kernel": name, "shape": f"{m}x{d}",
                         "seconds": _best_of(
                             lambda: route(phi, ds.y, lam, prob)),
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
