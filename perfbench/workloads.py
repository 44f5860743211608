"""The benchmark's workloads: scaled-down copies of the three costly
acceptance runs, each one ``scalereg`` CLI command on a config under
``perfbench/configs``.

Each workload also states what its traced run must show, so that a
renamed or re-routed function cannot silently read as zero time:
``expected`` layers must record calls, ``forbidden`` layers must not,
and ``routes`` are the estimator routes that must run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

_RATE_LAYERS = frozenset({
    "sampling.sample_dataset", "model.forward_eval",
    "sampling.design_matrix", "sampling.crossprod", "sampling.estimate",
    "sampling.errors", "harness.run_rate_experiment",
    "harness.PowerProblemSpec.build", "lambda_rules.LambdaRule.resolve",
    "reporting.write_json", "reporting.write_rate_csv",
    "reporting.write_manifest", "svgplot.write_loglog_svg"})

_RATE_ONLY = frozenset({
    "sampling.sample_dataset", "model.forward_eval", "sampling.estimate",
    "sampling.errors", "harness.run_rate_experiment",
    "reporting.write_rate_csv", "svgplot.write_loglog_svg"})


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    artifact: str
    why: str
    expected: frozenset
    forbidden: frozenset
    routes: frozenset

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.json"

    def config(self) -> dict:
        return json.loads(self.config_path.read_text(encoding="utf-8"))

    def cells(self) -> list:
        """(m, trials) of each Monte Carlo cell of one CLI run."""
        cfg = self.config()
        if self.command == "rate":
            return [(int(m), int(cfg["trials_per_m"])) for m in cfg["m_grid"]]
        return [(int(m), int(cfg["trials"])) for m in cfg["m_values"]]

    def trials_per_run(self) -> int:
        return sum(n for _, n in self.cells())


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rate_regular",
        command="rate",
        artifact="rate_report.json",
        why=("criterion 10 scaled to m=64/512/2048: runs the SVD, dual Gram "
             "and primal dsyrk+Cholesky routes; factorization and operator "
             "build both heavy, largest memory peak"),
        expected=_RATE_LAYERS | {"sampling.gram", "filters.filter_values"},
        forbidden=frozenset({"diagnostics.montecarlo_coverage_batch",
                             "reporting.write_bounds_csv"}),
        routes=frozenset({"primal", "dual_gram", "dual_svd"})),
    Workload(
        name="rate_oversmoothing",
        command="rate",
        artifact="rate_report.json",
        why=("criterion 11, full 7-cell grid: m >= d everywhere, so operator "
             "build dominates and factorization is small; a solver-only "
             "change should read no change"),
        expected=_RATE_LAYERS,
        forbidden=frozenset({"sampling.gram",
                             "diagnostics.montecarlo_coverage_batch",
                             "reporting.write_bounds_csv"}),
        routes=frozenset({"primal"})),
    Workload(
        name="coverage",
        command="bounds",
        artifact="bounds.json",
        why=("criterion 9 at 100 trials: operator build and d x d "
             "diagnostics with no solve at all; a change to estimate should "
             "read no change"),
        expected=frozenset({
            "sampling.design_matrix", "sampling.crossprod",
            "diagnostics.montecarlo_coverage_batch", "effdim.effdim",
            "lambda_rules.LambdaRule.resolve",
            "harness.PowerProblemSpec.build", "reporting.write_json",
            "reporting.write_bounds_csv", "reporting.write_manifest"}),
        forbidden=_RATE_ONLY | {"sampling.gram"},
        routes=frozenset()),
)}
