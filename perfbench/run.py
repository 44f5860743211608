"""Benchmark of scalereg's costly Monte Carlo runs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is one of the workloads in ``perfbench/workloads.py`` or ``all``.
Run from the repository root (any directory works: paths are resolved
from this file).  scalereg is imported from ``src`` of the same tree;
nothing is installed or built.

A run first times ``SETUP_RUNS`` fresh interpreters that import scalereg
and warm it up (``setup_s``, the median).  It then starts one workload
process that runs the workload's CLI command for about S seconds and
reports the median command time (``wall_s``), its own peak RSS and the
reference check of ``refcheck.py``.  With ``--trace 1`` the S seconds
are split over three processes: the same untraced run, a traced run and
a traced run with the BLAS pinned to one thread (the serial baseline).
The traced runs give the per-layer metrics; traced minus untraced
command time is the tracing overhead.

Every metric is printed as ``name value unit``, followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  An operation is one
Monte Carlo trial; it fails when its command errors, its cell's values
are not finite, or its cell fails the reference check.  Details (run
record, digests, per-run summaries, spans) go to ``.perfbench/`` at the
root of the tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import record
from spans import LAYERS, self_check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# the layers an optimisation of the operator build or the solver moves;
# they are reported again from the serial-BLAS run
SERIAL_LAYERS = ("sampling.design_matrix", "sampling.crossprod",
                 "sampling.gram", "sampling.estimate", "model.forward_eval",
                 "diagnostics.montecarlo_coverage_batch")
REPORT_LAYERS = ("reporting.write_json", "reporting.write_rate_csv",
                 "reporting.write_bounds_csv", "reporting.write_manifest",
                 "svgplot.write_loglog_svg")
COUNT_METRICS = (("sampling.design_matrix.entries", "count"),
                 ("sampling.design_matrix.bytes", "B"),
                 ("sampling.crossprod.flops", "flop"),
                 ("sampling.gram.flops", "flop"),
                 ("sampling.estimate.route.primal", "count"),
                 ("sampling.estimate.route.dual_gram", "count"),
                 ("sampling.estimate.route.dual_svd", "count"))


def _default_env() -> dict:
    """The caller's environment with the BLAS left at its own default."""
    return {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}


def _serial_env() -> dict:
    env = _default_env()
    env.update({k: "1" for k in BLAS_THREAD_VARS})
    return env


def measure_setup() -> list:
    """Seconds from starting an interpreter to scalereg imported and warm.

    The interpreter reports when it is done on the system-wide monotonic
    clock, so neither its exit nor the parent's wait is counted.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import scalereg; getattr(scalereg, 'warmup', lambda: None)(); "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              check=True, env=_default_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_phase(workload, seed: int, seconds: float, work: Path, *,
              traced: bool, check: bool, env: dict) -> dict:
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload",
           workload.name, "--seed", str(seed), "--seconds", str(seconds),
           "--work", str(work), "--result", str(result)]
    if traced:
        cmd.append("--traced")
    if check:
        cmd.append("--check")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    (work / "stdout.txt").write_text(proc.stdout)
    (work / "stderr.txt").write_text(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def source_fingerprint() -> str:
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted((HERE / "configs").glob("*"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digest_registry(fingerprint: str, workload: str, seed: int,
                          digest: str) -> list:
    """Same code and seed must give the same data; another seed must not.

    Digests of earlier runs in this tree are kept in
    ``.perfbench/digests.json``, keyed by a fingerprint of the sources.
    """
    path = WORK / "digests.json"
    registry = json.loads(path.read_text()) if path.is_file() else {}
    seen = registry.setdefault(fingerprint, {}).setdefault(workload, {})
    problems = []
    if seen.get(str(seed), digest) != digest:
        problems.append(f"seed {seed} gave data digest {digest[:12]}, an "
                        f"earlier run gave {seen[str(seed)][:12]}")
    for other, dig in seen.items():
        if other != str(seed) and dig == digest:
            problems.append(f"seeds {seed} and {other} gave the same data; "
                            "the seed does not reach the inputs")
    seen[str(seed)] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def _failures(workload, reps: list, failed_cells: set) -> int:
    cells = dict(workload.cells())
    total = workload.trials_per_run()
    failed = 0
    for rep in reps:
        if rep["rc"] not in (0, 2) or "artifact_error" in rep:
            # 2 is the rate gate's verdict on a completed run
            failed += total
        else:
            failed += sum(cells[m] for m in
                          set(rep["bad_cells"]) | failed_cells)
    return failed


def _phase_digests(phase: dict) -> set:
    return {rep.get("sha256") for rep in phase["reps"]}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    setup = measure_setup()
    phases = {}
    budget = seconds / 3.0 if trace else seconds
    phases["default"] = run_phase(workload, seed, budget, work / "default",
                                  traced=False, check=True,
                                  env=_default_env())
    if trace:
        phases["traced"] = run_phase(workload, seed, budget, work / "traced",
                                     traced=True, check=False,
                                     env=_default_env())
        phases["serial"] = run_phase(workload, seed, budget, work / "serial",
                                     traced=True, check=False,
                                     env=_serial_env())

    problems = []
    ref = phases["default"].get("refcheck")
    if ref is None:
        problems.append("reference check did not run: no artifact")
        failed_cells = set()
    else:
        failed_cells = {e["m"] for e in ref if not e["ok"]}
        problems += [f"reference check failed at m={e['m']}: "
                     f"{e['rel_err']}" for e in ref if not e["ok"]]
    attempted = failed = 0
    for name, phase in phases.items():
        attempted += len(phase["reps"]) * workload.trials_per_run()
        failed += _failures(workload, phase["reps"], failed_cells)
        if len(_phase_digests(phase)) != 1:
            problems.append(f"{name} runs disagree on the artifact digest")
    if trace and _phase_digests(phases["traced"]) != _phase_digests(
            phases["default"]):
        problems.append("tracing changed the artifact")
    fingerprint = source_fingerprint()
    data_digest = phases["default"]["reps"][0].get("data_sha256")
    if data_digest is not None:
        problems += check_digest_registry(fingerprint, workload.name, seed,
                                          data_digest)
    for name in ("traced", "serial"):
        if name in phases:
            problems += [f"{name}: {p}" for p in self_check(
                phases[name]["summaries"], workload, phases[name]["missing"])]
    if failed:
        problems.append(f"{failed} of {attempted} trials failed")

    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "setup_runs_s": setup, "phases": phases,
            "problems": problems, "attempted": attempted, "failed": failed,
            "machine": record.machine_record(ROOT),
            "source_fingerprint": fingerprint}


def _median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end_metrics(res: dict) -> dict:
    default = res["phases"]["default"]
    return {
        "wall_s": (_median(r["wall_s"] for r in default["reps"]), "s"),
        "setup_s": (_median(res["setup_runs_s"]), "s"),
        "peak_rss_mb": (default["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - res["failed"] / res["attempted"], "ratio"),
    }


def per_layer_metrics(res: dict) -> dict:
    traced = res["phases"]["traced"]["summaries"]
    serial = res["phases"]["serial"]["summaries"]
    untraced = _median(r["wall_s"] for r in res["phases"]["default"]["reps"])
    # calls and counts repeat exactly between runs (spans.self_check)
    calls, counts = traced[0]["calls"], traced[0]["counts"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.busy_s"] = (
            _median(s["busy_s"].get(layer, 0) for s in traced), "s")
        if layer not in REPORT_LAYERS:
            out[f"{layer}.self_s"] = (
                _median(s["self_s"].get(layer, 0) for s in traced), "s")
    for name, unit in COUNT_METRICS:
        if name == "sampling.design_matrix.bytes":
            value = 8 * counts.get("sampling.design_matrix.entries", 0)
        else:
            value = counts.get(name, 0)
        out[name] = (value, unit)
    wall = _median(s["wall_s"] for s in traced)
    out["trace.wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.overhead_s"] = (wall - untraced, "s")
    out["trace.unattributed_s"] = (
        _median(s["unattributed_s"] for s in traced), "s")
    out["trace.spans"] = (traced[0]["spans"], "count")
    out["trace.trials"] = (traced[0]["trials"], "count")
    out["serial.wall_s"] = (_median(s["wall_s"] for s in serial), "s")
    for layer in SERIAL_LAYERS:
        out[f"serial.{layer}.self_s"] = (
            _median(s["self_s"].get(layer, 0) for s in serial), "s")
    return out


def _blas_threads(phase: dict) -> str:
    loaded = phase["process"]["blas_loaded"]
    return ",".join(str(b["threads"]) for b in loaded) or "unmeasured"


def print_report(res: dict, metrics: dict) -> None:
    w = res["workload"]
    default = res["phases"]["default"]
    print(f"# {w}: seed {res['seed']}, {len(default['reps'])} untraced runs "
          f"of the CLI command, setup x{len(res['setup_runs_s'])}")
    machine, proc = res["machine"], default["process"]
    print(f"# run record: nproc {machine['nproc']} (allowed "
          f"{machine['allowed_cpus']}), {machine['cpu_model']}; "
          f"BLAS {proc['blas_name']} {proc['blas_version']}, threads "
          f"{_blas_threads(default)}; backend {proc['scalereg_backend']}, "
          f"numba importable {proc['numba_importable']}; python "
          f"{proc['python']}, numpy {proc['numpy']}, scipy {proc['scipy']}; "
          f"git {machine['git_sha'] or 'unknown'}")
    for item in machine["unmeasured"]:
        print(f"# unmeasured: {item}")
    print(f"# artifact sha256 {default['reps'][0].get('sha256')}")
    for entry in default.get("refcheck") or []:
        print(f"# reference check m={entry['m']}: max rel err "
              f"{entry['max_rel_err']:.2e} "
              f"({'ok' if entry['ok'] else 'FAIL'})")
    if res["trace"]:
        for name, phase in res["phases"].items():
            walls = [r["wall_s"] for r in phase["reps"]]
            print(f"# {name}: BLAS threads {_blas_threads(phase)}, "
                  f"{len(walls)} runs, median {_median(walls):.4f} s")
        for k, s in enumerate(res["phases"]["traced"]["summaries"]):
            print(f"# traced run {k}: layer self times {s['attributed_s']:.4f}"
                  f" s + unattributed {s['unattributed_s']:.4f} s = "
                  f"{s['attributed_s'] + s['unattributed_s']:.4f} s of "
                  f"wall {s['wall_s']:.4f} s; {s['spans']} spans, "
                  f"{s['trials']} trials")
    for problem in res["problems"]:
        print(f"# PROBLEM: {problem}")
    print(f"{w} failed_frac {res['failed'] / res['attempted']:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{w} {name} {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "scalereg" / "__init__.py").is_file():
        sys.stderr.write(f"scalereg sources not found under {SRC}\n")
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace))
        metrics = end_to_end_metrics(res)
        if args.trace:
            # a traced run prints the untraced figures too, so it shows
            # every metric; only the per-layer ones are returned
            layers = per_layer_metrics(res)
            print_report(res, {**metrics, **layers})
            metrics = layers
        else:
            print_report(res, metrics)
        res["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}
        (WORK / name / f"seed{args.seed}-trace{args.trace}" /
         "report.json").write_text(json.dumps(res, indent=1))
        final["correct"] &= not res["problems"]
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        final["metrics"].update({prefix + k: v
                                 for k, v in res["metrics"].items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
