"""Append one entry to the rate benchmark's trajectory, BENCH_rate.json.

    python3 benchmarks/bench_trajectory.py

The entry records what this tree measures and what it was measured on:

- the git SHA, and whether ``src/`` or ``perfbench/`` differs from it
  (``dirty``): an edited file or an untracked one under either makes
  the entry dirty, since either changes what the benchmark measures;
- the core count, the CPU, the OpenBLAS version and its thread count;
- per perfbench workload, the untraced median command time ``wall_s``,
  the untraced run's ``peak_rss_mb`` and the traced per-layer self
  times, each as the median, min and max over the traced runs of
  ``python3 perfbench/run.py --workload all --trace 1 --seed N`` at the
  seeds in ``SEEDS`` (with every run's ``correct`` flag and problems),
  so that one contended stretch on a shared machine shows as spread
  rather than as a change;
- the verdict and wall time of acceptance criteria 09, 10 and 11, as
  ``tests/test_acceptance.py`` prints them.

The commands run on this tree, one after the other.  Each perfbench run
writes its report to ``.perfbench/<workload>/seed<N>-trace1/report.json``,
which the script reads.  BENCH_rate.json sits at the root of the tree
and holds a list of entries, oldest first; entries before the one that
added ``seeds`` hold a single traced run at seed 7.  A run takes six to
seven minutes on 2 cores; run nothing else meanwhile.
"""

import argparse
import datetime
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_rate.json"
WORK = ROOT / ".perfbench"
PERFBENCH = ["perfbench/run.py", "--workload", "all", "--trace", "1",
             "--seed"]
SEEDS = (7, 8, 9)
CRITERIA = ("09", "10", "11")

# pytest's progress dots may precede a verdict line
VERDICT = re.compile(r"criterion (\d\d) \((.*)\): (PASS|FAIL).*?"
                     r"([\d.]+)s < ([\d.]+)s\]$")


def _run(args: list) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def _run_values(report: dict) -> dict:
    """wall_s, peak_rss_mb and the layer self times of one report.json.

    wall_s is the median over the untraced commands, which run.py
    reports as ``trace.untraced_wall_s``."""
    metrics = report["metrics"]
    return {"wall_s": metrics["trace.untraced_wall_s"]["value"],
            "peak_rss_mb": report["phases"]["default"]["peak_rss_mb"],
            "self_s": {name[:-len(".self_s")]: metric["value"]
                       for name, metric in metrics.items()
                       if name.endswith(".self_s")
                       and not name.startswith("serial.")}}


def _machine(report: dict) -> dict:
    machine = report["machine"]
    proc = report["phases"]["default"]["process"]
    return {"nproc": machine["nproc"],
            "allowed_cpus": machine["allowed_cpus"],
            "cpu": machine["cpu_model"],
            "blas": f"{proc['blas_name']} {proc['blas_version']}",
            "blas_threads": ",".join(str(b["threads"])
                                     for b in proc["blas_loaded"]),
            "python": proc["python"], "numpy": proc["numpy"]}


def perfbench_entry() -> dict:
    runs, correct, problems, machine = {}, [], [], None
    for seed in SEEDS:
        final = json.loads(_run([*PERFBENCH, str(seed)]).strip()
                           .splitlines()[-1])
        correct.append(final["correct"])
        for path in sorted(WORK.glob(f"*/seed{seed}-trace1/report.json")):
            report = json.loads(path.read_text())
            machine = machine or _machine(report)
            problems += [f"seed {seed}, {report['workload']}: {p}"
                         for p in report["problems"]]
            runs.setdefault(report["workload"], []).append(
                _run_values(report))
    workloads = {}
    for name, values in runs.items():
        layers = values[0]["self_s"]
        workloads[name] = {
            "wall_s": _spread([v["wall_s"] for v in values]),
            "peak_rss_mb": _spread([v["peak_rss_mb"] for v in values]),
            "self_s": {layer: _spread([v["self_s"][layer] for v in values])
                       for layer in layers}}
    return {
        "machine": machine,
        "perfbench": {"command": " ".join(["python3", *PERFBENCH, "N"]),
                      "seeds": list(SEEDS),
                      "correct": all(correct),
                      "problems": problems,
                      "workloads": workloads},
    }


def criteria_entry(out: str) -> dict:
    found = {}
    for line in out.splitlines():
        hit = VERDICT.search(line.strip())
        if hit is not None and hit.group(1) in CRITERIA:
            found[hit.group(1)] = {"label": hit.group(2),
                                   "verdict": hit.group(3),
                                   "wall_s": float(hit.group(4)),
                                   "budget_s": float(hit.group(5))}
    missing = [c for c in CRITERIA if c not in found]
    if missing:
        raise RuntimeError(f"no verdict line for criteria {missing}:\n"
                           + out)
    return found


def main() -> int:
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    entry = {"git_sha": _git("rev-parse", "HEAD"),
             "dirty": bool(_git("status", "--porcelain", "--",
                                "src", "perfbench")),
             "date": datetime.datetime.now(datetime.timezone.utc)
             .isoformat(timespec="seconds")}
    entry.update(perfbench_entry())
    selected = " or ".join(f"criterion_{c}" for c in CRITERIA)
    entry["criteria"] = criteria_entry(_run(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", selected]))
    entries = json.loads(OUT.read_text()) if OUT.is_file() else []
    entries.append(entry)
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
