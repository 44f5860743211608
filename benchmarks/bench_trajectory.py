"""Append one entry to the rate benchmark's trajectory, BENCH_rate.json.

    python3 benchmarks/bench_trajectory.py

The entry records what this tree measures and what it was measured on:

- the git SHA, and whether ``src/`` differs from it (``dirty``);
- the core count, the CPU, the OpenBLAS version and its thread count;
- per perfbench workload, the untraced median command time ``wall_s``,
  the untraced run's ``peak_rss_mb`` and the traced per-layer self
  times, as
  ``python3 perfbench/run.py --workload all --seed 7 --trace 1`` prints
  them (its ``correct`` flag and any ``# PROBLEM`` line too);
- the verdict and wall time of acceptance criteria 09, 10 and 11, as
  ``tests/test_acceptance.py`` prints them.

Both commands run on this tree, one after the other, and the script
reads only what they print.  BENCH_rate.json sits at the root of the
tree and holds a list of entries, oldest first.  A run takes two to
three minutes on 2 cores; run nothing else meanwhile.
"""

import argparse
import datetime
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_rate.json"
PERFBENCH = ["perfbench/run.py", "--workload", "all", "--seed", "7",
             "--trace", "1"]
CRITERIA = ("09", "10", "11")

RUN_RECORD = re.compile(
    r"# run record: nproc (\d+) \(allowed (\S+)\), (.*); BLAS (\S+) (\S+), "
    r"threads (\S+); .*; python (\S+), numpy (\S+), ")
METRIC = re.compile(r"^(\w+) ((?:\w+\.)*\w+) (\S+) (\S+)$")
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


def perfbench_entry(out: str) -> dict:
    record = RUN_RECORD.search(out)
    if record is None:
        raise RuntimeError("perfbench printed no run record:\n" + out)
    nproc, allowed, cpu, blas, version, threads, python, numpy = \
        record.groups()
    workloads = {}
    for line in out.splitlines():
        hit = METRIC.match(line)
        if hit is None:
            continue
        name, metric, value = hit.group(1), hit.group(2), hit.group(3)
        row = workloads.setdefault(name, {"wall_s": None,
                                          "peak_rss_mb": None, "self_s": {}})
        if metric in ("wall_s", "peak_rss_mb"):
            row[metric] = float(value)
        elif metric.endswith(".self_s") and not metric.startswith("serial."):
            row["self_s"][metric[:-len(".self_s")]] = float(value)
    final = json.loads(out.strip().splitlines()[-1])
    return {
        "machine": {"nproc": int(nproc), "allowed_cpus": allowed,
                    "cpu": cpu, "blas": f"{blas} {version}",
                    "blas_threads": threads, "python": python,
                    "numpy": numpy},
        "perfbench": {"command": " ".join(["python3", *PERFBENCH]),
                      "correct": final["correct"],
                      "problems": [line[len("# PROBLEM: "):]
                                   for line in out.splitlines()
                                   if line.startswith("# PROBLEM: ")],
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
             "dirty": bool(_git("status", "--porcelain",
                                "--untracked-files=no", "--", "src")),
             "date": datetime.datetime.now(datetime.timezone.utc)
             .isoformat(timespec="seconds")}
    entry.update(perfbench_entry(_run(PERFBENCH)))
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
