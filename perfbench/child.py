"""One workload process of the benchmark (started by ``run.py``).

Imports scalereg from the checkout's ``src``, then runs the workload's
CLI command through ``scalereg.cli.main`` again and again until the
time budget is spent, timing each command alone.  With ``--traced`` the
commands run under the span tracer; with ``--check`` the reference
check runs after the timed commands, once the peak RSS has been read.
The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import record
import refcheck
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_REPS = 2


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def _inspect_artifact(workload, out: Path) -> dict:
    """Digests of the artifact and the cells whose values are not finite."""
    raw = (out / workload.artifact).read_bytes()
    doc = json.loads(raw)
    if workload.command == "rate":
        bad = [row["m"] for row in doc["per_m"]
               if not _finite(row["mean_error"], row["median_error"],
                              row["std_error"], row["lambda_used"])]
        # config_hash covers the seed itself; the rest is data
        data = {k: v for k, v in doc.items() if k != "config_hash"}
    else:
        bad = sorted({row["m"] for row in doc
                      if not _finite(row["empirical_quantile"],
                                     row["bound_value"], row["coverage"])})
        data = doc
    return {"doc": doc, "sha256": hashlib.sha256(raw).hexdigest(),
            "data_sha256": hashlib.sha256(json.dumps(
                data, sort_keys=True).encode()).hexdigest(),
            "bad_cells": bad}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import scalereg
    warmup = getattr(scalereg, "warmup", None)
    if warmup is not None:
        warmup()
    from scalereg import cli

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    out = work / "out"
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    argv = [workload.command, "--config", str(workload.config_path),
            "--out", str(out), "--seed", str(args.seed)]

    reps, summaries, artifact = [], [], None
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        if tracer is None:
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        else:
            with tracer.root() as root:
                rc = cli.main(argv)
            summaries.append(tracer.summarize(root, tracer.counts))
            wall = summaries[-1]["wall_s"]
        rep = {"wall_s": wall, "rc": rc}
        try:
            artifact = _inspect_artifact(workload, out)
            rep.update({k: artifact[k] for k in
                        ("sha256", "data_sha256", "bad_cells")})
        except (OSError, ValueError, KeyError, TypeError) as exc:
            artifact = None
            rep["artifact_error"] = f"{type(exc).__name__}: {exc}"
        reps.append(rep)
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"reps": reps, "peak_rss_mb": peak_rss_mb,
              "process": record.process_record()}
    if tracer is not None:
        result.update(summaries=summaries, missing=tracer.missing,
                      bindings=tracer.bindings)
        (work / "spans.json").write_text(json.dumps(tracer.dump()))
    if args.check:
        if artifact is None:
            result["refcheck"] = None
        elif workload.command == "rate":
            result["refcheck"] = refcheck.check_rate(
                workload.config(), args.seed, artifact["doc"])
        else:
            result["refcheck"] = refcheck.check_coverage(
                workload.config(), args.seed, artifact["doc"])
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
