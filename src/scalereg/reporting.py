"""Report serialization: canonical JSON, CSV writers, manifest.

All report files are deterministic functions of their inputs (no
timestamps).  Floats in CSV are written with repr(), which round-trips
through float(); JSON replaces non-finite values by null.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform

import numpy as np

from . import __version__

EFFDIM_HEADER = ("lambda", "n_effective")
DISTANCE_HEADER = ("R", "d_value")
BOUNDS_HEADER = ("quantity", "lambda", "m", "eta", "trials",
                 "quantile", "bound", "coverage")
RATE_HEADER = ("m", "lambda", "mean", "median", "std", "cg_steps")

_RATE_FOOTER_KEYS = ("fitted_exponent", "fit_stderr", "theoretical_exponent",
                     "pass", "degenerate", "config_hash")


def _clean(obj):
    """JSON-safe copy: non-finite floats to null."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def canonical_json(doc) -> str:
    return json.dumps(_clean(doc), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def sha256_of(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def _f(v) -> str:
    return repr(float(v))


# ---------------------------------------------------------------- CSV

def _write_csv(path, header, rows, footer=()) -> None:
    """``header`` and ``rows`` as CSV lines, then one '# key,value' line
    per (key, value) pair of ``footer``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        fh.writelines(f"# {key},{val}\n" for key, val in footer)


def write_curve_csv(path, header, xs, ys) -> None:
    """Two float columns under ``header``, one row per (x, y) pair."""
    _write_csv(path, header, ((_f(x), _f(y)) for x, y in zip(xs, ys)))


def write_bounds_csv(path, reports) -> None:
    """One row per BoundCheckReport."""
    _write_csv(path, BOUNDS_HEADER,
               ((rep.quantity, _f(rep.lam), str(rep.m), _f(rep.eta),
                 str(rep.trials), _f(rep.empirical_quantile),
                 _f(rep.bound_value), _f(rep.coverage)) for rep in reports))


def write_rate_csv(path, report) -> None:
    """Per-m rows plus a '#'-prefixed footer with the fit summary.

    The trailing ``cg_steps`` column is the cell's median PCG step count
    (``inf`` when in most trials the PCG reached its step cap and the
    eigh route answered).
    """
    doc = report.to_dict()
    rows = ((str(row["m"]), _f(row["lambda_used"]), _f(row["mean_error"]),
             _f(row["median_error"]), _f(row["std_error"]),
             _f(row["cg_steps"])) for row in doc["per_m"])

    def token(val) -> str:
        if isinstance(val, bool):
            return "true" if val else "false"
        return val if isinstance(val, str) else _f(val)

    _write_csv(path, RATE_HEADER, rows,
               ((key, token(doc[key])) for key in _RATE_FOOTER_KEYS))


# ------------------------------------------------------------ manifest

def manifest(config_doc, seed) -> dict:
    """Reproducibility record: config hash, seed, and the versions of
    Python, numpy and scalereg, the only packages a run imports."""
    return {"config_sha256": sha256_of(config_doc),
            "seed": int(seed),
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__,
                         "scalereg": __version__}}


def write_manifest(path, config_doc, seed) -> None:
    write_json(path, manifest(config_doc, seed))
