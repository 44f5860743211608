import json

import numpy as np
import pytest

from scalereg import BoundCheckReport
from scalereg.reporting import (
    canonical_json,
    manifest,
    read_bounds_csv,
    read_distance_csv,
    read_effdim_csv,
    read_json,
    read_rate_csv,
    sha256_of,
    write_bounds_csv,
    write_distance_csv,
    write_effdim_csv,
    write_json,
    write_manifest,
    write_rate_csv,
)


def test_canonical_json_is_sorted_compact_and_newline_terminated():
    doc = {"b": 1, "a": [1.5, 2], "c": {"y": True, "x": None}}
    text = canonical_json(doc)
    assert text == '{"a":[1.5,2],"b":1,"c":{"x":null,"y":true}}\n'
    assert sha256_of(doc) == sha256_of(json.loads(text))


def test_canonical_json_handles_numpy_and_nonfinite():
    doc = {"arr": np.array([1.0, 2.0]), "bad": float("nan"),
           "inf": float("inf"), "flag": np.bool_(True),
           "count": np.int64(3)}
    text = canonical_json(doc)
    back = json.loads(text)
    assert back == {"arr": [1.0, 2.0], "bad": None, "inf": None,
                    "flag": True, "count": 3}


def test_json_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"name": "run", "values": [0.1, 0.2, float("nan")]}
    write_json(path, doc)
    assert read_json(path) == {"name": "run", "values": [0.1, 0.2, None]}


def test_effdim_csv_bytes_round_trip(tmp_path):
    lams = np.geomspace(1e-5, 1e-2, 7)
    vals = 1.0 / np.sqrt(lams) * (np.pi / 2.0)
    path = tmp_path / "effdim.csv"
    write_effdim_csv(path, lams, vals)
    got_l, got_v = read_effdim_csv(path)
    assert got_l == list(lams) and got_v == list(vals)  # exact, via repr
    assert path.read_text().splitlines()[0] == "lambda,n_effective"


def test_distance_csv_round_trip(tmp_path):
    path = tmp_path / "distance.csv"
    Rs = [0.25, 0.5, 1.0]
    ds = [0.126261, 0.111773, 0.095128]
    write_distance_csv(path, Rs, ds)
    got_R, got_d = read_distance_csv(path)
    assert got_R == Rs and got_d == ds
    assert path.read_text().splitlines()[0] == "R,d_value"


def test_bounds_csv_round_trip(tmp_path):
    reports = [
        BoundCheckReport(quantity="PSI", lam=0.01, m=1024, eta=0.05,
                         trials=500, empirical_quantile=0.007,
                         bound_value=0.046, coverage=1.0),
        BoundCheckReport(quantity="TX_DEV", lam=0.02, m=4096, eta=0.1,
                         trials=500, empirical_quantile=0.061,
                         bound_value=0.537, coverage=0.998),
    ]
    path = tmp_path / "bounds.csv"
    write_bounds_csv(path, reports)
    rows = read_bounds_csv(path)
    assert rows[0]["quantity"] == "PSI" and rows[0]["m"] == 1024
    assert rows[1]["eta"] == 0.1 and rows[1]["coverage"] == 0.998
    header = path.read_text().splitlines()[0]
    assert header == "quantity,lambda,m,eta,trials,quantile,bound,coverage"


def test_rate_csv_round_trip(tmp_path):
    report = {
        "per_m": [
            {"m": 256, "lambda_used": 0.0625, "mean_error": 0.0169,
             "median_error": 0.0165, "std_error": 0.0023},
            {"m": 512, "lambda_used": 0.0442, "mean_error": 0.0117,
             "median_error": 0.0118, "std_error": 0.0014},
        ],
        "fitted_exponent": -0.18, "fit_stderr": 0.02,
        "theoretical_exponent": -0.25, "pass": True,
        "degenerate": False, "config_hash": "ab" * 32,
    }
    path = tmp_path / "rate.csv"
    write_rate_csv(path, report)
    back = read_rate_csv(path)
    assert back["per_m"][0]["m"] == 256
    assert back["per_m"][1]["median_error"] == 0.0118
    assert back["fitted_exponent"] == -0.18
    assert back["pass"] is True and back["degenerate"] is False
    assert back["config_hash"] == "ab" * 32
    # footer lines are '# key,value'
    footer = [ln for ln in path.read_text().splitlines()
              if ln.startswith("# ")]
    assert any(ln.startswith("# fitted_exponent,") for ln in footer)


def test_manifest_contents(tmp_path):
    doc = {"some": "config"}
    man = manifest(doc, seed=7)
    assert man["config_sha256"] == sha256_of(doc)
    assert man["seed"] == 7
    assert "backend" not in man  # one numeric backend, nothing to record
    vers = man["versions"]
    assert set(vers) >= {"python", "numpy", "scipy", "scalereg"}
    assert "timestamp" not in man  # byte-reproducible outputs
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_manifest(p1, doc, seed=7)
    write_manifest(p2, doc, seed=7)
    assert p1.read_bytes() == p2.read_bytes()
