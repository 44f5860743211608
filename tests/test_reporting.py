import json

import numpy as np
import pytest

from scalereg import BoundCheckReport, RateReport
from scalereg.reporting import (
    DISTANCE_HEADER,
    EFFDIM_HEADER,
    canonical_json,
    manifest,
    sha256_of,
    write_bounds_csv,
    write_curve_csv,
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
    # a numpy float64 is a float and is written as one; every other
    # numpy value is converted by the to_dict that makes the document
    doc = {"x": np.float64(1.5), "bad": np.float64("nan"),
           "inf": float("inf"), "pair": (1, 2.0), "flag": True}
    back = json.loads(canonical_json(doc))
    assert back == {"x": 1.5, "bad": None, "inf": None, "pair": [1, 2.0],
                    "flag": True}
    for val in (np.array([1.0, 2.0]), np.int64(3), np.bool_(True)):
        with pytest.raises(TypeError):
            canonical_json({"v": val})


def test_json_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"name": "run", "values": [0.1, 0.2, float("nan")]}
    write_json(path, doc)
    assert path.read_bytes() == b'{"name":"run","values":[0.1,0.2,null]}\n'


def test_effdim_csv_bytes_round_trip(tmp_path):
    # numpy floats are written as the repr() of the Python float, which
    # float() reads back exactly
    lams = np.geomspace(1e-5, 1e-2, 7)
    vals = 1.0 / np.sqrt(lams) * (np.pi / 2.0)
    path = tmp_path / "effdim.csv"
    write_curve_csv(path, EFFDIM_HEADER, lams, vals)
    rows = "".join(f"{lam!r},{val!r}\n"
                   for lam, val in zip(lams.tolist(), vals.tolist()))
    assert path.read_text() == "lambda,n_effective\n" + rows


def test_distance_csv_round_trip(tmp_path):
    path = tmp_path / "distance.csv"
    write_curve_csv(path, DISTANCE_HEADER, [0.25, 0.5, 1],
                    [0.126261, 0.111773, 0.095128])
    assert path.read_bytes() == (b"R,d_value\n0.25,0.126261\n"
                                 b"0.5,0.111773\n1.0,0.095128\n")


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
    assert path.read_bytes() == (
        b"quantity,lambda,m,eta,trials,quantile,bound,coverage\n"
        b"PSI,0.01,1024,0.05,500,0.007,0.046,1.0\n"
        b"TX_DEV,0.02,4096,0.1,500,0.061,0.537,0.998\n")


def test_rate_csv_round_trip(tmp_path):
    report = RateReport(
        per_m=({"m": 256, "lambda_used": 0.0625, "mean_error": 0.0169,
                "median_error": 0.0165, "std_error": 0.0023, "cg_steps": 7},
               {"m": 512, "lambda_used": 0.0442, "mean_error": 0.0117,
                "median_error": 0.0118, "std_error": 0.0014,
                "cg_steps": float("inf")}),
        fitted_exponent=-0.18, fit_stderr=0.02, theoretical_exponent=-0.25,
        passed=True, config_hash="ab" * 32)
    path = tmp_path / "rate.csv"
    write_rate_csv(path, report)
    # a cell whose trials reached the PCG step cap reads inf; the footer
    # lines are '# key,value'
    assert path.read_text() == (
        "m,lambda,mean,median,std,cg_steps\n"
        "256,0.0625,0.0169,0.0165,0.0023,7.0\n"
        "512,0.0442,0.0117,0.0118,0.0014,inf\n"
        "# fitted_exponent,-0.18\n"
        "# fit_stderr,0.02\n"
        "# theoretical_exponent,-0.25\n"
        "# pass,true\n"
        "# degenerate,false\n"
        f"# config_hash,{'ab' * 32}\n")


def test_manifest_contents(tmp_path):
    doc = {"some": "config"}
    man = manifest(doc, seed=7)
    assert man["config_sha256"] == sha256_of(doc)
    assert man["seed"] == 7
    assert "backend" not in man  # one numeric backend, nothing to record
    vers = man["versions"]
    assert set(vers) == {"python", "numpy", "scalereg"}
    assert "timestamp" not in man  # byte-reproducible outputs
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_manifest(p1, doc, seed=7)
    write_manifest(p2, doc, seed=7)
    assert p1.read_bytes() == p2.read_bytes()
