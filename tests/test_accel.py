"""The accelerated kernels must agree with direct numpy evaluation."""

import os
import subprocess
import sys

import numpy as np

import scalereg
from scalereg import _accel
from scalereg import backend_name, clenshaw_cosine, weighted_cosine_table


def _direct_table(x, w):
    j = np.arange(w.size)
    return np.cos(np.outer(np.pi * x, j)) * w[None, :]


def _direct_clenshaw(x, coef):
    j = np.arange(coef.size)
    return np.cos(np.outer(np.pi * x, j)) @ coef


def test_weighted_table_matches_direct_cos():
    rng = np.random.default_rng(3)
    for m, d in [(7, 5), (64, 64), (101, 257), (256, 130)]:
        x = rng.random(m)
        w = rng.random(d) + 0.1
        got = weighted_cosine_table(x, w)
        want = _direct_table(x, w)
        err = np.abs(got - want).max()
        assert err <= 2e-12, f"table deviates by {err} at m={m}, d={d}"


def test_numpy_table_equals_a_per_column_loop():
    # the numpy backend fills a transposed buffer; its values must be
    # exactly those of the column-by-column recurrence
    rng = np.random.default_rng(4)
    for m, d in [(1, 1), (9, 1), (9, 2), (31, 64), (31, 65), (200, 300)]:
        x = rng.random(m)
        w = rng.standard_normal(d)
        want = np.empty((m, d))
        want[:, 0] = w[0]
        c = np.cos(np.pi * x)
        prev2, prev1 = np.ones(m), c
        if d > 1:
            want[:, 1] = w[1] * c
        for j in range(2, d):
            if j % _accel._BLOCK < 2:
                cur = np.cos((j * np.pi) * x)
            else:
                cur = 2.0 * c * prev1 - prev2
            want[:, j] = w[j] * cur
            prev2, prev1 = prev1, cur
        got = _accel._weighted_cosine_table_np(x, w)
        assert got.shape == (m, d)
        assert np.array_equal(got, want)


def test_table_blocked_recurrence_stays_accurate_at_large_d():
    # d far beyond the reseed block, x near the endpoints where the
    # three-term recurrence is most delicate
    x = np.array([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0])
    w = np.ones(4096)
    got = weighted_cosine_table(x, w)
    want = _direct_table(x, w)
    assert np.abs(got - want).max() <= 5e-12


def test_clenshaw_matches_direct_sum():
    rng = np.random.default_rng(11)
    x = rng.random(333)
    coef = rng.standard_normal(500)
    got = clenshaw_cosine(x, coef)
    want = _direct_clenshaw(x, coef)
    # Clenshaw error grows like d*eps on the coefficient scale
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(coef).sum())


def test_clenshaw_trivial_sizes():
    x = np.array([0.25, 0.75])
    assert np.allclose(clenshaw_cosine(x, np.array([3.0])), [3.0, 3.0])
    got = clenshaw_cosine(x, np.array([1.0, 1.0]))
    assert np.allclose(got, 1.0 + np.cos(np.pi * x), atol=1e-14)


def test_backend_name_reports_active_path():
    assert backend_name() in ("numba", "numpy")


def test_numpy_fallback_agrees_with_active_backend(tmp_path):
    """The env-flag fallback must produce the same numbers."""
    code = (
        "import numpy as np, scalereg\n"
        "assert scalereg.backend_name() == 'numpy', scalereg.backend_name()\n"
        "rng = np.random.default_rng(3)\n"
        "x = rng.random(50); w = rng.random(40) + 0.1\n"
        "np.save('tab.npy', scalereg.weighted_cosine_table(x, w))\n"
        "np.save('cl.npy', scalereg.clenshaw_cosine(x, rng.standard_normal(40)))\n"
    )
    # the child imports the same copy of the package as this process, from
    # any working directory and whether or not the package is installed
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(scalereg.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, SCALEREG_NO_NUMBA="1",
               PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   cwd=tmp_path)
    tab = np.load(tmp_path / "tab.npy")
    cl = np.load(tmp_path / "cl.npy")

    rng = np.random.default_rng(3)
    x = rng.random(50)
    w = rng.random(40) + 0.1
    assert np.abs(tab - weighted_cosine_table(x, w)).max() <= 1e-12
    assert np.abs(cl - clenshaw_cosine(x, rng.standard_normal(40))).max() <= 1e-12


def test_warmup_is_idempotent():
    scalereg.warmup()
    scalereg.warmup()
