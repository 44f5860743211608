import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalereg import (
    NoiseModel,
    PowerProblemSpec,
    SpectralProblem,
    build_power_problem,
    distance_bound,
    distance_curve,
    distance_fn,
    distance_fn_q,
    r_of_lambda,
)


def _toy(l, f):
    l = np.asarray(l, dtype=np.float64)
    return SpectralProblem(d=l.size, a=np.ones(l.size), l=l,
                           f_true=np.asarray(f, dtype=np.float64),
                           noise=NoiseModel(0.0))


def test_scalar_kkt_oracle():
    prob = _toy([2.0], [1.0])
    res = distance_fn(prob, 1.0)
    # ||Lf|| = 2 > 1: v = lf/(1+mu l^2) with mu = 1/4 gives v = 1
    assert res.d_value == pytest.approx(0.5, abs=1e-9)
    assert res.minimizer_v[0] == pytest.approx(1.0, abs=1e-9)
    assert res.mu == pytest.approx(0.25, rel=1e-6)


def test_scalar_kkt_oracle_benchmark_order_two():
    prob = _toy([2.0], [1.0])
    res = distance_fn_q(prob, 2.0, 2.0)
    assert res.d_value == pytest.approx(1.0, abs=1e-9)
    exact = distance_fn_q(prob, 2.0, 4.0)
    assert exact.d_value == 0.0 and exact.mu == 0.0
    np.testing.assert_allclose(exact.minimizer_v, [4.0])


def test_distance_zero_iff_radius_covers_truth():
    rng = np.random.default_rng(1)
    l = np.sort(rng.random(6) * 3.0 + 0.5)
    f = rng.standard_normal(6)
    prob = _toy(l, f)
    norm_lf = np.linalg.norm(l * f)
    assert distance_fn(prob, norm_lf).d_value == 0.0
    assert distance_fn(prob, norm_lf * 1.001).d_value == 0.0
    assert distance_fn(prob, norm_lf * 0.999).d_value > 0.0


def _brute_force_distance(l, f, R, theta, n_iter=60000):
    """Projected gradient on min ||f - l^-theta v|| over ||v|| <= R."""
    w = l ** -theta
    v = np.zeros_like(f)
    step = 0.9 / (w * w).max()
    for _ in range(n_iter):
        grad = w * (w * v - f)
        v = v - step * grad
        nv = np.linalg.norm(v)
        if nv > R:
            v *= R / nv
    return np.linalg.norm(f - w * v)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=12, deadline=None)
def test_kkt_matches_projected_gradient(d, seed):
    rng = np.random.default_rng(seed)
    l = np.sort(rng.random(d) * 2.0 + 0.5)
    f = rng.standard_normal(d)
    R = float(rng.random() * 0.8 * max(np.linalg.norm(l * f), 0.1))
    if R <= 0:
        R = 0.05
    prob = _toy(l, f)
    want = _brute_force_distance(l, f, R, 1.0)
    got = distance_fn(prob, R).d_value
    assert got == pytest.approx(want, abs=1e-6)


def test_q_distance_matches_projected_gradient_in_graph_norm():
    rng = np.random.default_rng(44)
    l = np.sort(rng.random(5) * 2.0 + 0.5)
    f = rng.standard_normal(5)
    q = 2.5
    R = 0.4 * np.linalg.norm(l ** q * f)
    prob = _toy(l, f)
    got = distance_fn_q(prob, q, R).d_value

    # graph-norm distance: minimize ||L(f - L^-q v)|| directly
    w = l ** (1.0 - q)
    target = l * f
    v = np.zeros_like(f)
    step = 0.9 / (w * w).max()
    for _ in range(80000):
        grad = w * (w * v - target)
        v = v - step * grad
        nv = np.linalg.norm(v)
        if nv > R:
            v *= R / nv
    want = np.linalg.norm(target - w * v)
    assert got == pytest.approx(want, abs=1e-6)


def test_distance_curve_is_nonincreasing():
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=200, sigma=0.0)
    Rs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    curve = distance_curve(prob, Rs)
    assert np.all(np.diff(curve.values) < 0)
    curve_q = distance_curve(prob, Rs, q=2.0)
    assert np.all(np.diff(curve_q.values) < 0)


def test_power_bound_dominates_exact_distance():
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=200, sigma=0.0)
    for R in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]:
        exact = distance_fn(prob, R).d_value
        bound = distance_bound(0.5, 1.0, R)
        assert exact <= bound + 1e-12, (R, exact, bound)


def test_distance_bound_degenerates_at_attained_smoothness():
    with pytest.warns(UserWarning):
        assert distance_bound(1.0, 1.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        distance_bound(0.5, -1.0, 2.0)
    with pytest.raises(ValueError, match="theta_r"):
        distance_bound(0.0, 1.0, 2.0)


def test_distance_refusals():
    prob = _toy([1.0, 2.0], [1.0, 1.0])
    for R in (0.0, -1.0):
        with pytest.raises(ValueError, match="R must"):
            distance_fn(prob, R)
        with pytest.raises(ValueError, match="R must"):
            distance_fn_q(prob, 2.0, R)
    with pytest.raises(ValueError, match="q must"):
        distance_fn_q(prob, 1.0, 1.0)


def test_r_of_lambda_regimes():
    spec = PowerProblemSpec(s=1.0, a_link=0.5, r=0.5, q=1.0, R_dagger=2.0)
    # oversmoothing: R(lam) = R_dagger lam^{a(r-1)}
    assert r_of_lambda(spec, 0.04, "oversmoothing") == pytest.approx(
        2.0 * 0.04 ** -0.25)
    spec2 = PowerProblemSpec(s=0.5, a_link=0.25, r=2.0, q=4.0)
    assert r_of_lambda(spec2, 0.01, "regular") == pytest.approx(
        0.01 ** (0.25 * -2.0))
    with pytest.raises(ValueError):
        r_of_lambda(spec, 2.0, "oversmoothing")
    with pytest.raises(ValueError):
        r_of_lambda(spec, 0.1, "middle")
