import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalereg import (
    build_power_problem,
    check_effdim_relation,
    check_tail_condition,
    effdim,
    effdim_curve,
    fit_effdim_exponent,
    power_fn,
)


def test_effdim_hand_value():
    assert effdim([1.0, 0.5, 0.25], 0.5) == pytest.approx(
        1.0 / 1.5 + 0.5 / 1.0 + 0.25 / 0.75)
    with pytest.raises(ValueError):
        effdim([1.0], 0.0)


@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1.1, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_effdim_monotone_decreasing_in_lambda(lam, factor):
    t = np.arange(1, 101, dtype=np.float64) ** -2.0
    assert effdim(t, lam * factor) < effdim(t, lam)
    assert 0.0 < effdim(t, lam) < 100.0


def test_effdim_curve_shape():
    t = np.arange(1, 201, dtype=np.float64) ** -2.0
    curve = effdim_curve(t, 1e-4, 1e-1, points_per_decade=10)
    assert curve.lambdas.size == 31
    assert np.all(np.diff(curve.values) < 0)
    with pytest.raises(ValueError):
        effdim_curve(t, 1e-1, 1e-4)


def test_fitted_exponent_matches_polynomial_decay():
    t = np.arange(1, 2001, dtype=np.float64) ** -2.0
    fit = fit_effdim_exponent(t, 1e-5, 1e-2)
    assert abs(fit["b_hat"] - 0.5) <= 0.05, fit
    assert fit["stderr"] < 0.01


def test_fitted_exponent_refuses_truncation_regime():
    t = np.arange(1, 51, dtype=np.float64) ** -2.0
    with pytest.raises(ValueError):
        fit_effdim_exponent(t, 1e-9, 1e-6)
    with pytest.raises(ValueError, match="lambda_hi <= 1"):
        fit_effdim_exponent(t, 1e-3, 2.0)


def test_tail_condition_on_own_eigenvalue_grid():
    t = np.arange(1, 2001, dtype=np.float64) ** -2.0
    c = check_tail_condition(t, t)
    assert c == pytest.approx(0.9685482364835313, rel=1e-12)


def test_tail_condition_on_generic_grid():
    t = np.arange(1, 2001, dtype=np.float64) ** -2.0
    c = check_tail_condition(t, np.logspace(-6, 0, 200))
    assert c == pytest.approx(2.4101434730080467, rel=1e-12)


def test_tail_condition_geometric_spectrum():
    # e^{-j}: the tail sum below e^{-k} is e^{-k}/(e-1) against k modes
    t = np.exp(-np.arange(1, 60, dtype=np.float64))
    c = check_tail_condition(t, t)
    assert c == pytest.approx(1.0 / (np.e - 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        check_tail_condition(t, [0.0, 0.5])
    # every grid point above the top of the spectrum: nothing to check
    with pytest.raises(ValueError, match="no grid point"):
        check_tail_condition(t, [0.5, 2.0])


def test_effdim_relation_on_quarter_link_problem():
    prob = build_power_problem(s=0.5, a_link=0.25, r=2.0, q=4.0,
                               R_dagger=1.0, d=2000, sigma=0.05)
    rep = check_effdim_relation(prob, power_fn(0.25),
                                np.logspace(-5, -1, 161))
    assert rep["pass"] and rep["n_skipped"] == 0
    assert rep["max_ratio"] == pytest.approx(4.465715743234691, rel=1e-9)


def test_effdim_relation_fails_off_hypothesis():
    # flat top of the scale spectrum: the relation's constant blows up
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=2000, sigma=0.05)
    # a_j = 1 makes the L-spectrum flat at 1.0 and lambda / rho(lambda)^2 = 1
    # exactly, so no grid point lies above the top: none is skipped
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        rep = check_effdim_relation(prob, power_fn(0.5),
                                    np.logspace(-5, -2, 121))
    assert not rep["pass"]
    assert rep["max_ratio"] == pytest.approx(65.97186774665856, rel=1e-6)
    assert rep["n_skipped"] == 0


def test_effdim_relation_skips_arguments_above_the_top():
    # quarter link: the rescaled argument is lambda^(1/2) against a top of
    # 1.0, so exactly the ten grid points with lambda > 1 are skipped, and
    # lambda = 1 (argument exactly at the top) is kept
    prob = build_power_problem(s=0.5, a_link=0.25, r=2.0, q=4.0,
                               R_dagger=1.0, d=2000, sigma=0.05)
    with pytest.warns(UserWarning, match="skipped 10 grid points") as rec:
        rep = check_effdim_relation(prob, power_fn(0.25),
                                    np.logspace(-1, 1, 21))
    assert len(rec) == 1
    assert rep["n_skipped"] == 10


def test_effdim_relation_fails_when_every_point_is_skipped():
    # every lambda in [10, 100] rescales above the quarter-link top of 1.0,
    # so the grid checks nothing and must not read as a pass
    prob = build_power_problem(s=0.5, a_link=0.25, r=2.0, q=4.0,
                               R_dagger=1.0, d=2000, sigma=0.05)
    with pytest.warns(UserWarning, match="skipped 5 grid points"):
        rep = check_effdim_relation(prob, power_fn(0.25),
                                    np.logspace(1, 2, 5))
    assert rep["n_skipped"] == 5
    assert not rep["pass"]
