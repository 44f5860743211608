import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalereg import (
    FILTER_NAMES,
    check_covering,
    check_prop_regularization,
    check_qualification,
    check_regularization_constants,
    filter_values,
    landweber_iterations,
    make_filter,
    power_fn,
    residual_values,
)
from scalereg.filters import _LAMBDA_GRID, _T_GRID

LAMBDAS = st.floats(min_value=1e-6, max_value=1.0)


def test_default_grids():
    # the checks' fixed grids, shared read-only by every call
    lg, tg = _LAMBDA_GRID, _T_GRID
    assert lg.size == 400 and lg[0] == pytest.approx(1e-6) and lg[-1] == 1.0
    assert tg.size == 1000 and tg[0] == 0.0 and tg[-1] == 1.0
    for grid in (lg, tg):
        with pytest.raises(ValueError):
            grid[0] = 0.5


def test_make_filter_ids_and_validation():
    for name in FILTER_NAMES:
        assert make_filter(name).id == name
    with pytest.raises(ValueError):
        make_filter("ridge")


def test_tikhonov_values():
    filt = make_filter("tikhonov")
    t = np.array([0.0, 0.1, 1.0])
    np.testing.assert_allclose(filter_values(filt, 0.5, t), 1.0 / (t + 0.5))
    np.testing.assert_allclose(residual_values(filt, 0.5, t), 0.5 / (t + 0.5))


def test_cutoff_values():
    filt = make_filter("cutoff")
    t = np.array([0.01, 0.5, 1.0])
    got = filter_values(filt, 0.25, t)
    np.testing.assert_allclose(got, [0.0, 2.0, 1.0])
    np.testing.assert_allclose(residual_values(filt, 0.25, t), [1.0, 0.0, 0.0])


def test_landweber_iteration_count_and_values():
    assert landweber_iterations(1.0) == 1
    assert landweber_iterations(0.11) == 10
    assert landweber_iterations(1e-9) == 10 ** 6  # capped
    filt = make_filter("landweber")
    lam = 0.25
    nu = landweber_iterations(lam)
    t = np.array([0.0, 0.3, 1.0])
    want_g = np.array([float(nu), (1.0 - 0.7 ** nu) / 0.3, 1.0])
    np.testing.assert_allclose(filter_values(filt, lam, t), want_g, rtol=1e-12)
    np.testing.assert_allclose(residual_values(filt, lam, t),
                               (1.0 - t) ** nu, rtol=1e-12)


def test_declared_constants_hold_on_default_grids():
    for name in FILTER_NAMES:
        rep = check_regularization_constants(make_filter(name))
        assert rep.passed, (
            f"{name}: D_obs={rep.D_obs}, B_obs={rep.B_obs}, "
            f"gamma_obs={rep.gamma_obs}")


def test_tikhonov_gamma_p_formula_and_saturation():
    filt = make_filter("tikhonov")
    assert filt.gamma_p_at(1.0) == 1.0
    assert filt.gamma_p_at(0.5) == pytest.approx(0.5)
    assert filt.gamma_p_at(0.25) == pytest.approx(
        0.25 ** 0.25 * 0.75 ** 0.75)
    assert filt.gamma_p_at(1.5) == math.inf
    with pytest.raises(ValueError):
        filt.gamma_p_at(0.0)


def test_observed_qualification_within_declared():
    for name, p in [("tikhonov", 1.0), ("tikhonov", 0.5),
                    ("cutoff", 3.0), ("landweber", 1.0), ("landweber", 2.0)]:
        filt = make_filter(name)
        obs = check_qualification(filt, p)
        declared = filt.gamma_p_at(p)
        assert obs <= declared + 1e-9, f"{name} p={p}: {obs} > {declared}"
    with pytest.raises(ValueError, match="p must"):
        check_qualification(make_filter("tikhonov"), 0.0)


def test_tikhonov_saturates_past_order_one():
    # the order-2 envelope is unbounded as lambda shrinks
    obs = check_qualification(make_filter("tikhonov"), 2.0)
    assert obs > 10.0


@given(LAMBDAS)
@settings(max_examples=60, deadline=None)
def test_filter_and_residual_pointwise_envelopes(lam):
    t = _T_GRID
    for name in FILTER_NAMES:
        filt = make_filter(name)
        g = filter_values(filt, lam, t)
        r = residual_values(filt, lam, t)
        assert np.all(np.abs(t * g) <= filt.D + 1e-9)
        assert np.all(np.abs(g) * lam <= filt.B + 1e-9)
        assert np.all(np.abs(r) <= filt.gamma + 1e-9)
        np.testing.assert_allclose(r, 1.0 - t * g, atol=1e-12)


def test_nonpositive_lambda_and_oversized_spectrum_rejected():
    filt = make_filter("tikhonov")
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError):
            filter_values(filt, lam, np.array([0.5]))
    with pytest.raises(ValueError):
        filter_values(filt, 0.1, np.array([1.5]))
    with pytest.raises(ValueError):
        filter_values(filt, 0.1, np.array([-0.5]))


@pytest.mark.parametrize("name", FILTER_NAMES)
@pytest.mark.parametrize("kappa_sq", [1.0, 0.3, 4.0])
def test_spectrum_outside_zero_to_kappa_sq_rejected(name, kappa_sq):
    # one rule for every filter: 0 <= t <= kappa^2 (1 + 1e-9)
    filt = make_filter(name)
    edge = np.array([0.0, kappa_sq * (1.0 + 0.5e-9)])
    for fn in (filter_values, residual_values):
        assert np.all(np.isfinite(fn(filt, 0.1, edge, kappa_sq)))
        for bad in (-1e-300, -0.5, kappa_sq * (1.0 + 2e-9), 2.0 * kappa_sq):
            with pytest.raises(ValueError):
                fn(filt, 0.1, np.array([0.5 * kappa_sq, bad]), kappa_sq)


def test_covering_checks():
    assert check_covering(1.0, power_fn(0.5))
    assert check_covering(1.0, power_fn(1.0))
    assert not check_covering(1.0, power_fn(2.0))
    assert check_covering(2.0, power_fn(2.0))
    with pytest.raises(ValueError, match="p must"):
        check_covering(0.0, power_fn(0.5))


def test_prop_regularization_tikhonov_sqrt():
    rep = check_prop_regularization(make_filter("tikhonov"), power_fn(0.5))
    assert rep.passed and rep.p == 1.0 and rep.c_p == 1.0
    assert rep.max_ratio_1 <= 1.0 + 1e-9
    assert rep.max_ratio_2 <= 2.0 + 1e-9


def test_prop_regularization_cutoff_identity():
    rep = check_prop_regularization(make_filter("cutoff"), power_fn(1.0))
    assert rep.passed and rep.p == 1.0
    assert rep.max_ratio_2 <= 2.0 * rep.c_p + 1e-9


def test_prop_regularization_refuses_uncovered_phi():
    with pytest.raises(ValueError):
        check_prop_regularization(make_filter("tikhonov"), power_fn(2.0))
    # cutoff has infinite qualification: no tested order up to 8 covers
    # t^16
    with pytest.raises(ValueError, match="no tested qualification"):
        check_prop_regularization(make_filter("cutoff"), power_fn(16.0))


def test_spectrum_rescaling_routes():
    # spectra above the canonical domain: landweber acts on t / kappa^2,
    # the others on t itself
    spectrum = np.array([2.5, 1.0, 0.25])
    lam = 0.1

    lw = make_filter("landweber")
    # lambda stays in filter units: g(t) = g~_lambda(t / kappa^2) / kappa^2
    g = filter_values(lw, lam, spectrum, kappa_sq=4.0)
    nu = landweber_iterations(lam)
    want = (1.0 - (1.0 - spectrum / 4.0) ** nu) / spectrum
    np.testing.assert_allclose(g, want, rtol=1e-10)
    r = residual_values(lw, lam, spectrum, kappa_sq=4.0)
    np.testing.assert_allclose(r, 1.0 - spectrum * g, atol=1e-12)

    tik = make_filter("tikhonov")
    np.testing.assert_allclose(filter_values(tik, lam, spectrum, kappa_sq=2.5),
                               1.0 / (spectrum + lam))


@pytest.mark.parametrize("kappa_sq", [0.3, 1.0, 2.5, 4.0, 1e3])
def test_landweber_acts_on_t_over_kappa_sq(kappa_sq):
    # bit for bit: g(t) = g~(t / kappa^2) / kappa^2, r(t) = r~(t / kappa^2)
    lw = make_filter("landweber")
    t = _T_GRID * kappa_sq
    for lam in (0.5, 0.01, 1e-7):
        assert np.array_equal(filter_values(lw, lam, t, kappa_sq),
                              filter_values(lw, lam, t / kappa_sq) / kappa_sq)
        assert np.array_equal(residual_values(lw, lam, t, kappa_sq),
                              residual_values(lw, lam, t / kappa_sq))


@pytest.mark.parametrize("name", ["tikhonov", "cutoff"])
def test_tikhonov_and_cutoff_ignore_kappa_sq(name):
    # on t <= min(1, kappa^2) the value does not depend on kappa^2 at all
    filt = make_filter(name)
    for kappa_sq in (0.3, 1.0, 2.5, 1e3):
        t = _T_GRID * min(1.0, kappa_sq)
        for lam in (0.5, 0.01, 1e-7):
            assert np.array_equal(filter_values(filt, lam, t, kappa_sq),
                                  filter_values(filt, lam, t))
            assert np.array_equal(residual_values(filt, lam, t, kappa_sq),
                                  residual_values(filt, lam, t))
