import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalereg import (
    LambdaRule,
    RULE_NAMES,
    build_power_problem,
    effdim,
    lambda_balance_effdim,
    lambda_balance_general,
    lambda_power_table,
    theoretical_exponent,
)
from scalereg.lambda_rules import LAMBDA_FLOOR
from scalereg.model import FieldError, PowerProblemSpec


def test_balance_scalar_oracle():
    # single eigenvalue 1: 1/(1+lam) = 2 lam  =>  lam = (sqrt(3)-1)/2
    lam = lambda_balance_effdim(np.array([1.0]), 2)
    assert lam == pytest.approx((np.sqrt(3.0) - 1.0) / 2.0, abs=1e-12)
    assert lam == pytest.approx(0.36602540378443865)


def test_balance_warns_and_saturates_when_m_too_small():
    t = np.ones(50)
    with pytest.warns(UserWarning):
        lam = lambda_balance_effdim(t, 3)
    assert lam == 1.0
    # the other edge: N stays below m * lambda down to the floor
    with pytest.warns(UserWarning, match="floor"):
        lam = lambda_balance_effdim(np.array([1e-30]), 1)
    assert lam == LAMBDA_FLOOR


@given(st.integers(min_value=2, max_value=10 ** 7),
       st.floats(min_value=0.6, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_balance_residual_property(m, decay):
    import warnings

    t = np.arange(1, 400, dtype=np.float64) ** -decay
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny-m saturation is tested above
        lam = lambda_balance_effdim(t, m)
    if lam < 1.0:
        n = effdim(t, lam)
        assert abs(n - m * lam) <= 1e-7 * m * lam


def test_balance_general_matches_effdim_balance_at_r_one():
    t = np.arange(1, 600, dtype=np.float64) ** -2.0
    spec = PowerProblemSpec(s=1.0, a_link=0.5, r=1.0, q=1.0)
    lam_g = lambda_balance_general(t, spec, 5000)
    lam_b = lambda_balance_effdim(t, 5000)
    assert lam_g == lam_b


def test_balance_general_scalar_oracle():
    # single eigenvalue 1 and exponent 2a(r-1)+1 = 2: 1/(1+lam) = m lam^2,
    # the positive root of m lam^3 + m lam^2 - 1
    spec = PowerProblemSpec(s=1.0, a_link=0.5, r=2.0, q=2.0)
    m = 2
    want = [z.real for z in np.roots([m, m, 0.0, -1.0])
            if abs(z.imag) < 1e-12 and z.real > 0]
    assert len(want) == 1
    lam = lambda_balance_general(np.array([1.0]), spec, m)
    assert lam == pytest.approx(want[0], rel=1e-9)


def test_power_table_regular_regimes():
    # second regime at the quarter link: m^{-1/2}
    lam = lambda_power_table(0.25, 0.5, 2.0, 4.0, 2 ** 14, "regular")
    assert lam == pytest.approx(2.0 ** -7)
    # first regime when the qualification-side exponent dominates:
    # a q >= a r + (b+1)/2 -> lam = m^{-1/(2a(q-1))}
    lam1 = lambda_power_table(0.5, 0.5, 1.0, 4.0, 4096, "regular")
    assert lam1 == pytest.approx(4096.0 ** (-1.0 / 3.0), rel=1e-12)


def test_power_table_oversmoothing():
    lam = lambda_power_table(0.5, 0.5, 0.5, 1.0, 8 ** 3, "oversmoothing")
    assert lam == pytest.approx(1.0 / 64.0)  # m^{-2/3}


def test_power_table_validations():
    with pytest.raises(ValueError, match="r"):
        lambda_power_table(0.5, 0.5, 1.5, 1.0, 100, "oversmoothing")
    with pytest.raises(ValueError, match="q"):
        lambda_power_table(0.5, 0.5, 1.5, 1.0, 100, "regular")
    with pytest.raises(ValueError, match="case"):
        lambda_power_table(0.5, 0.5, 0.5, 1.0, 100, "both")
    # the rate law's checks, which theoretical_exponent shares; r = q = 1
    # is the one regular case that reaches the q > 1 check
    for (a, b, r, q, case), match in [
            ((0.0, 0.5, 0.5, 1.0, "oversmoothing"), "a must"),
            ((0.6, 0.5, 0.5, 1.0, "oversmoothing"), "a must"),
            ((0.5, -0.1, 0.5, 1.0, "oversmoothing"), "b must"),
            ((0.5, 0.5, 0.0, 1.0, "oversmoothing"), "r must"),
            ((0.5, 0.5, 1.0, 1.0, "regular"), "q > 1")]:
        with pytest.raises(ValueError, match=match):
            lambda_power_table(a, b, r, q, 100, case)
        with pytest.raises(ValueError, match=match):
            theoretical_exponent(a, b, r, q, case)
    with pytest.raises(ValueError, match="m must"):
        lambda_power_table(0.5, 0.5, 0.5, 1.0, 0, "oversmoothing")
    with pytest.raises(ValueError, match="m must"):
        lambda_balance_effdim(np.ones(4), 0)


@given(st.floats(min_value=1e-3, max_value=0.5),
       st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1.01, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_theoretical_exponent_closed_forms(a, b, u, q):
    # a r e, e the exponent of the lambda table, against the closed form
    # of each regime; u places r inside the case's range
    r = max(u, 1e-3)
    assert theoretical_exponent(a, b, r, q, "oversmoothing") == pytest.approx(
        -a * r / (b + 1.0), rel=1e-12)
    r = min(1.0 + u * (q - 1.0), q)
    if a * q >= a * r + (b + 1.0) / 2.0:
        want = -r / (2.0 * (q - 1.0))
    else:
        want = -a * r / (2.0 * a * r + b + 1.0 - 2.0 * a)
    assert theoretical_exponent(a, b, r, q, "regular") == pytest.approx(
        want, rel=1e-12)


def test_lambda_floor_applies():
    lam = lambda_power_table(0.25, 0.5, 2.0, 4.0, 10 ** 40, "regular")
    assert lam == LAMBDA_FLOOR


def test_rule_names_and_resolve():
    assert set(RULE_NAMES) == {"balance_effdim", "balance_general",
                               "power_table", "fixed"}
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=64, sigma=0.05)
    fixed = LambdaRule("fixed", {"value": 0.125})
    assert fixed.resolve(prob, 10 ** 6) == 0.125
    assert type(LambdaRule("fixed", {"value": 1}).params["value"]) is float
    bal = LambdaRule("balance_effdim", {})
    assert bal.resolve(prob, 4096) == pytest.approx(
        lambda_balance_effdim(prob.t, 4096))
    table = LambdaRule("power_table", {"case": "oversmoothing"})
    assert table.resolve(prob, 4096) == pytest.approx(4096.0 ** (-2.0 / 3.0))
    general = LambdaRule("balance_general")
    assert general.resolve(prob, 4096) == lambda_balance_general(
        prob.t, prob.smoothness, 4096)
    with pytest.raises(ValueError):
        LambdaRule("newton", {})
    with pytest.raises(ValueError):
        LambdaRule("fixed", {"value": 1.5}).resolve(prob, 100)
    # a table without a case is refused, even where "regular" would hold
    regular = build_power_problem(s=1.0, a_link=0.5, r=2.0, q=4.0,
                                  R_dagger=1.0, d=64, sigma=0.05)
    with pytest.raises(ValueError, match="case"):
        LambdaRule("power_table").resolve(regular, 100)


def test_rule_params_are_checked_at_construction():
    # a refused parameter names its key, before any resolve
    for kind, params, key in (("fixed", {}, "params/value"),
                              ("fixed", {"value": 0.0}, "params/value"),
                              ("fixed", {"value": 1.5}, "params/value"),
                              ("fixed", {"value": True}, "params/value"),
                              ("fixed", {"value": "0.5"}, "params/value"),
                              ("power_table", {"case": "bogus"},
                               "params/case"),
                              ("newton", {}, "kind")):
        with pytest.raises(FieldError) as exc:
            LambdaRule(kind, params)
        assert exc.value.field == key, (kind, params)


def test_rule_params_are_read_only():
    # the construction-time checks hold for the rule's whole life: its
    # params can be neither written nor changed through the given dict
    rule = LambdaRule("fixed", {"value": 0.5})
    with pytest.raises(TypeError):
        rule.params["value"] = 7.0
    given = {"value": 0.5}
    rule = LambdaRule("fixed", given)
    given["value"] = 7.0
    assert rule.params["value"] == 0.5


def test_rules_needing_smoothness_reject_bare_problems():
    from scalereg import NoiseModel, SpectralProblem
    bare = SpectralProblem(d=3, a=np.ones(3),
                           l=np.arange(1.0, 4.0), f_true=np.zeros(3),
                           noise=NoiseModel(0.0))
    with pytest.raises(ValueError):
        LambdaRule("power_table", {"case": "regular"}).resolve(bare, 100)
    assert LambdaRule("balance_effdim", {}).resolve(bare, 100) > 0
