import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalereg import (
    IndexFunction,
    check_index_function,
    check_sublinear,
    power_fn,
)
from scalereg.cli import INDEX_FN, ConfigError
from scalereg.model import FieldError


def from_config(cfg):
    """The index function of a config document, read by the command
    line's one parser of them."""
    return INDEX_FN.value(cfg, "/zeta")


def test_power_values():
    phi = power_fn(0.5)
    assert phi(4.0) == 2.0
    assert phi(0.0) == 0.0
    np.testing.assert_allclose(phi(np.array([1.0, 9.0])), [1.0, 3.0])


def test_log_kind_damps_and_vanishes_at_zero():
    phi = IndexFunction(kind="log", p=1.0, nu=2.0)
    assert phi(0.0) == 0.0
    t = 0.25
    assert phi(t) == pytest.approx(t / np.log(np.e + 1.0 / t) ** 2)
    # nu = 0 reduces to the plain power
    assert IndexFunction(kind="log", p=0.5, nu=0.0)(0.09) == pytest.approx(0.3)


def test_product_kind():
    phi = IndexFunction(kind="product", left=power_fn(0.5), right=power_fn(1.0))
    assert phi(4.0) == pytest.approx(8.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        power_fn(0.0)
    with pytest.raises(ValueError):
        IndexFunction(kind="log", p=0.0)
    with pytest.raises(ValueError):
        IndexFunction(kind="log", p=1.0, nu=-1.0)
    with pytest.raises(ValueError):
        IndexFunction(kind="product", left=power_fn(1.0))
    with pytest.raises(FieldError) as exc:
        IndexFunction(kind="product", right=power_fn(1.0))
    assert exc.value.field == "left"
    with pytest.raises(ValueError):
        IndexFunction(kind="nope")


@pytest.mark.parametrize("kw, key", [
    ({"kind": "power", "exponent": math.inf}, "exponent"),
    ({"kind": "power", "exponent": True}, "exponent"),
    ({"kind": "log", "p": True}, "p"), ({"kind": "log", "nu": math.inf}, "nu")])
def test_parameters_are_finite_numbers(kw, key):
    # the fields that the kind reads; each is stored as a float
    with pytest.raises(FieldError) as exc:
        IndexFunction(**kw)
    assert exc.value.field == key
    assert type(power_fn(1).exponent) is float
    assert type(IndexFunction(kind="log", p=1, nu=0).nu) is float


@given(st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_powers_are_valid_index_functions(e):
    assert check_index_function(power_fn(e))


@given(st.floats(min_value=0.05, max_value=0.85),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_sublinearity_of_log_damped_powers(p, frac):
    # phi(t)/t = t**(p-1) / log(e + 1/t)**nu is only monotone when the
    # damping is weak next to the power deficit 1 - p
    nu = 3.0 * (1.0 - p) * frac
    assert check_sublinear(IndexFunction(kind="log", p=p, nu=nu))


def test_log_damping_at_linear_power_is_not_sublinear():
    assert not check_sublinear(IndexFunction(kind="log", p=1.0, nu=1.0))


def test_superlinear_power_fails_sublinearity():
    assert not check_sublinear(power_fn(1.5))
    assert check_sublinear(power_fn(1.0))


def test_check_index_function_rejects_decreasing():
    assert not check_index_function(lambda t: 1.0 / (1.0 + t))


@given(st.recursive(
    st.one_of(
        st.builds(lambda e: {"kind": "power", "exponent": e},
                  st.floats(min_value=0.1, max_value=2.0)),
        st.builds(lambda p, nu: {"kind": "log", "p": p, "nu": nu},
                  st.floats(min_value=0.1, max_value=2.0),
                  st.floats(min_value=0.0, max_value=2.0)),
    ),
    lambda inner: st.builds(lambda a, b: {"kind": "product", "left": a,
                                          "right": b}, inner, inner),
    max_leaves=4,
))
@settings(max_examples=50, deadline=None)
def test_from_config_builds_the_documented_function(cfg):
    def documented(c, t):
        if c["kind"] == "power":
            return t ** c["exponent"]
        if c["kind"] == "log":
            return t ** c["p"] * np.log(np.e + 1.0 / t) ** -c["nu"]
        return documented(c["left"], t) * documented(c["right"], t)

    t = np.geomspace(1e-8, 1.0, 64)
    np.testing.assert_allclose(from_config(cfg)(t), documented(cfg, t),
                               rtol=1e-12, atol=0.0)


def test_from_config_rejects_garbage():
    with pytest.raises(ConfigError, match="need object"):
        from_config(42)
    with pytest.raises(ConfigError, match="need one of"):
        from_config({"kind": "spline"})
    # a missing field is a config error at its pointer, not a bare
    # KeyError
    for cfg, pointer in (
            ({"kind": "power"}, "/zeta/exponent"),
            ({"kind": "log", "nu": 1.0}, "/zeta/p"),
            ({"kind": "product", "left": {"kind": "power", "exponent": 1}},
             "/zeta/right")):
        with pytest.raises(ConfigError, match="missing required field") as exc:
            from_config(cfg)
        assert exc.value.pointer == pointer
