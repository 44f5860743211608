import math

import numpy as np
import pytest

from scalereg import (
    NoiseModel,
    PowerProblemSpec,
    SpectralProblem,
    build_power_problem,
    design_matrix,
    forward_eval,
    hilbert_scale_norm,
    truncation_dim,
)
from scalereg.model import FieldError, _cosine_sum
from scalereg.reporting import sha256_of


def test_power_problem_link_held_with_equality():
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=4, sigma=0.0)
    np.testing.assert_array_equal(prob.a, np.ones(4))
    np.testing.assert_array_equal(prob.l, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(prob.t, [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])
    # v_j = 1/2 each, f = l**(-r) v
    np.testing.assert_allclose(prob.f_true,
                               0.5 * np.array([1.0, 2.0, 3.0, 4.0]) ** -0.5)


def test_power_problem_quarter_link():
    prob = build_power_problem(s=1.0, a_link=0.25, r=2.0, q=4.0,
                               R_dagger=1.0, d=3, sigma=0.0)
    np.testing.assert_allclose(prob.a, [1.0, 0.5, 1.0 / 3.0])
    np.testing.assert_allclose(prob.t, [1.0, 2.0 ** -4, 3.0 ** -4])


def test_covariance_spectrum_is_link_power_of_scale():
    for s, a in [(0.5, 0.25), (1.0, 0.5), (2.0, 0.4)]:
        prob = build_power_problem(s=s, a_link=a, r=1.0, q=2.0,
                                   R_dagger=1.0, d=50, sigma=0.1)
        np.testing.assert_allclose(prob.t, prob.l ** (-1.0 / a), rtol=1e-13)


def test_source_norm_matches_r_dagger():
    for pattern in ("constant", "seeded"):
        prob = build_power_problem(s=1.0, a_link=0.5, r=0.7, q=2.0,
                                   R_dagger=3.0, d=17, sigma=0.0,
                                   v_pattern=pattern)
        v = prob.l ** 0.7 * prob.f_true
        assert np.linalg.norm(v) == pytest.approx(3.0, rel=1e-12), pattern


def test_invalid_power_problem_parameters():
    with pytest.raises(ValueError):
        build_power_problem(s=1.0, a_link=0.6, r=0.5, q=1.0,
                            R_dagger=1.0, d=4, sigma=0.0)
    with pytest.raises(ValueError):
        build_power_problem(s=-1.0, a_link=0.5, r=0.5, q=1.0,
                            R_dagger=1.0, d=4, sigma=0.0)
    # the spec checks the truncation and the pattern of a direct build
    with pytest.raises(ValueError, match="d must"):
        build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                            R_dagger=1.0, d=1, sigma=0.0)
    with pytest.raises(ValueError, match="v_pattern"):
        build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0, R_dagger=1.0,
                            d=4, sigma=0.0, v_pattern="alternating")


_VALID = dict(s=0.5, a_link=0.25, r=2.0, q=4.0, R_dagger=1.0, sigma=0.05)


@pytest.mark.parametrize("name", sorted(_VALID))
def test_problem_spec_refuses_nan(name):
    # every check refuses a NaN, an infinity and a non-number; a bool
    # would run as 1.0 but be kept, and digested, as true
    PowerProblemSpec(**_VALID)
    for bad in (math.nan, math.inf, True, "1"):
        with pytest.raises(FieldError, match=name) as exc:
            PowerProblemSpec(**dict(_VALID, **{name: bad}))
        assert exc.value.field == name


def test_problem_spec_stores_floats():
    # a config written with 1 and one written with 1.0 have one digest
    spec = PowerProblemSpec(s=1, a_link=0.5, r=1, q=np.int64(2),
                            R_dagger=np.float32(2.0), sigma=0)
    written = PowerProblemSpec(s=1.0, a_link=0.5, r=1.0, q=2.0,
                               R_dagger=2.0, sigma=0.0)
    assert sha256_of(spec.to_dict()) == sha256_of(written.to_dict())
    assert all(type(getattr(spec, k)) is float for k in _VALID)


def test_truncation_dim():
    assert truncation_dim(256, 1.0) == 64
    assert truncation_dim(16384, 1.0) == 512
    assert truncation_dim(256, 0.5) == 1024
    assert truncation_dim(16384, 0.5) == 2000  # capped
    assert truncation_dim(2, 2.0) == 64  # floored
    with pytest.raises(ValueError):
        truncation_dim(0, 1.0)
    for s in (0.0, -1.0):
        with pytest.raises(ValueError, match="s must"):
            truncation_dim(256, s)


def test_truncation_dim_caps_where_the_power_overflows():
    # 16384^(1/0.002) is beyond the float range; d is the cap
    assert truncation_dim(16384, 0.001) == 2000
    for m in (1, 2, 64, 256, 2048, 16384):
        for s in (0.01, 0.05, 0.25, 0.5, 1.0, 2.0):
            power = 4 * math.ceil(m ** (1.0 / (2.0 * s)))
            want = int(min(2000, max(64, power)))
            assert truncation_dim(m, s) == want, (m, s)


def test_problem_spec_build_and_dict():
    spec = PowerProblemSpec(s=1.0, a_link=0.5, r=0.5, q=1.0, sigma=0.1)
    prob = spec.build(1024, seed=0)
    assert prob.d == truncation_dim(1024, 1.0)
    # the problem keeps the spec of its own d, and its noise
    assert prob.smoothness == PowerProblemSpec(s=1.0, a_link=0.5, r=0.5,
                                               q=1.0, sigma=0.1,
                                               d_override=prob.d)
    assert prob.noise == spec.noise == NoiseModel(0.1)
    spec_d = PowerProblemSpec(s=1.0, a_link=0.5, r=0.5, q=1.0, sigma=0.1,
                              d_override=48)
    assert spec_d.build(10 ** 6, seed=0).d == 48
    assert spec_d.to_dict()["d_override"] == 48
    assert "d_override" not in spec.to_dict()
    # d = 0 is no "no override": it is refused with d = 1 and sigma < 0,
    # at construction, before any build
    for kw in ({"d_override": 0}, {"d_override": 1}, {"sigma": -1.0}):
        with pytest.raises(ValueError, match="d must|sigma"):
            PowerProblemSpec(s=1.0, a_link=0.5, r=0.5, q=1.0, **kw)


def test_problem_spec_d_is_an_integer():
    # 64.5 would fail inside numpy at build time; 64.0 is the count 64
    with pytest.raises(FieldError, match="d must be an integer") as exc:
        PowerProblemSpec(s=1.0, a_link=0.5, r=0.5, q=1.0, d_override=64.5)
    assert exc.value.field == "d"
    spec = PowerProblemSpec(s=1.0, a_link=0.5, r=0.5, q=1.0, d_override=64.0)
    assert type(spec.d_override) is int and spec.build(256, seed=0).d == 64


def test_spectral_problem_refusals():
    ok = dict(d=3, a=np.ones(3), l=np.arange(1.0, 4.0), f_true=np.zeros(3),
              noise=NoiseModel(0.0))
    SpectralProblem(**ok)
    for bad, match in [({"d": 0}, "d must be >= 1"),
                       ({"f_true": np.zeros(2)}, "f_true must have length"),
                       ({"a": np.array([1.0, 0.0, 1.0])}, "a_j"),
                       ({"l": np.array([1.0, -1.0, 2.0])}, "l_j"),
                       ({"l": np.array([1.0, 3.0, 2.0])}, "nondecreasing")]:
        with pytest.raises(ValueError, match=match):
            SpectralProblem(**dict(ok, **bad))


def test_kappa_sums():
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=3, sigma=0.0)
    # t = (1, 1/4, 1/9): kappa^2 = t_1 + 2*(t_2 + t_3)
    assert prob.kappa_sq == pytest.approx(1.0 + 2.0 * (0.25 + 1.0 / 9.0))
    # a_j = 1 for the half link
    assert prob.kappa_tilde_sq == pytest.approx(1.0 + 2.0 * 2.0)


def _basis(d, x):
    # e_1 = 1, e_j = sqrt(2) cos((j-1) pi x), straight from np.cos
    E = np.sqrt(2.0) * np.cos(np.pi * np.outer(x, np.arange(d)))
    E[:, 0] = 1.0
    return E


def test_basis_is_orthonormal_under_midpoint_quadrature():
    n = 4096
    x = (np.arange(n) + 0.5) / n
    E = _basis(6, x)
    G = E.T @ E / n
    np.testing.assert_allclose(G, np.eye(6), atol=1e-12)


def test_forward_eval_matches_explicit_sum():
    prob = build_power_problem(s=1.0, a_link=0.25, r=1.0, q=2.0,
                               R_dagger=1.0, d=9, sigma=0.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(9)
    # outside [0, 1] the series is 2-periodic
    x = np.concatenate(([0.0, 1.0, -0.3, 1.7, 2.0], rng.random(40)))
    want = _basis(9, x) @ (prob.a * f)
    np.testing.assert_allclose(forward_eval(prob, f, x), want, atol=1e-12)
    # a scalar point gives a length-1 vector
    np.testing.assert_array_equal(forward_eval(prob, f, x[2]),
                                  forward_eval(prob, f, x[2:3]))


def _direct_cosine_sum(x, c):
    return np.cos(np.pi * np.outer(x, np.arange(c.size))) @ c


@pytest.mark.parametrize("d", [1, 2, 3, 64, 65, 300, 2000, 4000])
def test_cosine_sum_matches_direct_cos(d):
    # the fixed width and oversampling of the gridding keep its error
    # below 1e-12 of the coefficient scale (about 3e-14 measured)
    rng = np.random.default_rng(d)
    c = rng.standard_normal(d)
    points = [rng.random(m) for m in (1, 2, 37, 1000)]
    for x in points[1:]:
        x[:2] = 0.0, 1.0
    # the series is 2-periodic; -1e-300 mod 2 rounds to 2 itself
    points.append(np.array([-0.3, 1.7, 2.0, -2.5, 3.25, -1e-300]))
    for x in points:
        got = _cosine_sum(x, c)
        assert got.shape == x.shape
        err = np.abs(got - _direct_cosine_sum(x, c)).max()
        assert err <= 1e-12 * np.abs(c).sum(), (x.size, err)


@pytest.mark.parametrize("m, d", [(2048, 2000), (4096, 512)])
def test_forward_eval_agrees_with_design_matrix(m, d):
    # the data's g and the estimator's design describe the same function,
    # the sqrt(2) of e_j included
    prob = build_power_problem(s=0.5, a_link=0.25, r=2.0, q=4.0,
                               R_dagger=1.0, d=d, sigma=0.05)
    rng = np.random.default_rng(m + d)
    x = np.concatenate(([0.0, 1.0], rng.random(m - 2)))
    phi = design_matrix(prob, x)
    for f in (prob.f_true, rng.standard_normal(d)):
        want = phi @ (prob.l * f)
        err = np.abs(forward_eval(prob, f, x) - want).max()
        # relative to sum_j |a_j f_j| sup|e_j|; the gridding error of
        # forward_eval (at most 3.3e-14) dominates the table's
        coef = np.abs(prob.a * f)
        assert err <= 1e-13 * (coef[0] + np.sqrt(2.0) * coef[1:].sum())


def test_hilbert_scale_norm():
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=2, sigma=0.0)
    f = np.array([3.0, 4.0])
    assert hilbert_scale_norm(prob, f, 0.0) == pytest.approx(5.0)
    # l = (1, 2): ||L f||^2 = 9 + 64
    assert hilbert_scale_norm(prob, f, 1.0) == pytest.approx(np.sqrt(73.0))
    # an f of another length is refused by both readers of coefficients
    with pytest.raises(ValueError, match="length d=2"):
        hilbert_scale_norm(prob, np.ones(3), 1.0)
    with pytest.raises(ValueError, match="length d=2"):
        forward_eval(prob, np.ones(3), np.array([0.5]))


def test_noise_model_constants():
    nm = NoiseModel(0.25)
    assert (nm.sigma, nm.M, nm.Sigma_const) == (0.25, 0.25, 0.25)
    silent = NoiseModel(0)
    assert silent.sigma == 0.0 and isinstance(silent.sigma, float)
    assert silent.M == 1.0 and silent.Sigma_const == 1.0
    for bad in (-0.1, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="sigma"):
            NoiseModel(bad)


def test_smoothness_spec_b_is_link_over_scale():
    spec = PowerProblemSpec(s=0.5, a_link=0.25, r=2.0, q=4.0)
    assert spec.b == pytest.approx(0.5)
