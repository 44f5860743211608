import numpy as np
import pytest

from scalereg import (
    NoiseModel,
    SmoothnessSpec,
    build_power_problem,
    forward_eval,
    gaussian_noise,
    hilbert_scale_norm,
)
from scalereg.model import _clenshaw_cosine


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
    x = np.concatenate(([0.0, 1.0], rng.random(40)))
    want = _basis(9, x) @ (prob.a * f)
    np.testing.assert_allclose(forward_eval(prob, f, x), want, atol=1e-12)
    # a scalar point gives a length-1 vector
    np.testing.assert_array_equal(forward_eval(prob, f, x[2]),
                                  forward_eval(prob, f, x[2:3]))


def _direct_clenshaw(x, coef):
    j = np.arange(coef.size)
    return np.cos(np.outer(np.pi * x, j)) @ coef


def test_clenshaw_matches_direct_sum():
    rng = np.random.default_rng(11)
    x = rng.random(333)
    coef = rng.standard_normal(500)
    got = _clenshaw_cosine(x, coef)
    want = _direct_clenshaw(x, coef)
    # Clenshaw error grows like d*eps on the coefficient scale
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(coef).sum())


def test_clenshaw_trivial_sizes():
    x = np.array([0.25, 0.75])
    assert np.allclose(_clenshaw_cosine(x, np.array([3.0])), [3.0, 3.0])
    got = _clenshaw_cosine(x, np.array([1.0, 1.0]))
    assert np.allclose(got, 1.0 + np.cos(np.pi * x), atol=1e-14)


def test_hilbert_scale_norm():
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=2, sigma=0.0)
    f = np.array([3.0, 4.0])
    assert hilbert_scale_norm(prob, f, 0.0) == pytest.approx(5.0)
    # l = (1, 2): ||L f||^2 = 9 + 64
    assert hilbert_scale_norm(prob, f, 1.0) == pytest.approx(np.sqrt(73.0))


def test_noise_model_constants():
    nm = gaussian_noise(0.25)
    assert (nm.sigma, nm.M, nm.Sigma_const) == (0.25, 0.25, 0.25)
    silent = gaussian_noise(0.0)
    assert silent.sigma == 0.0
    assert silent.M == 1.0 and silent.Sigma_const == 1.0
    with pytest.raises(ValueError):
        NoiseModel(sigma=-0.1, M=1.0, Sigma_const=1.0)


def test_smoothness_spec_b_is_link_over_scale():
    spec = SmoothnessSpec(r=2.0, a_link=0.25, q=4.0, R_dagger=1.0, s=0.5)
    assert spec.b == pytest.approx(0.5)
