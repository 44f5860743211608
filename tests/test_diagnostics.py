import numpy as np
import pytest

from scalereg import (
    QUANTITIES,
    BoundCheckReport,
    bound_appendix,
    bound_constants,
    build_power_problem,
    check_heinz_bound,
    check_interpolation,
    check_lemma_envelope,
    compute_lambda_q,
    compute_psi,
    compute_tx_deviation,
    compute_upsilon,
    compute_xi,
    effdim,
    empirical_cov,
    forward_eval,
    lambda_balance_effdim,
    make_filter,
    montecarlo_coverage_batch,
    power_fn,
    sample_dataset,
)
from scalereg.diagnostics import _check_zeta, _design_values, _trial_values
from scalereg.model import NoiseModel, SpectralProblem
from scalereg.sampling import _stream

IDENTITY = power_fn(1.0)


def _problem(d=16, sigma=0.05):
    return build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=d, sigma=sigma)


def _scalar_problem(t_val=1.0):
    return SpectralProblem(d=1, a=np.array([np.sqrt(t_val)]),
                           l=np.array([1.0]), f_true=np.array([1.0]),
                           noise=NoiseModel(0.0))


def test_quantity_names():
    assert QUANTITIES == ("PSI", "UPSILON", "LAMBDA_Q", "XI_S", "XI_ZETA",
                          "TX_DEV")


def test_midpoint_design_zeroes_the_deviations():
    prob = _problem(d=12, sigma=0.0)
    x = (np.arange(1, 65) - 0.5) / 64.0
    lam = 0.01
    assert compute_upsilon(prob, x, lam) <= 1e-12
    assert compute_lambda_q(prob, x, lam) <= 1e-12
    assert compute_tx_deviation(prob, x) <= 1e-12
    assert compute_xi(prob, x, lam, IDENTITY) == pytest.approx(1.0, abs=1e-12)
    ds = sample_dataset(prob, 64, seed=0, design="midpoint_grid")
    assert compute_psi(prob, ds, lam) == 0.0


def test_psi_single_mode_value():
    prob = _scalar_problem()
    m, lam, seed = 32, 0.5, 11
    noisy = SpectralProblem(d=1, a=prob.a, l=prob.l,
                            f_true=prob.f_true, noise=NoiseModel(0.3))
    ds = sample_dataset(noisy, m, seed=seed)
    eps = ds.y - 1.0  # g(x) = 1 for the constant mode
    want = abs(eps.mean()) / np.sqrt(1.0 + lam)
    assert compute_psi(noisy, ds, lam) == pytest.approx(want, rel=1e-12)


def test_psi_alone_holds_no_dense_covariance():
    # PSI needs only Bx^* of the noise: the 1024 x 2000 design table is
    # 15.6 MiB, the dense 2000 x 2000 T_x another 30.5 MiB
    import tracemalloc
    prob = build_power_problem(s=0.5, a_link=0.25, r=2.0, q=4.0,
                               R_dagger=1.0, d=2000, sigma=0.05)
    ds = sample_dataset(prob, 1024, seed=3)
    lam = 0.01
    tracemalloc.start()
    try:
        psi = compute_psi(prob, ds, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, f"compute_psi peaked at {peak / 2 ** 20:.1f} MiB"
    # the same value as on the route that builds the dense T_x
    resid = forward_eval(prob, prob.f_true, ds.x) - ds.y
    both = _design_values(prob, ds.x, lambda: resid, lam,
                          ("PSI", "TX_DEV"))[0]
    assert both["PSI"] == psi


@pytest.mark.parametrize("s, a, d, m", [(1.0, 0.5, 16, 200),
                                         (0.5, 0.25, 40, 64),
                                         (1.0, 0.25, 24, 300)])
def test_compute_functions_equal_the_coverage_trial(s, a, d, m):
    # each quantity has one implementation: the public functions on the
    # design of a coverage trial reproduce that trial's values
    prob = build_power_problem(s=s, a_link=a, r=1.0, q=2.0, R_dagger=1.0,
                               d=d, sigma=0.1)
    lam, seed = 0.03, 123456789
    trial = _trial_values(prob, m, lam, seed,
                          {"PSI", "UPSILON", "LAMBDA_Q", "TX_DEV"}, {})
    x = _stream(seed, 0).random(m)
    assert compute_upsilon(prob, x, lam) == trial["UPSILON"]
    assert compute_tx_deviation(prob, x) == trial["TX_DEV"]
    assert compute_lambda_q(prob, x, lam) == trial["LAMBDA_Q"]
    # the trial weighs its drawn noise, compute_psi the rounded g(x) - y
    ds = sample_dataset(prob, m, seed=seed)
    np.testing.assert_array_equal(ds.x, x)
    assert compute_psi(prob, ds, lam) == pytest.approx(trial["PSI"],
                                                       rel=1e-12, abs=0.0)


@pytest.mark.parametrize("with_xi", [False, True], ids=["no_xi", "xi"])
def test_deviation_norms_match_their_matrix_definitions(with_xi):
    # TX_DEV, UPSILON and LAMBDA_Q come from one squared buffer; against
    # the d x d matrices that define them, whether or not an XI quantity
    # also takes the eigensystem of the same T_x
    prob = build_power_problem(s=0.5, a_link=0.25, r=1.0, q=2.0,
                               R_dagger=1.0, d=48, sigma=0.1)
    x = np.random.default_rng(9).random(300)
    x[0], x[-1] = 0.0, 1.0
    lam = 0.02
    tags = ("TX_DEV", "UPSILON", "LAMBDA_Q")
    zeta_fns = {"XI_S": power_fn(0.5)} if with_xi else None
    vals, eig = _design_values(prob, x, None, lam, tags, zeta_fns)
    tx = empirical_cov(prob, x)
    t, l, lnu = prob.t, prob.l, prob.lnu_eigs
    dev = np.diag(t) - tx
    ldev = np.diag(lnu) - (l[:, None] * tx) * l[None, :]
    want = {"TX_DEV": np.linalg.norm(dev),
            "UPSILON": np.linalg.norm(dev / np.sqrt(t + lam)[:, None]),
            "LAMBDA_Q": np.linalg.norm(ldev / np.sqrt(lnu + lam)[:, None])}
    for tag in tags:
        rel = abs(vals[tag] - want[tag]) / want[tag]
        assert rel <= 1e-13, f"{tag} deviates by {rel}"
    if with_xi:
        w, V = eig
        np.testing.assert_allclose((V * w) @ V.T, tx, rtol=0, atol=1e-13)
        assert vals["XI_S"] == compute_xi(prob, x, lam, power_fn(0.5))
    else:
        assert eig is None


def test_compute_functions_reject_bad_lambda():
    prob = _problem(d=8)
    x = np.linspace(0.05, 0.95, 16)
    for fn in (compute_upsilon, compute_lambda_q):
        with pytest.raises(ValueError, match="lambda"):
            fn(prob, x, 0.0)
    with pytest.raises(ValueError, match="lambda"):
        compute_psi(prob, sample_dataset(prob, 16, seed=0), -1.0)
    with pytest.raises(ValueError, match="lambda"):
        compute_xi(prob, x, 0.0, IDENTITY)


def test_xi_scalar_oracle():
    # T = I on d = 2; the one design point x = 1/2 is a zero of
    # e_2 = sqrt(2) cos(pi x), so T_x = diag(1, 0).  Identity zeta,
    # lam = 1: Xi = max((1+1)/(1+1), (1+1)/(0+1)) = 2
    prob = SpectralProblem(d=2, a=np.ones(2), l=np.ones(2),
                           f_true=np.ones(2), noise=NoiseModel(0.0))
    xi = compute_xi(prob, np.array([0.5]), 1.0, IDENTITY)
    assert xi == pytest.approx(2.0, abs=1e-14)


def test_xi_rejects_superlinear_zeta():
    prob = _problem(d=8)
    x = np.linspace(0.05, 0.95, 32)
    with pytest.raises(ValueError):
        compute_xi(prob, x, 0.1, power_fn(2.0))
    # a decreasing zeta fails the first grid check
    with pytest.raises(ValueError, match="nondecreasing"):
        _check_zeta(lambda t: np.exp(-t), 1.0)


def test_psi_second_moment_matches_effective_dimension():
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=8, sigma=0.2)
    m, lam = 2048, 0.01
    sq = [compute_psi(prob, sample_dataset(prob, m, seed=ts), lam) ** 2
          for ts in range(300)]
    want = prob.noise.sigma ** 2 / m * effdim(prob.t, lam)
    assert np.mean(sq) == pytest.approx(want, rel=0.1)


def test_bound_constants_contents():
    prob = _problem(d=16)
    c = bound_constants(prob, 0.1)
    assert c["kappa"] == pytest.approx(np.sqrt(prob.kappa_sq))
    assert c["kappa_tilde"] == pytest.approx(np.sqrt(prob.kappa_tilde_sq))
    assert c["M"] == c["Sigma"] == prob.noise.sigma or prob.noise.sigma == 0
    assert c["effdim_T"] == pytest.approx(effdim(prob.t, 0.1))
    assert c["effdim_L"] == pytest.approx(effdim(prob.lnu_eigs, 0.1))


def test_bound_appendix_plugin_values():
    consts = {"kappa": 1.0, "kappa_tilde": 1.0, "M": 1.0, "Sigma": 1.0,
              "effdim_T": 1.0, "effdim_L": 1.0}
    eta = 2.0 / np.e  # log(2/eta) = 1
    assert bound_appendix("PSI", 1.0, 1, eta, consts) == pytest.approx(4.0)
    assert bound_appendix("XI_S", 1.0, 1, eta, consts,
                          s=0.5) == pytest.approx(9.0)
    ups = bound_appendix("UPSILON", 1.0, 1, eta, consts)
    assert ups == pytest.approx(4.0)
    assert bound_appendix("XI_ZETA", 1.0, 1, eta, consts) == pytest.approx(
        (ups + 1.0) ** 2)
    assert bound_appendix("TX_DEV", 1.0, 1, eta, consts) == pytest.approx(4.0)
    lam_q = bound_appendix("LAMBDA_Q", 1.0, 1, eta, consts)
    assert lam_q == pytest.approx(4.0)
    with pytest.raises(ValueError):
        bound_appendix("GAMMA", 1.0, 1, eta, consts)
    for bad_eta in (0.0, 1.0):
        with pytest.raises(ValueError, match="eta"):
            bound_appendix("PSI", 1.0, 1, bad_eta, consts)
    with pytest.raises(ValueError, match="lambda"):
        bound_appendix("PSI", 0.0, 1, eta, consts)


def test_bounds_shrink_with_sample_size():
    prob = _problem(d=32)
    consts = bound_constants(prob, 0.01)
    small = bound_appendix("PSI", 0.01, 256, 0.1, consts)
    large = bound_appendix("PSI", 0.01, 4096, 0.1, consts)
    assert large < small


def test_coverage_smoke_all_quantities_covered():
    prob = _problem(d=64)
    m = 1024
    lam = lambda_balance_effdim(prob.t, m)
    reports = montecarlo_coverage_batch(
        prob, ["PSI", "UPSILON", "LAMBDA_Q", "TX_DEV", "XI_S", "XI_ZETA"],
        lam, m, etas=[0.05, 0.1], trials=100, seed=42)
    assert len(reports) == 12
    for rep in reports:
        assert rep.in_hypothesis
        assert rep.coverage == 1.0 and rep.passed, rep.quantity
        assert rep.empirical_quantile < rep.bound_value
        doc = rep.to_dict()
        assert doc["lambda"] == lam and doc["passed"] is True


def test_coverage_of_noiseless_psi_is_exact():
    prob = _problem(d=32, sigma=0.0)
    [rep] = montecarlo_coverage_batch(prob, ["PSI"], 0.05, 256, etas=[0.1],
                                      trials=100, seed=0)
    # noiseless data: psi is exactly zero in every trial
    assert rep.empirical_quantile == 0.0 and rep.coverage == 1.0


def test_coverage_requires_enough_trials():
    prob = _problem(d=16)
    with pytest.raises(ValueError):
        montecarlo_coverage_batch(prob, ["PSI"], 0.1, 64, etas=[0.1],
                                  trials=50, seed=0)
    with pytest.raises(ValueError, match="unknown quantity"):
        montecarlo_coverage_batch(prob, ["PSI", "GAMMA"], 0.1, 64,
                                  etas=[0.1], trials=100, seed=0)


def test_report_flags_out_of_hypothesis_points():
    prob = _problem(d=64)
    # lambda far below the balance point: N(lam) > m lam
    reports = montecarlo_coverage_batch(prob, ["PSI"], 1e-6, 128,
                                        etas=[0.1], trials=100, seed=1)
    assert len(reports) == 1 and not reports[0].in_hypothesis


def test_bound_check_report_pass_logic():
    rep = BoundCheckReport(quantity="PSI", lam=0.1, m=100, eta=0.1,
                           trials=100, empirical_quantile=1.0,
                           bound_value=2.0, coverage=0.93)
    assert rep.passed
    worse = BoundCheckReport(quantity="PSI", lam=0.1, m=100, eta=0.1,
                             trials=100, empirical_quantile=1.0,
                             bound_value=2.0, coverage=0.85)
    assert not worse.passed


def test_interpolation_hand_example():
    prob = SpectralProblem(d=2, a=np.ones(2),
                           l=np.array([1.0, 2.0]), f_true=np.zeros(2),
                           noise=NoiseModel(0.0))
    rec = check_interpolation(prob, np.array([1.0, 1.0]), 0.0, 1.0, 2.0)
    assert rec["pass"]
    assert rec["lhs"] == pytest.approx(np.sqrt(5.0))
    assert rec["rhs"] == pytest.approx(34.0 ** 0.25)


def test_interpolation_exact_on_single_mode():
    prob = SpectralProblem(d=1, a=np.ones(1),
                           l=np.array([3.0]), f_true=np.zeros(1),
                           noise=NoiseModel(0.0))
    rec = check_interpolation(prob, np.array([2.0]), -1.0, 0.5, 2.0)
    assert rec["pass"]
    assert rec["lhs"] == pytest.approx(rec["rhs"], rel=1e-12)


def test_interpolation_requires_ordered_exponents():
    prob = _problem(d=4)
    with pytest.raises(ValueError):
        check_interpolation(prob, np.ones(4), 1.0, 0.5, 2.0)


def test_interpolation_random_sweep():
    rng = np.random.default_rng(123)
    for _ in range(200):
        d = int(rng.integers(1, 16))
        prob = SpectralProblem(d=d, a=np.ones(d),
                               l=np.sort(rng.random(d) * 4.0 + 0.25),
                               f_true=np.zeros(d),
                               noise=NoiseModel(0.0))
        exps = np.sort(rng.uniform(-2.0, 2.0, size=3))
        if exps[0] == exps[1] or exps[1] == exps[2]:
            continue
        f = rng.standard_normal(d)
        rec = check_interpolation(prob, f, *exps)
        assert rec["pass"], (exps, rec)


def test_heinz_bound_values():
    assert check_heinz_bound(np.array([1.0]), 0.5,
                             np.array([1.0])) == pytest.approx(
        1.0 / np.sqrt(2.0))
    dense = np.linspace(0.0, 1.0, 2001)
    for a in (0.1, 0.25, 0.5):
        ratio = check_heinz_bound(dense, a, np.geomspace(1e-6, 1.0, 200))
        assert ratio <= 1.0 + 1e-12, (a, ratio)
    with pytest.raises(ValueError):
        check_heinz_bound(dense, 0.7, np.array([0.1]))
    with pytest.raises(ValueError, match="lambda grid"):
        check_heinz_bound(dense, 0.5, np.array([0.1, 0.0]))


def test_lemma_envelope_frozen_case():
    prob = build_power_problem(s=0.5, a_link=0.25, r=2.0, q=4.0,
                               R_dagger=1.0, d=32, sigma=0.05)
    lam = lambda_balance_effdim(prob.t, 500)
    assert lam == pytest.approx(0.01872557314550068, rel=1e-10)
    ds = sample_dataset(prob, 500, seed=7)
    rep = check_lemma_envelope(prob, ds, make_filter("tikhonov"), lam)
    assert rep["pass"]
    assert rep["lhs"] == pytest.approx(0.954917904442, rel=1e-9)
    assert rep["rhs"] == pytest.approx(7.168995786336, rel=1e-9)
    assert rep["xi_rho"] == pytest.approx(1.031475206188, rel=1e-9)
    assert rep["xi_ups"] == pytest.approx(1.140625650293, rel=1e-9)
    assert rep["xi"] == pytest.approx(1.336503047964, rel=1e-9)
    assert rep["lambda_q"] == pytest.approx(0.385491748439, rel=1e-9)
    assert rep["lambda_q"] == compute_lambda_q(prob, ds.x, lam)


def test_lemma_envelope_needs_a_known_link():
    # a bare SpectralProblem has no smoothness spec, so no rho
    prob = _scalar_problem()
    ds = sample_dataset(prob, 8, seed=0)
    with pytest.raises(ValueError, match="smoothness"):
        check_lemma_envelope(prob, ds, make_filter("tikhonov"), 0.1)


def test_lemma_envelope_trivial_on_midpoint_design():
    prob = build_power_problem(s=0.5, a_link=0.25, r=2.0, q=4.0,
                               R_dagger=1.0, d=16, sigma=0.0)
    ds = sample_dataset(prob, 128, seed=0, design="midpoint_grid")
    rep = check_lemma_envelope(prob, ds, make_filter("tikhonov"), 0.05)
    assert rep["pass"]
    # exact design: the empirical operator commutes with the scale
    assert rep["lhs"] <= 1.0 + 1e-10
    assert rep["lambda_q"] <= 1e-12
