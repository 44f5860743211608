import math

import numpy as np
import pytest

import scalereg.sampling as sampling
from scalereg import (
    Dataset,
    design_matrix,
    empirical_cov,
    errors,
    estimate,
    filter_values,
    make_filter,
    sample_dataset,
)
from scalereg.model import build_power_problem
from scalereg.sampling import (_clamped_eigh, _design_weights,
                               _weighted_cosine_table, crossprod, gram)


def _problem(d=16, sigma=0.05, **kw):
    kw.setdefault("s", 1.0)
    kw.setdefault("a_link", 0.5)
    kw.setdefault("r", 0.5)
    kw.setdefault("q", 1.0)
    return build_power_problem(R_dagger=1.0, d=d, sigma=sigma, **kw)


def test_sample_dataset_deterministic_in_seed():
    prob = _problem()
    d1 = sample_dataset(prob, 64, seed=5)
    d2 = sample_dataset(prob, 64, seed=5)
    d3 = sample_dataset(prob, 64, seed=6)
    np.testing.assert_array_equal(d1.x, d2.x)
    np.testing.assert_array_equal(d1.y, d2.y)
    assert not np.array_equal(d1.y, d3.y)


def test_noise_and_design_streams_are_independent():
    prob = _problem()
    noisy = sample_dataset(prob, 32, seed=1)
    silent = sample_dataset(_problem(sigma=0.0), 32, seed=1)
    # same seed, same design points, different y
    np.testing.assert_array_equal(noisy.x, silent.x)
    assert np.abs(noisy.y - silent.y).max() > 0


def test_midpoint_design_and_validation():
    prob = _problem()
    ds = sample_dataset(prob, 8, seed=0, design="midpoint_grid")
    np.testing.assert_allclose(ds.x, (np.arange(1, 9) - 0.5) / 8)
    with pytest.raises(ValueError):
        sample_dataset(prob, 8, seed=0, design="sobol")
    with pytest.raises(ValueError):
        sample_dataset(prob, 0, seed=0)
    with pytest.raises(ValueError):
        Dataset(x=np.array([0.5]), y=np.array([1.0, 2.0]))


def test_design_matrix_row_oracle():
    prob = build_power_problem(s=1.0, a_link=0.5, r=0.5, q=1.0,
                               R_dagger=1.0, d=2, sigma=0.0)
    # a = (1, 1), l = (1, 2); at x = 0 the basis is (1, sqrt(2))
    row = design_matrix(prob, np.array([0.0]))[0]
    np.testing.assert_allclose(row, [1.0, np.sqrt(2.0) / 2.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        design_matrix(prob, np.zeros((1, 1)))


def _direct_table(x, w):
    j = np.arange(w.size)
    return np.cos(np.outer(np.pi * x, j)) * w[None, :]


def test_weighted_table_matches_direct_cos():
    rng = np.random.default_rng(3)
    for m, d in [(7, 5), (64, 64), (101, 257), (256, 130)]:
        x = rng.random(m)
        w = rng.random(d) + 0.1
        got = _weighted_cosine_table(x, w)
        want = _direct_table(x, w)
        err = np.abs(got - want).max()
        assert err <= 2e-12, f"table deviates by {err} at m={m}, d={d}"


def test_table_equals_a_per_column_loop():
    # the table fills a transposed buffer; its values must be exactly
    # those of the column-by-column rotation z -> z exp(i pi x)
    rng = np.random.default_rng(4)
    for m, d in [(1, 1), (9, 1), (9, 2), (31, 64), (31, 65), (200, 300)]:
        x = rng.random(m)
        w = rng.standard_normal(d)
        want = np.empty((m, d))
        step = np.exp(1j * np.pi * x)
        z = np.ones(m, dtype=complex)
        for j in range(d):
            want[:, j] = w[j] * z.real
            z = z * step
        got = _weighted_cosine_table(x, w)
        assert got.shape == (m, d)
        assert np.array_equal(got, want)


def test_table_stays_accurate_at_large_d_near_the_endpoints():
    # d in the thousands, x at and near the endpoints, where every
    # cos(j pi x) is close to +-1
    x = np.array([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0])
    w = np.ones(4096)
    got = _weighted_cosine_table(x, w)
    want = _direct_table(x, w)
    assert np.abs(got - want).max() <= 5e-12


def test_table_matches_exact_argument_cosines():
    # at dyadic x = k / 2^20 every j * x is exact, so reducing it mod 2
    # before the one rounding of pi * (j x mod 2) gives cos(j pi x) to
    # within a few eps at every j; the rotation's error grows like j * eps
    for d in (512, 2000, 4096):
        k = np.random.default_rng(d).integers(0, 2**20 + 1, size=300)
        k[:2] = 0, 2**20
        x = k / 2.0**20
        want = np.cos(np.pi * np.mod(np.outer(x, np.arange(d)), 2.0))
        got = _weighted_cosine_table(x, np.ones(d))
        err = np.abs(got - want).max()
        assert err <= 4 * d * 2.0**-52, f"table deviates by {err} at d={d}"


def test_crossprod_and_gram_match_dense_products():
    prob = _problem(d=7)
    x = np.random.default_rng(2).random(13)
    phi = design_matrix(prob, x)
    np.testing.assert_allclose(crossprod(phi, _design_weights(prob)).toarray(),
                               phi.T @ phi, atol=1e-12)
    G = gram(phi)
    assert np.array_equal(G, G.T)
    np.testing.assert_allclose(G, phi @ phi.T, atol=1e-12)


def _moment_problem(d):
    if d == 1:
        from scalereg import NoiseModel, SpectralProblem
        return SpectralProblem(d=1, a=np.array([0.7]),
                               l=np.array([1.3]), f_true=np.array([1.0]),
                               noise=NoiseModel(0.0))
    return _problem(d=d, sigma=0.0)


@pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 300])
@pytest.mark.parametrize("below", [True, False], ids=["m_below_d", "m_above_d"])
def test_crossprod_from_moments_matches_direct_cos(d, below):
    # at the endpoints x = 0 and x = 1 every cos(n pi x) is +-1, the
    # largest term a moment S(n) can hold (d = 1 has no m below d)
    m = max(d // 3, 1) if below else 4 * d + 3
    prob = _moment_problem(d)
    x = np.random.default_rng(d).random(m)
    x[0], x[-1] = 0.0, 1.0
    w = _design_weights(prob)
    direct = np.cos(np.pi * np.outer(x, np.arange(d))) * w
    want = direct.T @ direct
    got = crossprod(design_matrix(prob, x), w).toarray()
    assert np.array_equal(got, got.T)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-13, f"relative deviation {rel} at m={m}, d={d}"


@pytest.mark.parametrize("d", [1, 2, 64, 65, 300])
def test_crossprod_equals_the_dense_toeplitz_hankel_build(d):
    # the strided, row-blocked assembly does the same float operations
    # as toeplitz + hankel scaled by the full outer product of weights
    from scipy.linalg import hankel, toeplitz
    prob = _moment_problem(d)
    x = np.random.default_rng(d + 1).random(2 * d + 5)
    w = _design_weights(prob)
    phi = design_matrix(prob, x)
    s = np.empty(2 * d - 1)
    s[:d] = phi.sum(axis=0) / w
    s[d - 1:] = (2.0 * (phi.T @ phi[:, d - 1]) / (w * w[d - 1])
                 - s[d - 1::-1])
    want = toeplitz(s[:d])
    want += hankel(s[:d], s[d - 1:])
    want *= np.outer(w, 0.5 * w)
    assert np.array_equal(crossprod(phi, w).toarray(), want)


@pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 300, 2000])
@pytest.mark.parametrize("below", [True, False], ids=["m_below_d", "m_above_d"])
def test_operator_matvec_matches_dense_and_direct_cos(d, below):
    # the FFT product of the factored T_x against its own dense form and
    # against Phi^T Phi p / m from direct cosines, with x = 0 and x = 1
    # among the points
    m = max(d // 3, 1) if below else d + 7
    prob = _moment_problem(d)
    rng = np.random.default_rng(d + 2)
    x = rng.random(m)
    x[0], x[-1] = 0.0, 1.0
    w = _design_weights(prob)
    T = sampling._sample_sums(prob, x)[0]
    direct = np.cos(np.pi * np.outer(x, np.arange(d))) * w
    for p in (rng.standard_normal(d), np.ones(d)):
        got = T @ p
        for want in (T.toarray() @ p, direct.T @ (direct @ p) / m):
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-13, f"relative deviation {rel} at m={m}, d={d}"


def test_operator_divisor_is_applied_last():
    # the operator with divisor m assembles to phi^T phi, then divided by m
    prob = _problem(d=9)
    x = np.random.default_rng(4).random(20)
    op = crossprod(design_matrix(prob, x), _design_weights(prob))
    dense = op.toarray()
    dense /= 20
    divided = sampling._ToeplitzHankel(op.s, op.w, 20)
    assert np.array_equal(divided.toarray(), dense)
    assert np.array_equal(empirical_cov(prob, x), dense)


def _regular_cell(m, d, seed):
    # a criterion-10 cell: s = 1/2, a = 1/4, r = 2, q = 4 at the
    # power-table lambda of the regular case
    from scalereg import LambdaRule, PowerProblemSpec
    spec = PowerProblemSpec(s=0.5, a_link=0.25, r=2.0, q=4.0, sigma=0.05,
                            d_override=d)
    prob = spec.build(m, seed)
    lam = LambdaRule("power_table", {"case": "regular"}).resolve(prob, m)
    return prob, sample_dataset(prob, m, seed), lam


def test_primal_pcg_matches_dense_solve_at_benchmark_size():
    m, d = 2048, 2000
    prob, ds, lam = _regular_cell(m, d, seed=41)
    filt = make_filter("tikhonov")
    est = estimate(prob, ds, filt, lam)
    assert 0 < est.cg_steps <= 20
    lhs = empirical_cov(prob, ds.x)
    lhs[np.diag_indices_from(lhs)] += lam
    ref = np.linalg.solve(lhs, design_matrix(prob, ds.x).T @ ds.y / m)
    rel = np.linalg.norm(est.u_hat - ref) / np.linalg.norm(ref)
    assert rel <= 1e-12, f"PCG deviates from LU by {rel}"
    assert np.array_equal(estimate(prob, ds, filt, lam).u_hat, est.u_hat)


def test_primal_pcg_falls_to_the_eigh_route_at_its_cap(monkeypatch):
    monkeypatch.setattr(sampling, "_PCG_MAX_STEPS", 1)
    m, d = 300, 64
    prob, ds, lam = _regular_cell(m, d, seed=3)
    filt = make_filter("tikhonov")
    est = estimate(prob, ds, filt, lam)
    assert est.cg_steps == math.inf
    evals, V = _clamped_eigh(empirical_cov(prob, ds.x), prob.kappa_sq)
    g = filter_values(filt, lam, evals, prob.kappa_sq)
    b = design_matrix(prob, ds.x).T @ ds.y / m
    assert np.array_equal(est.u_hat, V @ (g * (V.T @ b)))


def test_primal_tikhonov_assembles_no_dense_operator(monkeypatch):
    # PCG runs on the factored T_x; only the eigh route it falls to at
    # its step cap builds the d x d matrix
    def refuse(self):
        raise AssertionError("toarray() called")

    monkeypatch.setattr(sampling._ToeplitzHankel, "toarray", refuse)
    m, d = 300, 64
    prob, ds, lam = _regular_cell(m, d, seed=3)
    filt = make_filter("tikhonov")
    est = estimate(prob, ds, filt, lam)
    assert 0 < est.cg_steps < math.inf
    monkeypatch.setattr(sampling, "_PCG_MAX_STEPS", 1)
    with pytest.raises(AssertionError, match="toarray"):
        estimate(prob, ds, filt, lam)


@pytest.mark.parametrize("m", [4095, 4096, 4097, 2 * 4096 + 5])
def test_block_sums_match_the_whole_table(m):
    # T_x and Phi^T y summed over blocks of _POINT_BLOCK points, with
    # x = 0 and x = 1 among the points, against the whole-table build;
    # and the primal estimate against a dense solve on direct cosines
    d = 96
    prob = _problem(d=d, sigma=0.1)
    rng = np.random.default_rng(m)
    x = rng.random(m)
    x[0], x[-1] = 0.0, 1.0
    y = rng.standard_normal(m)
    w = _design_weights(prob)
    phi = design_matrix(prob, x)
    T, b = sampling._sample_sums(prob, x, y)
    whole = (crossprod(phi, w).toarray() / m, phi.T @ y / m)
    for got, want in zip((T.toarray(), b), whole):
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-13, f"relative deviation {rel} at m={m}"
        if m <= sampling._POINT_BLOCK:
            assert np.array_equal(got, want)
    lam = 1e-3
    est = estimate(prob, Dataset(x=x, y=y), make_filter("tikhonov"), lam)
    direct = np.cos(np.pi * np.outer(x, np.arange(d))) * w
    ref = np.linalg.solve(direct.T @ direct / m + lam * np.eye(d),
                          direct.T @ y / m)
    rel = np.linalg.norm(est.u_hat - ref) / np.linalg.norm(ref)
    assert rel <= 1e-10, f"estimate deviates from direct cos by {rel}"


def test_primal_estimate_holds_one_block_of_the_table():
    # the whole 16384 x 512 table is 64 MiB; the block sums hold one
    # 4096 x 512 table (16 MiB) at a time
    import tracemalloc
    prob, ds, lam = _regular_cell(16384, 512, seed=5)
    filt = make_filter("tikhonov")
    tracemalloc.start()
    try:
        est = estimate(prob, ds, filt, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.cg_steps > 0
    assert peak < 20 * 2 ** 20, f"estimate peaked at {peak / 2 ** 20:.1f} MiB"


def test_midpoint_quadrature_diagonalizes_covariance():
    prob = _problem(d=12, sigma=0.0)
    x = (np.arange(1, 65) - 0.5) / 64.0
    T = empirical_cov(prob, x)
    np.testing.assert_allclose(T, np.diag(prob.t), atol=1e-13)


def test_scalar_estimator_oracle():
    from scalereg import NoiseModel, SpectralProblem
    prob = SpectralProblem(d=1, a=np.array([1.0]),
                           l=np.array([1.0]), f_true=np.array([1.0]),
                           noise=NoiseModel(0.0))
    # single constant mode: y = 1, T_x = 1, tikhonov at lambda = 1
    ds = sample_dataset(prob, 4, seed=0)
    est = estimate(prob, ds, make_filter("tikhonov"), lam=1.0)
    assert est.u_hat[0] == pytest.approx(0.5, abs=1e-14)
    assert est.f_hat[0] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("route", ["primal", "dual_svd", "dual_solve"])
def test_tikhonov_equals_dense_solve_on_every_route(route, monkeypatch):
    # m >= d solves on the d x d side; m < d takes the SVD branch at
    # small m*d and the m x m solve once the SVD limit is lowered
    if route == "dual_solve":
        monkeypatch.setattr(sampling, "_SVD_DIRECT_LIMIT", 1)
    rng = np.random.default_rng(7)
    filt = make_filter("tikhonov")
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 33))
        if route == "primal":
            m = int(rng.integers(d, 257))
        else:
            m = int(rng.integers(1, d))
        prob = _problem(d=d, sigma=0.1)
        ds = sample_dataset(prob, m, seed=int(rng.integers(10 ** 6)))
        lam = float(10 ** rng.uniform(-6, 0))
        est = estimate(prob, ds, filt, lam)
        phi = design_matrix(prob, ds.x)
        ref = np.linalg.solve(phi.T @ phi / m + lam * np.eye(d),
                              phi.T @ ds.y / m)
        worst = max(worst, np.abs(est.u_hat - ref).max())
    assert worst <= 1e-10, f"{route} route deviates by {worst}"


def test_svd_and_gram_routes_agree_when_m_below_d(monkeypatch):
    prob = _problem(d=40, sigma=0.05)
    ds = sample_dataset(prob, 17, seed=3)
    filt = make_filter("landweber")
    via_svd = estimate(prob, ds, filt, 0.05)
    monkeypatch.setattr(sampling, "_SVD_DIRECT_LIMIT", 1)
    via_gram = estimate(prob, ds, filt, 0.05)
    np.testing.assert_allclose(via_gram.u_hat, via_svd.u_hat, atol=1e-11)


def test_all_filters_run_on_wide_and_tall_data():
    prob = _problem(d=10)
    for m in (5, 40):
        ds = sample_dataset(prob, m, seed=1)
        for name in ("tikhonov", "cutoff", "landweber"):
            est = estimate(prob, ds, make_filter(name), 0.1)
            assert np.all(np.isfinite(est.u_hat))
            assert est.f_hat.shape == (prob.d,)


def test_estimate_rejects_bad_lambda():
    prob = _problem(d=4)
    ds = sample_dataset(prob, 8, seed=0)
    with pytest.raises(ValueError):
        estimate(prob, ds, make_filter("tikhonov"), 0.0)


def test_clamped_eigh_tolerates_roundoff_but_not_indefiniteness():
    w, _ = _clamped_eigh(np.diag([1.0, -1e-15]), kappa_sq=1.0)
    assert np.all(w >= 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        _clamped_eigh(np.diag([1.0, -0.5]), kappa_sq=1.0)


def test_noiseless_cutoff_recovers_truth():
    prob = _problem(d=8, sigma=0.0)
    ds = sample_dataset(prob, 64, seed=0, design="midpoint_grid")
    lam = 0.5 * prob.t.min()
    est = estimate(prob, ds, make_filter("cutoff"), lam)
    assert errors(prob, est)["h_norm"] <= 1e-10


def test_error_norms():
    prob = build_power_problem(s=1.0, a_link=0.25, r=1.0, q=2.0,
                               R_dagger=1.0, d=3, sigma=0.0)
    est = sampling.Estimate(f_hat=prob.f_true + np.array([0.1, 0.0, -0.2]),
                            u_hat=np.zeros(3))
    out = errors(prob, est)
    assert set(out) == {"h_norm", "prediction_norm"}
    assert out["h_norm"] == pytest.approx(np.sqrt(0.01 + 0.04))
    want_pred = np.linalg.norm(prob.a * np.array([0.1, 0.0, -0.2]))
    assert out["prediction_norm"] == pytest.approx(want_pred)
    with pytest.raises(ValueError):
        errors(_problem(d=5), est)
