import math

import numpy as np
import pytest

from scalereg import (
    ExperimentConfig,
    LambdaRule,
    PowerProblemSpec,
    errors,
    estimate,
    lambda_power_table,
    make_filter,
    run_rate_experiment,
    sample_dataset,
    theoretical_exponent,
)
from scalereg.harness import _wls_line
from scalereg.model import FieldError
from scalereg.reporting import sha256_of


def _small_config(**kw):
    kw.setdefault("problem", PowerProblemSpec(s=1.0, a_link=0.5, r=0.5,
                                              q=1.0, sigma=0.05,
                                              d_override=32))
    kw.setdefault("lambda_rule", LambdaRule("power_table",
                                            {"case": "oversmoothing"}))
    kw.setdefault("case", "oversmoothing")
    kw.setdefault("m_grid", (64, 128, 256, 512, 1024, 2048))
    kw.setdefault("trials_per_m", 10)
    kw.setdefault("seed", 5)
    return ExperimentConfig(**kw)


def test_theoretical_exponents():
    assert theoretical_exponent(0.5, 0.5, 0.5, 1.0,
                                "oversmoothing") == pytest.approx(-1.0 / 6.0)
    assert theoretical_exponent(0.25, 0.5, 2.0, 4.0,
                                "regular") == pytest.approx(-0.25)
    assert theoretical_exponent(0.25, 0.5, 1.0, 4.0,
                                "regular") == pytest.approx(-1.0 / 6.0)


def test_theoretical_exponent_validations():
    with pytest.raises(ValueError, match="r"):
        theoretical_exponent(0.5, 0.5, 1.5, 1.0, "oversmoothing")
    with pytest.raises(ValueError, match="q"):
        theoretical_exponent(0.5, 0.5, 0.5, 1.0, "regular")
    with pytest.raises(ValueError, match="case"):
        theoretical_exponent(0.5, 0.5, 0.5, 1.0, "saturated")


@pytest.mark.parametrize("a, b, r, q, case", [
    (0.5, 0.5, 0.5, 1.0, "oversmoothing"),
    (0.25, 0.0, 1.0, 1.5, "oversmoothing"),
    # regular, a q >= a r + (b+1)/2 (the tie included) and below it
    (0.5, 0.5, 1.0, 4.0, "regular"),
    (0.5, 0.5, 1.0, 2.5, "regular"),
    (0.5, 0.5, 1.2, 2.6, "regular"),
    (0.25, 0.5, 2.0, 4.0, "regular"),
    (0.25, 0.5, 1.0, 4.0, "regular"),
])
def test_exponent_and_lambda_table_share_the_regime(a, b, r, q, case):
    # the error exponent is a r log(lambda) / log(m) on the lambda table
    m = 10 ** 4
    lam = lambda_power_table(a, b, r, q, m, case)
    assert 1e-14 < lam < 1.0
    assert theoretical_exponent(a, b, r, q, case) == pytest.approx(
        a * r * np.log(lam) / np.log(m), rel=1e-12)


def test_wls_line_recovers_exact_power_law():
    ms = np.array([100, 200, 400, 800, 1600], dtype=np.float64)
    slope, stderr = _wls_line(np.log(ms), np.log(3.0 * ms ** -0.35),
                              np.ones(ms.size))
    assert slope == pytest.approx(-0.35, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)


def test_config_validation():
    with pytest.raises(ValueError, match="m_grid"):
        _small_config(m_grid=(256, 512, 1024))  # barely one decade
    with pytest.raises(ValueError, match="m_grid"):
        _small_config(m_grid=(512, 256, 1024, 2048, 8192, 16384))
    with pytest.raises(ValueError, match="m_grid"):
        _small_config(m_grid=(0, 64, 2048))
    with pytest.raises(ValueError, match="trials"):
        _small_config(trials_per_m=5)
    # the theoretical exponent bounds the h norm, so no other norm is
    # gated against it
    for norm in ("l1", "prediction", "zeta"):
        with pytest.raises(ValueError, match="error_norm"):
            _small_config(error_norm=norm)
    with pytest.raises(ValueError, match="case"):
        _small_config(case="mixed")
    with pytest.raises(ValueError, match="tolerance"):
        _small_config(tolerance=-1.0)


@pytest.mark.parametrize("field, value", [
    ("m_grid", (64.9, 4096.5)), ("m_grid", (True, 64, 4096)),
    ("trials_per_m", 10.5), ("seed", 1.5), ("seed", True), ("seed", -1)])
def test_counts_are_refused_at_their_field(field, value):
    # a truncated count would run with a value the config did not ask
    # for, and a bool or a negative seed would fail only at run time
    with pytest.raises(FieldError) as exc:
        _small_config(**{field: value})
    assert exc.value.field == field


@pytest.mark.parametrize("value", [math.inf, True, "0.08"])
def test_tolerance_is_a_finite_number(value):
    # an infinite tolerance would pass every rate gate
    with pytest.raises(FieldError) as exc:
        _small_config(tolerance=value)
    assert exc.value.field == "tolerance"
    assert type(_small_config(tolerance=0).tolerance) is float


def test_integral_floats_are_counts():
    cfg = _small_config(m_grid=(64.0, np.int64(4096)), trials_per_m=10.0,
                        seed=5.0)
    assert cfg == _small_config(m_grid=(64, 4096))
    assert all(type(v) is int for v in (*cfg.m_grid, cfg.trials_per_m,
                                        cfg.seed))


def test_config_hash_stable_and_sensitive():
    # the report's config_hash is this digest of the config's dict
    c1 = _small_config()
    c2 = _small_config()
    c3 = _small_config(seed=6)
    assert sha256_of(c1.to_dict()) == sha256_of(c2.to_dict())
    assert sha256_of(c1.to_dict()) != sha256_of(c3.to_dict())
    assert len(sha256_of(c1.to_dict())) == 64


def test_case_owns_the_power_table_rule():
    written = _small_config()
    table = LambdaRule("power_table", {"case": "oversmoothing"})
    for rule in (None, LambdaRule("power_table")):
        cfg = _small_config(lambda_rule=rule)
        assert cfg.lambda_rule == table
        assert cfg.to_dict() == written.to_dict()
    regular = _small_config(
        problem=PowerProblemSpec(s=0.5, a_link=0.25, r=2.0, q=2.0),
        lambda_rule=None, case="regular")
    assert regular.lambda_rule.params == {"case": "regular"}
    fixed = LambdaRule("fixed", {"value": 0.01})
    assert _small_config(lambda_rule=fixed).lambda_rule == fixed
    with pytest.raises(ValueError, match="differs"):
        _small_config(lambda_rule=LambdaRule("power_table",
                                             {"case": "regular"}))


def test_small_experiment_is_deterministic_and_plausible():
    cfg = _small_config()
    rep1 = run_rate_experiment(cfg)
    rep2 = run_rate_experiment(cfg)
    assert rep1.config_hash == sha256_of(cfg.to_dict())
    assert rep1.fitted_exponent == rep2.fitted_exponent
    assert rep1.per_m == rep2.per_m
    assert not rep1.degenerate
    meds = [row["median_error"] for row in rep1.per_m]
    assert all(b < a for a, b in zip(meds, meds[1:])), meds
    assert rep1.fitted_exponent < -0.05
    lams = [row["lambda_used"] for row in rep1.per_m]
    np.testing.assert_allclose(lams, [m ** (-2.0 / 3.0)
                                      for m in cfg.m_grid], rtol=1e-12)


def test_non_finite_error_aborts_naming_the_cell(monkeypatch):
    # the thirteenth trial is the third of the second cell (m = 128)
    import scalereg.harness as harness
    calls = []

    def errors_with_one_inf(problem, est):
        calls.append(None)
        return {"h_norm": math.inf if len(calls) == 13 else 1.0}

    monkeypatch.setattr(harness, "errors", errors_with_one_inf)
    with pytest.raises(RuntimeError, match=r"cell m=128, trial=2$"):
        run_rate_experiment(_small_config())
    assert len(calls) == 13


def test_uncovered_smoothness_is_refused():
    spec = PowerProblemSpec(s=1.0, a_link=0.5, r=2.0, q=4.0, sigma=0.05,
                            d_override=32)
    with pytest.raises(ValueError, match="refus"):
        ExperimentConfig(problem=spec, filter_id="tikhonov",
                         lambda_rule=LambdaRule("power_table",
                                                {"case": "regular"}),
                         m_grid=(64, 128, 256, 512, 1024, 2048),
                         trials_per_m=10, seed=0, case="regular")


def test_noiseless_exact_recovery_flags_degenerate():
    spec = PowerProblemSpec(s=1.0, a_link=0.5, r=0.5, q=1.0, sigma=0.0,
                            d_override=16)
    cfg = ExperimentConfig(problem=spec, filter_id="cutoff",
                           lambda_rule=LambdaRule("fixed", {"value": 1e-3}),
                           m_grid=(64, 128, 256, 512, 1024, 2048),
                           trials_per_m=10, seed=0, case="oversmoothing")
    rep = run_rate_experiment(cfg)
    assert rep.degenerate and not rep.passed
    assert math.isnan(rep.fitted_exponent)
    doc = rep.to_dict()
    assert doc["degenerate"] is True and doc["pass"] is False


def test_rate_improves_with_source_smoothness():
    # Raising the source exponent of the truth must steepen the fitted
    # decay; checked at a reduced budget where the gap (~0.14) is still
    # far above the fit noise.  Deterministic at a fixed seed.
    fitted = {}
    for r in (1.0, 2.0):
        cfg = ExperimentConfig(
            problem=PowerProblemSpec(s=0.5, a_link=0.25, r=r, q=4.0,
                                     sigma=0.05),
            filter_id="tikhonov",
            lambda_rule=LambdaRule("power_table", {"case": "regular"}),
            m_grid=(256, 512, 1024, 2048, 4096, 8192), trials_per_m=10,
            seed=0, case="regular", tolerance=0.5)
        fitted[r] = run_rate_experiment(cfg).fitted_exponent
    assert fitted[2.0] < fitted[1.0]


def test_cells_report_median_cg_steps(tmp_path, monkeypatch):
    # m = 32 < d takes the SVD route (no CG); the other cells solve the
    # primal system by PCG, or by the eigh route once the step cap is
    # cut to one
    import scalereg.sampling as sampling
    from scalereg.reporting import write_rate_csv
    cfg = _small_config(
        problem=PowerProblemSpec(s=1.0, a_link=0.5, r=0.5, q=1.0,
                                 sigma=0.05, d_override=128),
        m_grid=(32, 256, 1024))
    steps = [row["cg_steps"] for row in run_rate_experiment(cfg).per_m]
    assert steps[0] == 0.0 and all(0 < k <= 20 for k in steps[1:]), steps
    monkeypatch.setattr(sampling, "_PCG_MAX_STEPS", 1)
    rep = run_rate_experiment(cfg)
    assert [row["cg_steps"] for row in rep.per_m] == [0.0, math.inf,
                                                      math.inf]
    path = tmp_path / "rate.csv"
    write_rate_csv(path, rep)
    rows = path.read_text().splitlines()[1:4]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0.0", "inf", "inf"]


def test_cell_statistics_are_those_of_the_documented_trials():
    # every trial of a cell, redrawn from the documented trial seeds
    # (written out here, not taken from the harness) and solved again,
    # gives the row's mean, median and sample std exactly; m = 16 < d
    # takes the SVD route, m = 64 and 512 the primal one
    import scalereg.sampling as sampling
    cfg = _small_config(m_grid=(16, 64, 512), seed=3)
    d = cfg.problem.d_override
    assert 16 * d <= sampling._SVD_DIRECT_LIMIT
    filt = make_filter(cfg.filter_id)
    rep = run_rate_experiment(cfg)
    for row, m in zip(rep.per_m, cfg.m_grid):
        problem = cfg.problem.build(m, cfg.seed)
        lam = cfg.lambda_rule.resolve(problem, m)
        tseeds = np.random.SeedSequence([cfg.seed, m]).generate_state(
            cfg.trials_per_m, dtype=np.uint64)
        errs = []
        for tseed in tseeds:
            est = estimate(problem, sample_dataset(problem, m, int(tseed)),
                           filt, lam)
            assert (est.cg_steps > 0) == (m >= d)
            errs.append(errors(problem, est)["h_norm"])
        assert row["lambda_used"] == lam
        assert row["mean_error"] == float(np.mean(errs))
        assert row["median_error"] == float(np.median(errs))
        assert row["std_error"] == float(np.std(errs, ddof=1))
