"""Spectral regularization filters and their defining conditions.

A filter family g_lambda approximates t -> 1/t on a spectrum [0, 1]
subject to the usual four conditions with constants (D, B, gamma,
gamma_p):

    sup |t g_lambda(t)| <= D          sup |g_lambda(t)| <= B / lambda
    sup |r_lambda(t)|   <= gamma      sup |r_lambda(t)| t^p <= gamma_p lambda^p

where r_lambda(t) = 1 - t g_lambda(t) is the residual and p is the
qualification.  Three families are provided:

- "tikhonov":  g = 1/(t + lambda), qualification 1 (saturates above);
- "cutoff":    g = 1/t for t >= lambda else 0, arbitrary qualification;
- "landweber": g = sum_{i<nu} (1-t)^i with nu = ceil(1/lambda), capped
  at 10^6, defined on [0, 1].  Its per-p constant (p/e)^p is a known
  envelope, approached from below, and is grid-verified in the checks
  rather than assumed.

``filter_values`` and ``residual_values`` take the raw spectrum of an
operator bounded by kappa^2, such as T_x, together with kappa^2.
Tikhonov and cutoff act on t directly; landweber acts on t / kappa^2,
g(t) = g~(t / kappa^2) / kappa^2 and r(t) = r~(t / kappa^2), with
lambda in the same units.  At kappa^2 = 1 every filter is on its
canonical domain [0, 1].

The check_* functions verify the conditions by grid maximization on
fixed grids (400 log-spaced lambdas in [1e-6, 1], 1000 linear t in
[0, 1]; the covering check uses 1000 log-spaced t in [1e-12, 1]), which
resolve the suprema of these smooth functions well below the 1e-9
comparison tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexfn import IndexFunction

FILTER_NAMES = ("tikhonov", "cutoff", "landweber")

_LANDWEBER_NU_CAP = 10 ** 6
_TOL = 1e-9
# relative room above kappa^2 for eigensolver overshoot
_SPECTRUM_SLACK = 1e-9


@dataclass(frozen=True)
class FilterFamily:
    id: str
    D: float
    B: float
    gamma: float
    qualification_p: float

    def gamma_p_at(self, p: float) -> float:
        """Declared qualification constant at order p.

        Tikhonov only qualifies up to p = 1 (saturation): requesting a
        larger p returns infinity.
        """
        if p <= 0:
            raise ValueError("p must be positive")
        if self.id == "tikhonov":
            if p > 1.0:
                return math.inf
            return 1.0 if p == 1.0 else p ** p * (1.0 - p) ** (1.0 - p)
        if self.id == "cutoff":
            return 1.0
        return (p / math.e) ** p


def make_filter(name: str) -> FilterFamily:
    if name == "tikhonov":
        return FilterFamily("tikhonov", D=1.0, B=1.0, gamma=1.0,
                            qualification_p=1.0)
    if name == "cutoff":
        return FilterFamily("cutoff", D=1.0, B=1.0, gamma=1.0,
                            qualification_p=math.inf)
    if name == "landweber":
        return FilterFamily("landweber", D=1.0, B=2.0, gamma=1.0,
                            qualification_p=math.inf)
    raise ValueError(f"unknown filter {name!r}; expected one of "
                     f"{FILTER_NAMES}")


def _validate(lam: float, spectrum, kappa_sq: float) -> np.ndarray:
    if not lam > 0:
        raise ValueError("lambda must be positive")
    t = np.asarray(spectrum, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("spectrum entries must be nonnegative")
    if np.any(t > kappa_sq * (1.0 + _SPECTRUM_SLACK)):
        raise ValueError(f"spectrum entry exceeds kappa_sq={kappa_sq}")
    return t


def landweber_iterations(lam: float) -> int:
    return min(math.ceil(1.0 / lam), _LANDWEBER_NU_CAP)


def filter_values(filt: FilterFamily, lam: float, spectrum,
                  kappa_sq: float = 1.0) -> np.ndarray:
    """Elementwise g_lambda over a spectrum in [0, kappa_sq]."""
    t = _validate(lam, spectrum, kappa_sq)
    if filt.id == "tikhonov":
        return 1.0 / (t + lam)
    if filt.id == "cutoff":
        out = np.zeros_like(t)
        hit = t >= lam
        out[hit] = 1.0 / t[hit]
        return out
    t = t / kappa_sq
    nu = landweber_iterations(lam)
    # geometric partial sum (1 - (1-t)^nu) / t, written via expm1/log1p
    # so huge nu and tiny t lose no precision; limit nu at t = 0
    out = np.full_like(t, float(nu))
    pos = t > 0
    tp = np.minimum(t[pos], 1.0)  # tolerate eigensolver overshoot above 1
    with np.errstate(divide="ignore"):
        out[pos] = -np.expm1(nu * np.log1p(-tp)) / tp
    return out / kappa_sq


def residual_values(filt: FilterFamily, lam: float, spectrum,
                    kappa_sq: float = 1.0) -> np.ndarray:
    """Elementwise residual r_lambda(t) = 1 - t g_lambda(t)."""
    t = _validate(lam, spectrum, kappa_sq)
    if filt.id == "tikhonov":
        return lam / (t + lam)
    if filt.id == "cutoff":
        return np.where(t >= lam, 0.0, 1.0)
    nu = landweber_iterations(lam)
    with np.errstate(divide="ignore"):
        return np.exp(nu * np.log1p(-np.minimum(t / kappa_sq, 1.0)))


# ---------------------------------------------------------------------------
# grid checks of the definition
# ---------------------------------------------------------------------------

def _read_only(grid: np.ndarray) -> np.ndarray:
    grid.flags.writeable = False
    return grid


_LAMBDA_GRID = _read_only(np.geomspace(1e-6, 1.0, 400))
_T_GRID = _read_only(np.linspace(0.0, 1.0, 1000))
_COVERING_T_GRID = _read_only(np.geomspace(1e-12, 1.0, 1000))


@dataclass(frozen=True)
class ConstantsReport:
    D_obs: float
    B_obs: float
    gamma_obs: float
    passed: bool


def check_regularization_constants(filt: FilterFamily) -> ConstantsReport:
    """Observed suprema of the three basic conditions over the grids."""
    ts = _T_GRID
    D_obs = B_obs = gamma_obs = 0.0
    for lam in _LAMBDA_GRID:
        g = filter_values(filt, float(lam), ts)
        r = residual_values(filt, float(lam), ts)
        D_obs = max(D_obs, float(np.abs(ts * g).max()))
        B_obs = max(B_obs, float(np.abs(g).max() * lam))
        gamma_obs = max(gamma_obs, float(np.abs(r).max()))
    passed = (D_obs <= filt.D + _TOL and B_obs <= filt.B + _TOL
              and gamma_obs <= filt.gamma + _TOL)
    return ConstantsReport(D_obs, B_obs, gamma_obs, passed)


def check_qualification(filt: FilterFamily, p: float) -> float:
    """Largest observed |r_lambda(t)| t^p / lambda^p over the grids."""
    if not p > 0:
        raise ValueError("p must be positive")
    ts = _T_GRID
    worst = 0.0
    for lam in _LAMBDA_GRID:
        r = residual_values(filt, float(lam), ts)
        worst = max(worst, float((np.abs(r) * ts ** p).max() / lam ** p))
    return worst


def check_covering(p: float, phi: IndexFunction) -> bool:
    """True iff t^p / phi(t) is nondecreasing on the grid."""
    if not p > 0:
        raise ValueError("p must be positive")
    ts = _COVERING_T_GRID
    vals = np.asarray(phi(ts))
    keep = (ts > 0) & (vals > 0)
    ratio = ts[keep] ** p / vals[keep]
    return bool(np.all(ratio[1:] >= ratio[:-1] * (1.0 - 1e-12)))


@dataclass(frozen=True)
class PropReport:
    p: float
    c_p: float
    max_ratio_1: float
    max_ratio_2: float
    passed: bool


def check_prop_regularization(filt: FilterFamily,
                              phi: IndexFunction) -> PropReport:
    """Residual-versus-index-function bounds, grid-maximized.

    Checks sup_t |r_lambda(t)| phi(t) <= c_p phi(lambda) and
    sup_t |r_lambda(t)| phi(lambda + t) <= 2^p c_p phi(lambda) with
    c_p = max(gamma, gamma_p), for a qualification order p covering phi:
    the filter's own qualification if finite, else the smallest of 1, 2,
    4, 8 that covers phi.
    """
    if math.isfinite(filt.qualification_p):
        p = filt.qualification_p
        if not check_covering(p, phi):
            raise ValueError(f"qualification p={p} does not cover phi")
    else:
        p = next((c for c in (1.0, 2.0, 4.0, 8.0)
                  if check_covering(c, phi)), None)
        if p is None:
            raise ValueError("no tested qualification order covers phi")
    ts = _T_GRID
    c_p = max(filt.gamma, filt.gamma_p_at(p))
    ratio_1 = ratio_2 = 0.0
    for lam in _LAMBDA_GRID:
        lam = float(lam)
        r = np.abs(residual_values(filt, lam, ts))
        denom = float(np.asarray(phi(np.array(lam))))
        ratio_1 = max(ratio_1, float((r * np.asarray(phi(ts))).max()) / denom)
        ratio_2 = max(ratio_2,
                      float((r * np.asarray(phi(ts + lam))).max()) / denom)
    passed = (ratio_1 <= c_p + _TOL and ratio_2 <= 2.0 ** p * c_p + _TOL)
    return PropReport(float(p), c_p, ratio_1, ratio_2, passed)
