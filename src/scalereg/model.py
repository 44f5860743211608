"""Synthetic diagonal inverse problems on L2([0,1], uniform).

The forward operator A and the scale operator L act diagonally in the
orthonormal cosine basis

    e_1(x) = 1,   e_j(x) = sqrt(2) * cos((j-1) * pi * x)  for j >= 2,

with A e_j = a_j e_j and L e_j = l_j e_j.  Everything downstream -- the
covariance spectrum t_j = (a_j / l_j)**2, its effective dimension, the
design matrices of the sampled operators -- derives from the triple
(a, l, f_true) stored here.  Truncation to d modes makes every operator
a finite matrix.  ``PowerProblemSpec`` is the one description of the
power-type family: its smoothness, its noise, its truth and d(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

V_PATTERNS = ("constant", "seeded")

# the two smoothness regimes of the rate analysis
CASES = ("oversmoothing", "regular")

_D_CAP = 2000
_D_MIN = 64


class FieldError(ValueError):
    """A value that a config object refuses.  ``field`` is the key of
    the value relative to the object ("r", "tolerance", "params/value"),
    as a config document spells it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise: Gaussian with std ``sigma``.

    ``M`` and ``Sigma_const`` are the moment constants reported to the
    concentration bounds.  For Gaussian noise the documented sufficient
    choice is M = Sigma_const = sigma.  When sigma = 0 a positive
    placeholder of 1.0 keeps the bound formulas well-defined (the bounds
    are vacuous at sigma = 0).
    """

    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise FieldError("sigma", "sigma must be in [0, inf)")
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def M(self) -> float:
        return self.sigma if self.sigma > 0 else 1.0

    @property
    def Sigma_const(self) -> float:
        return self.M


def truncation_dim(m: int, s: float) -> int:
    """Series truncation d(m) = min(2000, max(64, 4 ceil(m^(1/2s)))).

    Four times the index j at which l_j^2 = j^(2s) reaches m, floored at
    64 modes and capped at 2000; past the cap d is the cap without
    m^(1/2s) being formed, which small s would take out of the float
    range.  It sets the cost of a trial, not a truncation error: both
    ``v_pattern``s spread the source element over the first d modes, so
    the truth itself has no tail beyond d and changes with m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not s > 0:
        raise ValueError("s must be positive")
    if math.log(m) / (2.0 * s) > math.log(_D_CAP):
        return _D_CAP
    return int(min(_D_CAP, max(_D_MIN, 4 * math.ceil(m ** (1.0 / (2.0 * s))))))


@dataclass(frozen=True)
class PowerProblemSpec:
    """The power-type problem family and its smoothness, checked once.

    s is the scale growth exponent (l_j = j**s), a_link the link exponent
    (rho(t) = t**a_link), r the source exponent (theta(t) = t**r), q the
    benchmark exponent, R_dagger the source norm bound and sigma the
    noise level, which ``noise`` holds as the problem's ``NoiseModel``.
    ``v_pattern`` shapes the source element (see
    ``build_power_problem``); d is ``truncation_dim(m, s)`` unless
    ``d_override`` fixes it.  A built problem carries the spec of its own
    d as ``smoothness``.  A refused parameter raises a ``FieldError``
    that names its config key ("d" for ``d_override``).
    """

    s: float
    a_link: float
    r: float
    q: float
    R_dagger: float = 1.0
    sigma: float = 0.05
    v_pattern: str = "constant"
    d_override: Optional[int] = None
    noise: NoiseModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # written as "not lo < x < inf" so that NaN and inf are refused
        if not 0 < self.r < math.inf:
            raise FieldError("r", "r must be in (0, inf)")
        if not 0 < self.a_link <= 0.5:
            raise FieldError("a_link", "a_link must be in (0, 1/2]")
        if not 1 <= self.q < math.inf:
            raise FieldError("q", "q must be in [1, inf)")
        if not 0 < self.R_dagger < math.inf:
            raise FieldError("R_dagger", "R_dagger must be in (0, inf)")
        if not 0 < self.s < math.inf:
            raise FieldError("s", "s must be in (0, inf)")
        object.__setattr__(self, "noise", NoiseModel(self.sigma))
        if self.d_override is not None and not self.d_override >= 2:
            raise FieldError("d", "d must be >= 2")
        if self.v_pattern not in V_PATTERNS:
            raise FieldError("v_pattern",
                             f"v_pattern must be one of {V_PATTERNS}")

    @property
    def b(self) -> float:
        """Effective-dimension decay exponent of the induced spectrum."""
        return self.a_link / self.s

    def build(self, m: int, seed: int) -> SpectralProblem:
        d = (truncation_dim(m, self.s) if self.d_override is None
             else self.d_override)
        return build_power_problem(self.s, self.a_link, self.r, self.q,
                                   self.R_dagger, d, self.sigma,
                                   v_pattern=self.v_pattern, seed=seed)

    def to_dict(self) -> dict:
        out = {"s": self.s, "a_link": self.a_link, "r": self.r, "q": self.q,
               "R_dagger": self.R_dagger, "sigma": self.sigma,
               "v_pattern": self.v_pattern}
        if self.d_override is not None:
            out["d_override"] = self.d_override
        return out


@dataclass(frozen=True)
class SpectralProblem:
    d: int
    a: np.ndarray
    l: np.ndarray
    f_true: np.ndarray
    noise: NoiseModel
    smoothness: Optional[PowerProblemSpec] = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        for name in ("a", "l", "f_true"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.d,):
                raise ValueError(f"{name} must have length d={self.d}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.all(self.a > 0):
            raise ValueError("all a_j must be positive")
        if not np.all(self.l > 0):
            raise ValueError("all l_j must be positive")
        if np.any(np.diff(self.l) < 0):
            raise ValueError("l must be nondecreasing")

    @cached_property
    def t(self) -> np.ndarray:
        """Population covariance eigenvalues t_j = (a_j / l_j)**2."""
        t = (self.a / self.l) ** 2
        t.flags.writeable = False
        return t

    @cached_property
    def lnu_eigs(self) -> np.ndarray:
        """Eigenvalues a_j**2 of the population operator built from A."""
        e = self.a ** 2
        e.flags.writeable = False
        return e

    @cached_property
    def kappa_sq(self) -> float:
        return _sup_at_zero(self.t)

    @cached_property
    def kappa_tilde_sq(self) -> float:
        return _sup_at_zero(self.lnu_eigs)


def _sup_at_zero(c: np.ndarray) -> float:
    # sup_x sum_j c_j e_j(x)^2 for c >= 0, attained at x = 0 where every
    # squared cosine mode reaches its maximum 2 simultaneously
    return float(c[0] + 2.0 * c[1:].sum())


def build_power_problem(s: float, a_link: float, r: float, q: float,
                        R_dagger: float, d: int, sigma: float,
                        v_pattern: str = "constant",
                        seed: int = 0) -> SpectralProblem:
    """Construct a problem whose link condition holds with equality.

    With l_j = j**s and a_j = j**(s * (1 - 1/(2*a_link))) the covariance
    spectrum is t_j = l_j**(-1/a_link) exactly, so rho(t) = t**a_link
    links the two scales with constant 1.  The truth is f_j = l_j**(-r)
    * v_j where the source element v has norm R_dagger and its shape is
    chosen by ``v_pattern``:

    - "constant": v_j = R_dagger / sqrt(d)
    - "seeded":   standard normal draws rescaled to norm R_dagger
                  (counter-based generator keyed by ``seed``)

    The parameters are checked by the ``PowerProblemSpec`` of this d,
    which the problem keeps as ``smoothness``.
    """
    spec = PowerProblemSpec(s=s, a_link=a_link, r=r, q=q, R_dagger=R_dagger,
                            sigma=sigma, v_pattern=v_pattern, d_override=d)
    j = np.arange(1, d + 1, dtype=np.float64)
    l = j ** s
    a = j ** (s * (1.0 - 1.0 / (2.0 * a_link)))
    if v_pattern == "constant":
        v = np.full(d, R_dagger / np.sqrt(d))
    else:
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence([int(seed)])))
        v = gen.standard_normal(d)
        v *= R_dagger / np.linalg.norm(v)
    f_true = l ** (-r) * v
    return SpectralProblem(d=d, a=a, l=l, f_true=f_true,
                           noise=spec.noise, smoothness=spec)


def _cosine_coef(c: np.ndarray) -> np.ndarray:
    """Coefficients in the basis e_j as coefficients of cos((j-1) pi x).

    The basis normalization: c_1 stays, and c_j for j >= 2 takes the
    sqrt(2) of e_j.
    """
    out = np.sqrt(2.0) * c
    out[0] = c[0]
    return out


# Gaussian gridding: each point reads _GRID_W grid values on either side
# of it, on a grid of _GRID_OVERSAMPLE * 2d points.  With the Gaussian
# exp(-_GRID_ALPHA * u^2) in grid units u, the stencil's truncation error
# and the grid's aliasing error are both exp(-pi w / sqrt(2)) ~ 3e-14 of
# the coefficient scale.
_GRID_W = 14
_GRID_OVERSAMPLE = 2
_GRID_ALPHA = np.pi / (np.sqrt(2.0) * _GRID_W)
_GRID_STENCIL = np.exp(-_GRID_ALPHA * np.arange(1 - _GRID_W, _GRID_W + 1.0)
                       ** 2)


def _cosine_sum(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k cos(k pi x_i) by Gaussian gridding (Greengard & Lee 2004).

    As the type-2 sum sum_{|k|<d} a_k e^{ik theta} at theta = pi x, with
    a_0 = c_0 and a_{+-k} = c_k / 2, it is the circular convolution of the
    Gaussian with the series whose coefficients are a_k divided by the
    Gaussian's Fourier transform.  One ``irfft`` samples that series on
    the grid, and each point sums its 2w nearest grid values under the
    Gaussian.  The series is 2-periodic in x, so x is taken mod 2.
    """
    d = c.shape[0]
    n_grid = 2 * _GRID_OVERSAMPLE * d
    # the Gaussian is exp(-theta^2 / (4 tau)) in theta
    tau = np.pi ** 2 / (_GRID_ALPHA * n_grid ** 2)
    k = np.arange(d)
    deconv = np.sqrt(np.pi / tau) * np.exp(tau * k * k)
    deconv[1:] *= 0.5
    grid = np.fft.irfft(c * deconv, n_grid)
    # padded[j + l] is grid point j - w + 1 + l for j = 0 .. n_grid (x mod 2
    # may round up to 2 itself) and l = 0 .. 2w - 1
    padded = grid[np.arange(1 - _GRID_W, n_grid + _GRID_W + 1) % n_grid]
    u = np.mod(x, 2.0) * (0.5 * n_grid)
    j = u.astype(np.intp)
    frac = u - j
    # the weight of offset l is exp(-alpha (frac - l + w - 1)^2), that is
    # exp(-alpha frac (frac + 2(w-1))) * exp(2 alpha frac)^l * stencil[l]
    weight = np.exp(-_GRID_ALPHA * frac * (frac + 2.0 * (_GRID_W - 1)))
    step = np.exp(2.0 * _GRID_ALPHA * frac)
    out = np.zeros_like(u)
    term = np.empty_like(u)
    for l, factor in enumerate(_GRID_STENCIL):
        np.take(padded[l:], j, out=term)
        term *= weight
        term *= factor
        out += term
        weight *= step
    return out


def forward_eval(problem: SpectralProblem, f: np.ndarray, x):
    """Evaluate g(x) = sum_j a_j f_j e_j(x) (the regression function).

    ``x`` is a vector of points; a scalar point gives a length-1 vector.
    The cosine series is summed by Gaussian gridding on ``numpy.fft`` in
    O(m w + d log d) for m points and a fixed stencil width w; its error
    is at most 1e-12 times sum_j |a_j f_j| sup|e_j| (at most 3.3e-14
    measured against direct ``np.cos`` for d up to 4000).
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (problem.d,):
        raise ValueError(f"f must have length d={problem.d}")
    return _cosine_sum(np.ascontiguousarray(x, dtype=np.float64),
                       _cosine_coef(problem.a * f))


def hilbert_scale_norm(problem: SpectralProblem, f: np.ndarray,
                       s_exp: float) -> float:
    """Norm of f in the scale space of order s_exp: sqrt(sum l^(2s) f^2)."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (problem.d,):
        raise ValueError(f"f must have length d={problem.d}")
    return float(np.linalg.norm(problem.l ** s_exp * f))
