"""Index functions: continuous, strictly increasing, vanishing at zero.

Power laws cover everything the diagonal experiments need, but a
log-damped family and products are provided so curvature away from a
pure power can be represented (severely ill-posed spectra).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import FieldError, _real


@dataclass(frozen=True)
class IndexFunction:
    """An index function t -> phi(t) on (0, t_max].

    kind
        "power":   phi(t) = t**exponent, exponent > 0.
        "log":     phi(t) = t**p * log(e + 1/t)**(-nu), nu >= 0.
        "product": phi = left * right, both index functions.
    """

    kind: str
    exponent: float = 1.0
    p: float = 1.0
    nu: float = 0.0
    left: Optional["IndexFunction"] = None
    right: Optional["IndexFunction"] = None

    def __post_init__(self):
        if self.kind == "power":
            if not (_real(self.exponent) and self.exponent > 0):
                raise FieldError("exponent",
                                 "power index function needs exponent > 0")
            object.__setattr__(self, "exponent", float(self.exponent))
        elif self.kind == "log":
            if not (_real(self.p) and self.p > 0):
                raise FieldError("p", "log index function needs p > 0")
            if not (_real(self.nu) and self.nu >= 0):
                raise FieldError("nu", "log index function needs nu >= 0")
            object.__setattr__(self, "p", float(self.p))
            object.__setattr__(self, "nu", float(self.nu))
        elif self.kind == "product":
            if self.left is None:
                raise FieldError("left", "product index function needs a "
                                 "left factor")
            if self.right is None:
                raise FieldError("right", "product index function needs a "
                                 "right factor")
        else:
            raise FieldError("kind",
                             f"unknown index function kind: {self.kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "power":
            out = np.power(t, self.exponent, where=t > 0,
                           out=np.zeros_like(t))
        elif self.kind == "log":
            with np.errstate(divide="ignore"):
                damp = np.log(np.e + np.divide(1.0, t, where=t > 0,
                                               out=np.full_like(t, np.inf)))
            out = np.power(t, self.p, where=t > 0, out=np.zeros_like(t))
            out = np.divide(out, damp ** self.nu, where=np.isfinite(damp),
                            out=np.zeros_like(out))
        else:
            out = np.asarray(self.left(t)) * np.asarray(self.right(t))
        return float(out) if out.ndim == 0 else out


def power_fn(exponent: float) -> IndexFunction:
    return IndexFunction(kind="power", exponent=exponent)


# the grid checks read 512 log-spaced points of [1e-12 t_max, t_max]
_N_GRID = 512
_SUBLINEAR_RTOL = 1e-9


def check_index_function(phi: Callable[[np.ndarray], np.ndarray]) -> bool:
    """Grid check: strictly increasing on (0, 1] and phi(0) = 0."""
    vals = np.asarray(phi(np.geomspace(1e-12, 1.0, _N_GRID)))
    v0 = float(np.asarray(phi(np.array(0.0))))
    return bool(np.all(np.diff(vals) > 0) and vals[0] > 0 and v0 == 0.0)


def check_sublinear(phi, t_max: float = 1.0) -> bool:
    """Grid check that phi(t)/t is nonincreasing on (0, t_max]
    (sub-linearity)."""
    grid = np.geomspace(t_max * 1e-12, t_max, _N_GRID)
    ratio = np.asarray(phi(grid)) / grid
    return bool(np.all(ratio[1:] <= ratio[:-1] * (1.0 + _SUBLINEAR_RTOL)))
