"""Nystrom (quadrature) eigendecomposition of kernels on [0,1].

Supports two reference kernels, evaluated on the midpoint grid:

- ``"k1"``: K(x, x') = x*x' + exp(-8 (x - x')**2), whose spectrum decays
  super-polynomially (log-type effective dimension).
- ``"k2"``: K(x, x') = min(x, x') - x*x', the Brownian-bridge kernel
  with eigenvalues 1/(k*pi)**2.  Note: the source formula for this
  kernel contains an apparent typo ("xt"); it is read as x*x' here, and
  the CLI documents that reading.

The decomposition is the plain Nystrom scheme: on the n-point midpoint
grid the integral operator is approximated by K/n, and eigenvectors are
rescaled by sqrt(n) so they are orthonormal with respect to the
quadrature weight 1/n.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

K2_NOTE = ("kernel k2 is min(x,x') - x*x' (Brownian bridge); the 'xt' in "
           "the source formula is read as a typo for x*x'")


def kernel_k1(x: np.ndarray, xp: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)[:, None]
    xp = np.asarray(xp, dtype=np.float64)[None, :]
    return x * xp + np.exp(-8.0 * (x - xp) ** 2)


def kernel_k2(x: np.ndarray, xp: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)[:, None]
    xp = np.asarray(xp, dtype=np.float64)[None, :]
    return np.minimum(x, xp) - x * xp


_NAMED = {"k1": kernel_k1, "k2": kernel_k2}


def midpoint_grid(n: int) -> np.ndarray:
    return (np.arange(1, n + 1) - 0.5) / n


def mercer_decompose(kernel: str, grid_n: int,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and grid eigenfunctions of a PSD kernel.

    Parameters
    ----------
    kernel : "k1" | "k2"
        The name of a reference kernel.
    grid_n : int
        Number of midpoint quadrature nodes, at least 16.

    Returns
    -------
    (eigenvalues, eigenfunctions)
        Eigenvalues nonincreasing, with entries below 1e-12 of the top
        one clamped to zero; column k of the second array holds the k-th
        eigenfunction on the grid, normalized so that
        (1/n) * sum_i phi_k(x_i) phi_l(x_i) = delta_kl.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be >= 16")
    if kernel not in _NAMED:
        raise ValueError(f"unknown kernel {kernel!r}")
    x = midpoint_grid(grid_n)
    K = _NAMED[kernel](x, x)
    w, U = np.linalg.eigh(K / grid_n)
    w = w[::-1].copy()
    U = U[:, ::-1]
    top = w[0]
    if top <= 0:
        raise ValueError("kernel is not positive semidefinite on the grid")
    if w[-1] < -1e-8 * top:
        raise ValueError("kernel has a significantly negative eigenvalue; "
                         "not positive semidefinite on the grid")
    w[w < 1e-12 * top] = 0.0
    phi = np.sqrt(grid_n) * U
    recon = (phi * w) @ phi.T  # n * U diag(w) U^T reassembles K
    if np.abs(K - recon).max() > 1e-8 * np.abs(K).max():
        raise RuntimeError("Nystrom reconstruction error above tolerance")
    return w, phi
