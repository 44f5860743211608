import numpy as np
import pytest

import scalereg.mercer as mercer
from scalereg import (
    K2_NOTE,
    mercer_decompose,
    midpoint_grid,
)


def test_midpoint_grid():
    np.testing.assert_allclose(midpoint_grid(4), [0.125, 0.375, 0.625, 0.875])


def test_k2_eigenvalues_match_brownian_bridge_spectrum():
    w, _ = mercer_decompose("k2", 512)
    k = np.arange(1, 6)
    exact = 1.0 / (k * np.pi) ** 2
    rel = np.abs(w[:5] - exact) / exact
    assert rel.max() < 1e-3, f"top-5 relative errors {rel}"


def test_k2_eigenfunctions_are_quadrature_orthonormal():
    n = 128
    w, phi = mercer_decompose("k2", n)
    G = phi.T @ phi / n
    np.testing.assert_allclose(G, np.eye(n), atol=1e-10)


def test_k1_spectrum_positive_part_and_fast_decay():
    w, _ = mercer_decompose("k1", 256)
    assert w[0] == pytest.approx(0.81039346, rel=1e-4)
    assert w[1] == pytest.approx(0.33735396, rel=1e-4)
    assert np.all(np.diff(w) <= 0)
    # Gaussian part forces super-polynomial decay; both nearby index
    # conventions for "tenth over second" land five-plus orders down
    assert w[9] / w[1] == pytest.approx(1.873e-6, rel=1e-2)
    assert w[10] / w[2] == pytest.approx(4.541e-7, rel=1e-2)


def test_callable_kernel_and_validation():
    # a kernel is one of the named reference kernels, on >= 16 nodes
    with pytest.raises(ValueError):
        mercer_decompose("k3", 64)
    with pytest.raises(ValueError):
        mercer_decompose("k2", 8)


def test_indefinite_kernel_rejected(monkeypatch):
    def indefinite(x, xp):
        return np.sin(40.0 * np.pi * x)[:, None] * np.cos(
            40.0 * np.pi * xp)[None, :] + np.cos(
            40.0 * np.pi * x)[:, None] * np.sin(40.0 * np.pi * xp)[None, :]

    monkeypatch.setitem(mercer._NAMED, "k1", indefinite)
    with pytest.raises(ValueError, match="positive semidefinite"):
        mercer_decompose("k1", 64)


def test_nonpositive_kernel_rejected(monkeypatch):
    monkeypatch.setitem(mercer._NAMED, "k1", lambda x, xp: -np.eye(x.size))
    with pytest.raises(ValueError, match="^kernel is not positive"):
        mercer_decompose("k1", 64)


def test_asymmetric_kernel_fails_reconstruction(monkeypatch):
    # eigh reads only the lower triangle, which here is the identity
    def upper_ones(x, xp):
        return np.eye(x.size) + np.triu(np.ones((x.size, xp.size)), 1)

    monkeypatch.setitem(mercer._NAMED, "k1", upper_ones)
    with pytest.raises(RuntimeError, match="Nystrom reconstruction"):
        mercer_decompose("k1", 64)


def test_k2_note_mentions_the_variable_convention():
    assert "typo" in K2_NOTE and "x*x'" in K2_NOTE
