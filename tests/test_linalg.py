"""Hermitian linear algebra: operations, partial trace, eigensolver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steercrit import (
    LinalgError,
    commutator_observable,
    eig_hermitian,
    identity,
    kron,
    partial_trace,
    qutrit_triplet,
    spin_half,
)
from steercrit.linalg import as_matrix, max_abs

from conftest import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_as_matrix_accepts_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)
    assert max_abs(m) == 4.0


def test_as_matrix_rejects_non_square():
    with pytest.raises(LinalgError):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(LinalgError):
        as_matrix([[np.inf, 0], [0, 0]])
    with pytest.raises(LinalgError):
        as_matrix([[np.nan, 0], [0, 0]])


def test_identity():
    np.testing.assert_array_equal(identity(3), np.eye(3, dtype=complex))


def test_shape_mismatch_raises():
    with pytest.raises(LinalgError):
        commutator_observable(spin_half("x"), qutrit_triplet()[0])


def test_kron_mixed_product(rng):
    a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
    c, d = random_hermitian(rng, 2), random_hermitian(rng, 3)
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_of_product_state(rng):
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    ab = kron(a, b)
    np.testing.assert_allclose(
        partial_trace(ab, (2, 3), "A"), a * np.trace(b), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(ab, (2, 3), "B"), b * np.trace(a), atol=1e-12
    )


def test_partial_trace_bell_marginals():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    for keep in ("A", "B"):
        np.testing.assert_allclose(
            partial_trace(rho, (2, 2), keep), np.eye(2) / 2, atol=1e-15
        )


def test_partial_trace_rejects_bad_args():
    with pytest.raises(LinalgError):
        partial_trace(np.eye(4), (2, 3), "A")
    with pytest.raises(LinalgError):
        partial_trace(np.eye(4), (2, 2), "C")


def test_eig_sigma_z():
    dec = eig_hermitian(SZ)
    assert dec.eigenvalues == (1.0, -1.0)
    np.testing.assert_allclose(dec.projectors[0], np.diag([1, 0]), atol=1e-14)
    np.testing.assert_allclose(dec.projectors[1], np.diag([0, 1]), atol=1e-14)


def test_eig_merges_degenerate_identity():
    dec = eig_hermitian(np.eye(3, dtype=complex))
    assert len(dec.eigenvalues) == 1
    assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(dec.projectors[0], np.eye(3), atol=1e-12)


def test_eig_qutrit_offdiagonal():
    m = np.array(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex
    ) / np.sqrt(2)
    dec = eig_hermitian(m)
    np.testing.assert_allclose(dec.eigenvalues, (1.0, 0.0, -1.0), atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(LinalgError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def _check_decomposition(m: np.ndarray) -> None:
    dec = eig_hermitian(m)
    d = m.shape[0]
    # strictly descending labels
    assert all(
        dec.eigenvalues[i] > dec.eigenvalues[i + 1]
        for i in range(len(dec.eigenvalues) - 1)
    )
    # completeness, idempotence, orthogonality, reconstruction
    total = np.zeros_like(m)
    for i, p in enumerate(dec.projectors):
        total = total + p
        assert np.max(np.abs(p @ p - p)) < 1e-10
        for q in dec.projectors[i + 1:]:
            assert np.max(np.abs(p @ q)) < 1e-10
    assert np.max(np.abs(total - np.eye(d))) < 1e-10
    rebuilt = sum(val * p for val, p in zip(dec.eigenvalues, dec.projectors))
    assert np.max(np.abs(rebuilt - m)) < 1e-10
    # eigenvalue multiset agrees with the reference solver
    mine = sorted(
        ev for ev, p in zip(dec.eigenvalues, dec.projectors)
        for _ in range(round(np.trace(p).real))
    )
    ref = sorted(np.linalg.eigvalsh(m))
    np.testing.assert_allclose(mine, ref, atol=1e-8)


def test_decomposition_fixed_batch(rng):
    for _ in range(1000):
        d = int(rng.integers(2, 10))
        _check_decomposition(random_hermitian(rng, d))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
def test_decomposition_properties(seed, d):
    rng = np.random.default_rng(seed)
    _check_decomposition(random_hermitian(rng, d))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decomposition_with_degeneracies(seed):
    rng = np.random.default_rng(seed)
    evs = rng.choice([-1.0, 0.0, 0.5], size=4)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    m = (q * evs) @ q.conj().T
    m = (m + m.conj().T) / 2
    _check_decomposition(m)


def test_projectors_are_readonly():
    dec = eig_hermitian(SZ)
    with pytest.raises(ValueError):
        dec.projectors[0][0, 0] = 7.0
