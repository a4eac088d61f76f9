"""Hermitian linear algebra: matrix coercion and the eigensolver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steercrit import (
    LinalgError,
    commutator_observable,
    eig_hermitian,
    qutrit_triplet,
    spin_half,
)
from steercrit.linalg import as_matrix, matrix_from_json, max_abs
from steercrit.tolerances import DEGENERACY_TOL

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


@pytest.mark.parametrize("entry, value", (
    (1, 1.0), (-0.5, -0.5), (0, 0.0), (10**20, 1e20), (2**1023, 2.0**1023),
))
def test_matrix_from_json_accepts_finite_numbers(entry, value):
    # the int and the float of one pair parse as one complex entry
    m = matrix_from_json([[[entry, 0.25], [0, 0]], [[0, 0], [1, -1]]])
    assert m.dtype == np.complex128
    assert m[0, 0] == complex(value, 0.25)
    assert m[1, 1] == complex(1.0, -1.0)


@pytest.mark.parametrize("entry", (
    True, False, None, "1", float("nan"), float("inf"), -float("inf"), 10**400,
    [1.0], {"re": 1.0}, 1j, np.float64(1.0),
))
def test_matrix_from_json_rejects_what_is_not_a_json_number(entry):
    # booleans are int subclasses, and numpy scalars are no JSON value
    for row in ([[entry, 0.0], [0, 0]], [[0.0, 0.0], [0, entry]]):
        with pytest.raises(LinalgError):
            matrix_from_json([row, [[0, 0], [1, 0]]])


def test_shape_mismatch_raises():
    with pytest.raises(LinalgError):
        commutator_observable(spin_half("x"), qutrit_triplet()[0])


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


def test_eig_merges_neighbours_closer_than_degeneracy_tol():
    # each eigenvalue lies 0.6 DEGENERACY_TOL below the last, so the three
    # are one outcome although the first and third are 1.2 DEGENERACY_TOL apart
    step = 0.6 * DEGENERACY_TOL
    dec = eig_hermitian(np.diag([1.0, 1.0 - step, 1.0 - 2 * step, 0.0]).astype(complex))
    assert len(dec.eigenvalues) == 2
    assert dec.eigenvalues[0] == pytest.approx(1.0 - step, abs=1e-15)
    assert round(np.trace(dec.projectors[0]).real) == 3
    # a gap of 1.5 DEGENERACY_TOL splits them
    dec = eig_hermitian(np.diag([1.0, 1.0 - 1.5 * DEGENERACY_TOL, 0.0]).astype(complex))
    assert len(dec.eigenvalues) == 3


def test_eig_qutrit_offdiagonal():
    m = np.array(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex
    ) / np.sqrt(2)
    dec = eig_hermitian(m)
    np.testing.assert_allclose(dec.eigenvalues, (1.0, 0.0, -1.0), atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(LinalgError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    # the residual bound scales with the largest entry
    m = 1e4 * SX
    m[0, 1] += 1e-8
    assert eig_hermitian(m).eigenvalues == pytest.approx((1e4, -1e4))
    m[0, 1] += 1e-6
    with pytest.raises(LinalgError):
        eig_hermitian(np.stack([SZ, m]))


def _stack_members(rng, d: int) -> list[np.ndarray]:
    """Random, exactly degenerate and near-degenerate d x d matrices."""
    q, _ = np.linalg.qr(random_hermitian(rng, d))
    near = np.linspace(1.0, -1.0, d)
    near[1] = near[0] - 0.5 * DEGENERACY_TOL
    repeated = np.repeat([1.0, -0.5], [d - d // 2, d // 2])
    return [
        random_hermitian(rng, d),
        np.eye(d, dtype=complex),
        np.diag(repeated).astype(complex),
        (q * near) @ q.conj().T,
        random_hermitian(rng, d),
    ]


@pytest.mark.parametrize("d", (2, 3, 4))
def test_stacked_eig_equals_per_matrix(rng, d):
    for _ in range(20):
        members = _stack_members(rng, d)
        order = rng.permutation(len(members))
        stack = np.stack([members[i] for i in order])
        for m, dec in zip(stack, eig_hermitian(stack), strict=True):
            single = eig_hermitian(m)
            assert dec.eigenvalues == single.eigenvalues
            assert len(dec.projectors) == len(single.projectors)
            for p, ref in zip(dec.projectors, single.projectors):
                assert np.array_equal(p, ref)


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
