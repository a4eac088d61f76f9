"""Measurement observables, derived operators and pairing rules."""

from __future__ import annotations

import json

import numpy as np
import pytest

from steercrit import (
    FAMILY_QUBIT_XZ,
    LinalgError,
    Observable,
    ObservablePairing,
    anticommutator_observable,
    commutator_observable,
    default_pairing,
    difference_observable,
    expectation,
    explicit_pairing,
    isotropic,
    observable_from_json,
    observable_to_json,
    qutrit_triplet,
    spin_half,
)

from conftest import random_observable


def test_spin_half_matrices():
    np.testing.assert_allclose(
        spin_half("x").matrix, np.array([[0, 0.5], [0.5, 0]]), atol=0
    )
    np.testing.assert_allclose(
        spin_half("y").matrix, np.array([[0, -0.5j], [0.5j, 0]]), atol=0
    )
    np.testing.assert_allclose(
        spin_half("z").matrix, np.array([[0.5, 0], [0, -0.5]]), atol=0
    )
    assert spin_half("x").label == "Sx"
    with pytest.raises(LinalgError):
        spin_half("w")


def test_observable_requires_hermitian():
    with pytest.raises(LinalgError):
        Observable("bad", np.array([[0, 1], [0, 0]]))


def test_spectral_outcomes_descending():
    assert spin_half("z").outcomes == (0.5, -0.5)
    assert spin_half("x").outcomes == (0.5, -0.5)


def test_qutrit_triplet_matrices():
    b1, b2, b3 = qutrit_triplet()
    np.testing.assert_allclose(b1.matrix, np.diag([1.0, -1.0, 0.0]), atol=0)
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(
        b2.matrix, np.array([[0, r, 0], [r, 0, 0], [0, 0, 0]]), atol=1e-15
    )
    s = np.sqrt(2)
    np.testing.assert_allclose(
        b3.matrix,
        np.array([[0, -1j * s, 0], [1j * s, 0, 0], [0, 0, 0]]),
        atol=1e-15,
    )
    assert (b1.label, b2.label, b3.label) == ("B1", "B2", "B3")


def test_qutrit_commutator_closes_on_third_member():
    b1, b2, b3 = qutrit_triplet()
    c = commutator_observable(b1, b2)
    assert np.max(np.abs(c.matrix - b3.matrix)) < 1e-12
    assert c.label == "-i[B1,B2]"


def test_qubit_commutator_is_minus_sy():
    c = commutator_observable(spin_half("x"), spin_half("z"))
    np.testing.assert_allclose(c.matrix, -spin_half("y").matrix, atol=1e-15)


def test_anticommutator_of_orthogonal_spins_vanishes():
    a = anticommutator_observable(spin_half("x"), spin_half("z"))
    assert np.max(np.abs(a.matrix)) == 0.0
    assert a.label == "{Sx,Sz}"


def test_difference_observable():
    d = difference_observable(spin_half("x"), spin_half("z"))
    assert d.label == "Sx-Sz"
    np.testing.assert_allclose(
        d.spectral.eigenvalues, (1 / np.sqrt(2), -1 / np.sqrt(2)), atol=1e-12
    )


def test_default_pairing_transposes():
    sz = spin_half("z")
    sy = spin_half("y")
    az = default_pairing(sz).alice
    ay = default_pairing(sy).alice
    np.testing.assert_array_equal(az.matrix, sz.matrix)
    np.testing.assert_allclose(ay.matrix, -sy.matrix, atol=0)
    assert az.label == "Sz^T"
    assert ay.label == "Sy^T"


def test_default_pairing_correlates_on_isotropic():
    # <A x B> = p Tr[B^T B] / d for the transpose rule on isotropic states
    p = 0.8
    rho = isotropic(2, p)
    sx = spin_half("x")
    joint = np.kron(default_pairing(sx).alice.matrix, sx.matrix)
    assert expectation(rho, joint) == pytest.approx(p / 4, abs=1e-12)


def test_explicit_pairing_lookup_and_miss():
    sx, sz = spin_half("x"), spin_half("z")
    rule = explicit_pairing({"Sx": sz})
    assert rule(sx).alice is sz
    with pytest.raises(LinalgError):
        rule(sz)


def test_pairing_dimension_mismatch_rejected():
    b1 = qutrit_triplet()[0]
    with pytest.raises(LinalgError):
        ObservablePairing(bob=spin_half("x"), alice=b1)


def test_projector_products_shape(rng):
    sx = spin_half("x")
    pairing = ObservablePairing(bob=sx, alice=default_pairing(sx).alice)
    stack = pairing.projector_products
    assert stack.shape == (2, 2, 4, 4)
    total = stack.sum(axis=(0, 1))
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
    # entry for entry the np.kron stack, also when na != nb
    pairings = [
        ObservablePairing(bob=random_observable(rng, d), alice=random_observable(rng, d))
        for d in (2, 3, 4)
    ]
    degenerate = ObservablePairing(
        bob=Observable("P", np.diag([1.0, 1.0, 0.0])), alice=random_observable(rng, 3)
    )
    assert degenerate.projector_products.shape == (3, 2, 9, 9)
    for pairing in pairings + [degenerate]:
        kron = np.array([
            [np.kron(pa, qb) for qb in pairing.bob.spectral.projectors]
            for pa in pairing.alice.spectral.projectors
        ])
        assert np.array_equal(pairing.projector_products, kron)


def test_observable_json_round_trip():
    b2 = qutrit_triplet()[1]
    blob = json.dumps(observable_to_json(b2))
    back = observable_from_json(json.loads(blob))
    assert back.label == b2.label
    np.testing.assert_array_equal(back.matrix, b2.matrix)
