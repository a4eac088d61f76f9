"""Density matrices, the isotropic family, validation and JSON round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steercrit import (
    DensityMatrix,
    InvalidStateError,
    eig_hermitian,
    isotropic,
    max_entangled,
    state_diagnostics,
    state_from_json,
    state_to_json,
    validate,
)

from conftest import random_bipartite


def _marginal(rho, keep):
    t = rho.matrix.reshape(rho.dims + rho.dims)
    return np.einsum("ikjk->ij" if keep == "A" else "ikil->kl", t)


def test_max_entangled_qubit_entries():
    rho = max_entangled(2)
    assert rho.dims == (2, 2)
    expected = np.zeros((4, 4))
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected[i, j] = 0.5
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)


def test_max_entangled_is_pure_with_uniform_marginals():
    for d in (2, 3, 4):
        rho = max_entangled(d)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)
        for keep in ("A", "B"):
            np.testing.assert_allclose(
                _marginal(rho, keep), np.eye(d) / d, atol=1e-12
            )


def test_isotropic_p0_is_maximally_mixed():
    rho = isotropic(2, 0.0)
    np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)


def test_isotropic_p1_is_max_entangled():
    rho = isotropic(3, 1.0)
    np.testing.assert_allclose(rho.matrix, max_entangled(3).matrix, atol=1e-15)


def test_isotropic_qutrit_spectrum():
    rho = isotropic(3, 0.5)
    dec = eig_hermitian(rho.matrix)
    assert len(dec.eigenvalues) == 2
    assert dec.eigenvalues[0] == pytest.approx(1 / 18 + 0.5, abs=1e-12)
    assert dec.eigenvalues[1] == pytest.approx(1 / 18, abs=1e-12)
    ranks = [round(np.trace(p).real) for p in dec.projectors]
    assert ranks == [1, 8]


def test_isotropic_marginals_are_maximally_mixed():
    rho = isotropic(3, 0.7)
    for keep in ("A", "B"):
        np.testing.assert_allclose(
            _marginal(rho, keep), np.eye(3) / 3, atol=1e-12
        )


def test_isotropic_params_validation():
    with pytest.raises(InvalidStateError, match=r"d must be an integer >= 2, got 1$"):
        isotropic(1, 0.5)
    with pytest.raises(InvalidStateError, match=r"d must be an integer >= 2, got 2.5$"):
        isotropic(2.5, 1.2)  # d is checked before p
    with pytest.raises(InvalidStateError, match=r"p must lie in \[0, 1\], got -0.1$"):
        isotropic(2, -0.1)
    with pytest.raises(InvalidStateError, match=r"p must lie in \[0, 1\], got 1.2$"):
        isotropic(2, 1.2)


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([1.0, 0.0]), dims=(3,))
    with pytest.raises(InvalidStateError):  # trace 0
        DensityMatrix(np.diag([1.0, -1.0]), dims=(2,))
    with pytest.raises(InvalidStateError):  # not Hermitian
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]), dims=(2,))
    with pytest.raises(InvalidStateError):  # dims product mismatch
        DensityMatrix(np.eye(4) / 4, dims=(2, 3))


def test_density_matrix_is_immutable():
    rho = max_entangled(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_validate_flags_negative_eigenvalue():
    # in the second, -4e-9 lies within DEGENERACY_TOL of 5e-9: merged into
    # one outcome they would average to 5e-10 and pass
    for diag, lowest in (
        ([1.5, -0.5], -0.5),
        ([0.6, 0.4 - 1e-9, -4e-9, 5e-9], -4e-9),
    ):
        m = np.diag(diag).astype(complex)
        info = state_diagnostics(m)
        assert not info["valid"]
        assert "eigenvalue" in info["reason"]
        assert info["min_eigenvalue"] == pytest.approx(lowest, abs=1e-12)
        with pytest.raises(InvalidStateError):
            validate(m)


def test_validate_flags_wrong_trace():
    m = np.diag([1.0, 0.0, -1.0]).astype(complex)  # sigma-z style, trace 0
    info = state_diagnostics(m)
    assert not info["valid"]
    with pytest.raises(InvalidStateError):
        validate(m)


def test_validate_accepts_valid_state():
    info = state_diagnostics(np.eye(3) / 3)
    assert info["valid"]
    assert info["reason"] is None
    assert info["min_eigenvalue"] == pytest.approx(1 / 3, abs=1e-12)
    validate(np.eye(3) / 3, dims=(3,))


def test_json_round_trip_exact(rng):
    rho = random_bipartite(rng, 2, 3)
    blob = json.dumps(state_to_json(rho))
    back = state_from_json(json.loads(blob))
    assert back.dims == rho.dims
    np.testing.assert_array_equal(back.matrix, rho.matrix)


def test_state_from_json_rejects_malformed():
    with pytest.raises(InvalidStateError):
        state_from_json({"dims": [2, 2]})
    with pytest.raises(InvalidStateError):
        state_from_json({"dims": [2], "matrix": [[[0.5, 0]]]})


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 4),
    p=st.floats(0.0, 1.0, allow_nan=False),
)
def test_isotropic_is_always_a_valid_state(d, p):
    rho = isotropic(d, p)
    validate(rho.matrix, dims=(d, d))
    assert state_diagnostics(rho.matrix)["valid"]
