"""Hermitian observables, their measurement semantics, and pairings.

An Observable owns its spectral decomposition (computed lazily and cached,
or filled together with others' by decompose).
An ObservablePairing fixes which operator the remote party (Alice) measures
when estimating a local (Bob) observable; the default convention pairs each
Bob operator with its entrywise transpose, the unique choice that maximizes
<A tensor B> on the maximally entangled state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    LinalgError,
    SpectralDecomposition,
    as_matrix,
    eig_hermitian,
    hermitian_residual,
    matrix_from_json,
    matrix_to_json,
)


@dataclass(frozen=True, eq=False)
class Observable:
    """A labeled Hermitian operator with cached spectral decomposition."""

    label: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_matrix(self.matrix)
        residual, bad = hermitian_residual(m)
        if bad:
            raise LinalgError(
                f"observable {self.label!r} is not Hermitian "
                f"(residual {residual:.3e})"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectral(self) -> SpectralDecomposition:
        return eig_hermitian(self.matrix)

    @property
    def outcomes(self) -> tuple[float, ...]:
        return self.spectral.eigenvalues

    def transpose(self) -> "Observable":
        """Entrywise transpose (no conjugation); Hermitian iff self is."""
        return Observable(f"{self.label}^T", self.matrix.T)


def decompose(observables) -> None:
    """Fill the cached spectral decomposition of every observable that lacks
    one, from one stacked eig_hermitian call; all must share a dimension."""
    todo = [obs for obs in observables if "spectral" not in obs.__dict__]
    if todo:
        decs = eig_hermitian(np.stack([obs.matrix for obs in todo]))
        for obs, dec in zip(todo, decs):
            obs.__dict__["spectral"] = dec


@dataclass(frozen=True, eq=False)
class ObservablePairing:
    """Bob's observable together with the Alice observable used to infer it."""

    bob: Observable
    alice: Observable

    def __post_init__(self) -> None:
        if self.bob.dim != self.alice.dim:
            raise LinalgError(
                f"pairing dimension mismatch: bob {self.bob.dim}, "
                f"alice {self.alice.dim}"
            )

    @cached_property
    def projector_products(self) -> np.ndarray:
        """Stack of kron(P_a, Q_b) over all outcome pairs, shape (na, nb, D, D).

        Precomputed once per pairing so that repeated joint-distribution
        evaluations (sweeps) reduce to a single tensor contraction.
        """
        p = np.stack(self.alice.spectral.projectors)
        q = np.stack(self.bob.spectral.projectors)
        d2 = self.alice.dim * self.bob.dim
        # entry [i, j, a, b, c, e] is P_i[a, c] * Q_j[b, e], the one product
        # np.kron(P_i, Q_j) puts at [a * db + b, c * db + e]
        stack = p[:, None, :, None, :, None] * q[None, :, None, :, None, :]
        stack = stack.reshape(len(p), len(q), d2, d2)
        stack.setflags(write=False)
        return stack


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def spin_half(axis: str) -> Observable:
    """Spin-1/2 component sigma_axis / 2, eigenvalues +-1/2."""
    key = str(axis).lower()
    if key not in _PAULI:
        raise LinalgError(f"axis must be x, y or z, got {axis!r}")
    return Observable(f"S{key}", _PAULI[key] / 2.0)


def qutrit_triplet() -> tuple[Observable, Observable, Observable]:
    """The built-in qutrit observables (B1, B2, B3) with [B1, B2] = i B3.

    B1 = diag(1, -1, 0), B2 couples the first two levels with weight 1/sqrt(2),
    and B3 is their commutator partner.
    """
    s = 1.0 / np.sqrt(2.0)
    b1 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    b2 = np.array([[0, s, 0], [s, 0, 0], [0, 0, 0]], dtype=complex)
    b3 = np.array(
        [[0, -1j * np.sqrt(2.0), 0], [1j * np.sqrt(2.0), 0, 0], [0, 0, 0]],
        dtype=complex,
    )
    return (Observable("B1", b1), Observable("B2", b2), Observable("B3", b3))


def commutator_observable(b1: Observable, b2: Observable) -> Observable:
    """B3 = -i (B1 B2 - B2 B1), the Hermitian operator with [B1, B2] = i B3."""
    m = _product(b1, b2)
    return Observable(f"-i[{b1.label},{b2.label}]", -1j * (m - m.conj().T))


def anticommutator_observable(b1: Observable, b2: Observable) -> Observable:
    """B4 = B1 B2 + B2 B1."""
    m = _product(b1, b2)
    return Observable(f"{{{b1.label},{b2.label}}}", m + m.conj().T)


def _product(b1: Observable, b2: Observable) -> np.ndarray:
    """B1 B2; B2 B1 is taken as its conjugate transpose, so the commutator and
    anticommutator built from it are exactly Hermitian at any scale (two
    separate products would leave a roundoff residual of order max|B|^2)."""
    if b1.dim != b2.dim:
        raise LinalgError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    return b1.matrix @ b2.matrix


def difference_observable(b1: Observable, b2: Observable) -> Observable:
    """B0 = B1 - B2, the third setting used by the polarization identity."""
    if b1.dim != b2.dim:
        raise LinalgError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    return Observable(f"{b1.label}-{b2.label}", b1.matrix - b2.matrix)


def default_pairing(bob: Observable) -> ObservablePairing:
    """Pair a Bob observable with its transpose on Alice's side.

    For the maximally entangled state this gives <B^T tensor B> =
    tr(B^dagger B) / d > 0, the maximal correlation any Alice operator with
    the same spectrum can achieve, reproducing perfect-correlation inference.
    """
    return ObservablePairing(bob=bob, alice=bob.transpose())


def explicit_pairing(table: dict[str, Observable]):
    """Pairing rule from an explicit Bob-label -> Alice-observable table."""

    def rule(bob: Observable) -> ObservablePairing:
        if bob.label not in table:
            raise LinalgError(f"no Alice observable supplied for {bob.label!r}")
        return ObservablePairing(bob=bob, alice=table[bob.label])

    return rule


def observable_to_json(obs: Observable) -> dict:
    """Serialize to {"label": ..., "matrix": [[[re, im], ...], ...]}."""
    return {"label": obs.label, "matrix": matrix_to_json(obs.matrix)}


def observable_from_json(obj: dict) -> Observable:
    if not isinstance(obj, dict) or "label" not in obj or "matrix" not in obj:
        raise LinalgError('observable JSON needs "label" and "matrix" keys')
    return Observable(str(obj["label"]), matrix_from_json(obj["matrix"]))
