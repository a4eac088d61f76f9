"""Dense complex linear algebra for small Hermitian problems.

Everything operates on square numpy arrays with complex entries and never
mutates its arguments. Eigenvalues and eigenvectors come from LAPACK
(np.linalg.eigh); eig_hermitian then merges near-degenerate outcomes.
Validation thresholds use the max-absolute-entry norm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import DEGENERACY_TOL, HERMITICITY_TOL


class LinalgError(ValueError):
    """Malformed matrix input or a failed eigensolve."""


def as_matrix(entries) -> np.ndarray:
    """Coerce input to a square complex matrix, rejecting NaN/Inf entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise LinalgError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise LinalgError("matrix entries must be finite")
    return m


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry, the norm used for all validation thresholds."""
    return float(np.max(np.abs(a)))


def matrix_to_json(m: np.ndarray) -> list:
    """The JSON grid of [re, im] pairs, one row per matrix row."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    """Parse a square JSON grid of [re, im] pairs; LinalgError if malformed.

    Entries must be finite JSON numbers: strings, null, booleans, NaN and
    Infinity are rejected rather than converted. An integer of any size is
    a number; one too large for a double is not finite.
    """
    try:
        arr = np.asarray(rows, dtype=object)
    except (TypeError, ValueError) as exc:
        raise LinalgError(f"bad matrix JSON: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise LinalgError("matrix JSON must be a square grid of [re, im] pairs")
    try:
        # type(), not isinstance(): a JSON boolean is a Python int subclass
        numbers = all(type(x) in (int, float) for x in arr.flat)
        values = arr.astype(float) if numbers else None
    except OverflowError:  # an integer beyond the double range
        values = None
    if values is None or not np.isfinite(values).all():
        raise LinalgError("matrix JSON entries must be finite numbers")
    return values[:, :, 0] + 1j * values[:, :, 1]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (strictly descending, degeneracies merged) with projectors.

    Each projector spans the full eigenspace of its eigenvalue, so the list
    satisfies sum(P) = I, P_i P_j = delta_ij P_i and sum(lambda_i P_i)
    reconstructs the source matrix.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]


def eig_hermitian(a) -> SpectralDecomposition:
    """Spectral decomposition with near-degenerate eigenvalues merged.

    Eigenvalues closer than DEGENERACY_TOL are treated as one measurement outcome and
    share a single projector; the reported value is the group mean. Raises
    LinalgError for non-Hermitian input or on failure to converge.
    """
    m = as_matrix(a)
    residual = max_abs(m - m.conj().T)
    if residual >= HERMITICITY_TOL:
        raise LinalgError(f"matrix is not Hermitian (residual {residual:.3e})")

    # the Hermitian part, so the result does not depend on which triangle
    # LAPACK reads; ascending output is reversed to descending
    try:
        evals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigensolve failed: {exc}") from None
    evals = evals[::-1]
    vecs = vecs[:, ::-1]

    # a new outcome starts wherever an eigenvalue is DEGENERACY_TOL or more
    # below its neighbour
    gaps = evals[:-1] - evals[1:] >= DEGENERACY_TOL
    groups = np.split(np.arange(evals.size), np.flatnonzero(gaps) + 1)

    eigenvalues = []
    projectors = []
    for grp in groups:
        cols = vecs[:, grp]
        proj = cols @ cols.conj().T
        proj.setflags(write=False)
        eigenvalues.append(float(np.mean(evals[grp])))
        projectors.append(proj)
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors))
