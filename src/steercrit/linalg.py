"""Dense complex linear algebra for small Hermitian problems.

Everything operates on square numpy arrays with complex entries and never
mutates its arguments. The eigensolver is a cyclic Jacobi iteration: simple,
robust and entirely adequate for the dimensions this package deals with
(<= ~16). Validation thresholds use the max-absolute-entry norm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import DEGENERACY_TOL, HERMITICITY_TOL


_JACOBI_MAX_SWEEPS = 100
_JACOBI_OFFDIAG_TOL = 1e-14


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
    Infinity are rejected rather than converted.
    """
    try:
        arr = np.asarray(rows)
    except (TypeError, ValueError) as exc:
        raise LinalgError(f"bad matrix JSON: {exc}") from None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise LinalgError("matrix JSON entries must be finite numbers")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise LinalgError("matrix JSON must be a square grid of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (strictly descending, degeneracies merged) with projectors.

    Each projector spans the full eigenspace of its eigenvalue, so the list
    satisfies sum(P) = I, P_i P_j = delta_ij P_i and sum(lambda_i P_i)
    reconstructs the source matrix.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]


def _max_offdiag(a: np.ndarray) -> float:
    b = np.abs(a).copy()
    np.fill_diagonal(b, 0.0)
    return float(b.max())


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Apply one complex Jacobi rotation zeroing a[p, q] (and a[q, p])."""
    apq = a[p, q]
    r = abs(apq)
    phase = apq / r
    theta = 0.5 * math.atan2(2.0 * r, a[q, q].real - a[p, p].real)
    c = math.cos(theta)
    s = math.sin(theta) * phase

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - np.conj(s) * col_q
    a[:, q] = s * col_p + c * col_q

    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = np.conj(s) * row_p + c * row_q

    # analytically zero after the rotation; enforce to stop roundoff creep
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    col_p = v[:, p].copy()
    col_q = v[:, q].copy()
    v[:, p] = c * col_p - np.conj(s) * col_q
    v[:, q] = s * col_p + c * col_q


def _jacobi_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors-as-columns), unsorted.
    """
    n = m.shape[0]
    a = np.array(m, dtype=complex)
    v = np.eye(n, dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real]), v
    # threshold scaled by the largest initial entry so convergence is
    # insensitive to an overall rescaling of the input
    stop = _JACOBI_OFFDIAG_TOL * max(1.0, max_abs(a))
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _max_offdiag(a) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > stop:
                    _rotate(a, v, p, q)
    else:
        raise LinalgError(
            f"Jacobi iteration did not converge in {_JACOBI_MAX_SWEEPS} sweeps"
        )
    return np.real(np.diag(a)), v


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

    evals, vecs = _jacobi_eigh(m)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    vecs = vecs[:, order]

    groups: list[list[int]] = [[0]]
    for i in range(1, evals.size):
        if evals[groups[-1][-1]] - evals[i] < DEGENERACY_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])

    eigenvalues = []
    projectors = []
    for grp in groups:
        cols = vecs[:, grp]
        proj = cols @ cols.conj().T
        proj.setflags(write=False)
        eigenvalues.append(float(np.mean(evals[grp])))
        projectors.append(proj)
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors))
