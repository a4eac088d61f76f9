"""Validated density matrices and the isotropic state family.

The isotropic family mixes white noise with the maximally entangled state:
rho(d, p) = (1 - p) I / d^2 + p |Psi+><Psi+| with |Psi+> = sum_i |ii> / sqrt(d)
and 0 <= p <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import (
    LinalgError,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    max_abs,
)
from .tolerances import HERMITICITY_TOL, PSD_TOL, TRACE_TOL


class InvalidStateError(ValueError):
    """A matrix failed one of the density-matrix invariants."""


def _check_dims(dims, dim: int) -> tuple[tuple[int, ...], str | None]:
    """Subsystem dims as ints, and why they do not describe a dim x dim matrix.

    The reason is None for [d] or [dA, dB] with positive entries whose
    product is dim. Dims that are not a list of integers are malformed input
    and raise InvalidStateError.
    """
    if not isinstance(dims, (list, tuple)) or not all(
        isinstance(d, Integral) and not isinstance(d, bool) for d in dims
    ):
        raise InvalidStateError(f"bad dims {dims!r}: expected [d] or [dA, dB] of integers")
    dims = tuple(int(d) for d in dims)
    if len(dims) not in (1, 2) or any(d < 1 for d in dims):
        return dims, f"bad subsystem dims {dims}"
    if math.prod(dims) != dim:
        return dims, f"dims {dims} do not factor dimension {dim}"
    return dims, None


def _trace_invariants(m: np.ndarray) -> tuple[float, complex, str | None]:
    """Hermiticity residual, trace, and why the first failing one fails.

    The reason is None when both are within their tolerances. This is the
    one copy of these bounds: DensityMatrix and state_diagnostics both judge
    a matrix here, so neither rejects what the other accepts.
    """
    herm = max_abs(m - m.conj().T)
    tr = complex(np.trace(m))
    if herm >= HERMITICITY_TOL:
        return herm, tr, f"not Hermitian (residual {herm:.3e})"
    if abs(tr - 1.0) >= TRACE_TOL:
        return herm, tr, f"trace {tr.real:.12g} is not 1"
    return herm, tr, None


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state with its subsystem structure.

    dims is (dA, dB) for a bipartite state or (d,) for a single system.
    Construction checks shape, hermiticity and unit trace; positivity is the
    job of validate(), which trusted constructors do not need (the spectra of
    max_entangled and isotropic are known in closed form).
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        m = as_matrix(self.matrix)
        dims, problem = _check_dims(self.dims, m.shape[0])
        problem = problem or _trace_invariants(m)[2]
        if problem:
            raise InvalidStateError(problem)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_bipartite(self) -> bool:
        return len(self.dims) == 2


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto |Psi+> = sum_i |ii> / sqrt(d), as a (d, d) state."""
    return isotropic(d, 1.0)


def isotropic(d: int, p: float) -> DensityMatrix:
    """The isotropic state (1 - p) I / d^2 + p |Psi+><Psi+| with
    |Psi+> = sum_i |ii> / sqrt(d), integer d >= 2.

    Spectrum: (1 - p) / d^2 with multiplicity d^2 - 1, and (1 - p) / d^2 + p
    once, so the result is a valid state for every p in [0, 1].
    """
    if int(d) != d or d < 2:
        raise InvalidStateError(f"d must be an integer >= 2, got {d}")
    if not 0.0 <= p <= 1.0:
        raise InvalidStateError(f"p must lie in [0, 1], got {p}")
    d, p = int(d), float(p)
    # entry i * d + i of the flattened identity is |ii>
    vec = np.eye(d, dtype=complex).reshape(-1) * (1.0 / np.sqrt(d))
    noise = np.eye(d * d, dtype=complex) * ((1.0 - p) / (d * d))
    return DensityMatrix(noise + p * np.outer(vec, vec.conj()), (d, d))


def state_diagnostics(m) -> dict:
    """Measure every density-matrix invariant on an arbitrary square matrix."""
    m = as_matrix(m)
    herm, tr, problem = _trace_invariants(m)
    info: dict = {
        "dim": int(m.shape[0]),
        "hermiticity_residual": float(herm),
        "trace_real": float(tr.real),
        "trace_imag": float(tr.imag),
        "min_eigenvalue": None,
        "valid": False,
        "reason": problem,
    }
    if problem:
        return info
    # the smallest eigenvalue itself: eig_hermitian's merged outcomes could
    # average a negative eigenvalue with a positive neighbour
    try:
        lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigensolve failed: {exc}") from None
    info["min_eigenvalue"] = lo
    if lo < -PSD_TOL:
        info["reason"] = f"negative eigenvalue {lo:.3e}"
        return info
    info["valid"] = True
    return info


def validate(m, dims: tuple[int, ...] | None = None) -> DensityMatrix:
    """Full validation (hermiticity, trace, positivity) of an untrusted matrix.

    Returns the DensityMatrix on success and raises InvalidStateError carrying
    the first failed invariant and its measured residual otherwise. When dims
    is omitted the matrix is treated as a single system.
    """
    m = as_matrix(m)
    info = state_diagnostics(m)
    if not info["valid"]:
        raise InvalidStateError(info["reason"])
    return DensityMatrix(m, dims if dims is not None else (m.shape[0],))


def state_to_json(state: DensityMatrix) -> dict:
    """Serialize to {"dims": [...], "matrix": [[[re, im], ...], ...]}."""
    return {
        "dims": [int(d) for d in state.dims],
        "matrix": matrix_to_json(state.matrix),
    }


def _parse_state_json(obj) -> tuple[np.ndarray, tuple[int, ...], str | None]:
    """(matrix, dims, dims problem) of the JSON state format; malformed input raises.

    A state file holds a bipartite state, so single-system dims [d] are a
    problem here.
    """
    if not isinstance(obj, dict) or "dims" not in obj or "matrix" not in obj:
        raise InvalidStateError('state JSON needs "dims" and "matrix" keys')
    try:
        m = matrix_from_json(obj["matrix"])
    except LinalgError as exc:
        raise InvalidStateError(str(exc)) from None
    dims, problem = _check_dims(obj["dims"], m.shape[0])
    if problem is None and len(dims) != 2:
        problem = f"state file dims {dims} are not bipartite [dA, dB]"
    return m, dims, problem


def state_file_diagnostics(obj) -> dict:
    """state_diagnostics of a JSON state, which is invalid if its dims are.

    Raises InvalidStateError when the JSON is malformed (missing keys, a
    matrix that is not a grid of [re, im] pairs, dims that are not integers).
    """
    m, _, problem = _parse_state_json(obj)
    info = state_diagnostics(m)
    info["dims"] = obj["dims"]
    if info["valid"] and problem:
        info.update(valid=False, reason=problem)
    return info


def state_from_json(obj: dict) -> DensityMatrix:
    """Parse and fully validate the JSON state format."""
    m, dims, problem = _parse_state_json(obj)
    try:
        rho = validate(m, dims)
    except LinalgError as exc:
        raise InvalidStateError(str(exc)) from None
    if problem:
        raise InvalidStateError(problem)
    return rho
