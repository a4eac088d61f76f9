"""The built-in test families, one preset row each.

A preset is a family name with its local dimension d, the labels of Bob's
observable pair and a constructor for that pair; the family's states are
the isotropic states of dimension d, measured with the default transpose
pairing. Adding a family is adding a row to _PRESETS.

"qubit-xz": d = 2 isotropic states probed with the spin pair (Sx, Sz).
"qutrit-b1b2": d = 3 isotropic states probed with the qutrit pair (B1, B2).

Each family is compiled once per process, on its first family_moments
call, into its MeasurementSettings (one ten-operator eigensolve) and the
packed (T, A, B, 2) tables of its two validated end states p = 0 and p = 1.
Together they hold about 27 KB for the qubit family and 129 KB for the
qutrit one (tracemalloc), and every array in them that a later call reads is
read-only, so no caller can change what the next one sees.
family_observables and family_state still build fresh objects on every
call.
"""

from __future__ import annotations

import functools

import numpy as np

from .inference import InferredMoments, MeasurementSettings, mixed_moments
from .observables import Observable, qutrit_triplet, spin_half
from .states import DensityMatrix, isotropic


FAMILY_QUBIT_XZ = "qubit-xz"
FAMILY_QUTRIT_B1B2 = "qutrit-b1b2"

# name -> (local dimension, labels of Bob's pair, Bob's observable pair);
# the pair is built anew on every family_observables call, and once more
# per process when the family is compiled (_compiled)
_PRESETS = {
    FAMILY_QUBIT_XZ: (2, ("Sx", "Sz"), lambda: (spin_half("x"), spin_half("z"))),
    FAMILY_QUTRIT_B1B2: (3, ("B1", "B2"), lambda: qutrit_triplet()[:2]),
}
FAMILIES = tuple(_PRESETS)


class FamilyError(ValueError):
    """Unknown family name or unsupported dimension."""


def _preset(family: str) -> tuple:
    if family not in _PRESETS:
        raise FamilyError(f"unknown family {family!r} (expected one of {FAMILIES})")
    return _PRESETS[family]


def family_for_dimension(d: int) -> str:
    for name, (dim, _, _) in _PRESETS.items():
        if dim == d:
            return name
    raise FamilyError(f"no built-in family for local dimension {d}")


def family_observables(family: str) -> tuple[Observable, Observable]:
    return _preset(family)[2]()


def family_state(family: str, p: float) -> DensityMatrix:
    return isotropic(_preset(family)[0], float(p))


def family_descriptor(family: str, p: float) -> str:
    d, (b1, b2), _ = _preset(family)
    return f"isotropic(d={d}, p={p:.12g}); observables=({b1},{b2})"


@functools.cache
def _compiled(family: str) -> tuple[MeasurementSettings, np.ndarray]:
    """The family's settings and read-only packed (T, A, B, 2) end-state
    tables, built on their first use in the process.

    An unknown name raises FamilyError, and a raise is not cached, so the
    cache holds at most one entry per _PRESETS row.
    """
    settings = MeasurementSettings.build(*family_observables(family))
    ends = (family_state(family, 0.0), family_state(family, 1.0))
    stack = settings.packed_tables(np.stack([rho.matrix for rho in ends]))
    stack.setflags(write=False)
    return settings, stack


def family_moments(family: str, ps) -> InferredMoments:
    """InferredMoments at the p values ps, one (N,) array per field.

    A float p gives the float record, row 0 of the batch of one [p].
    rho(p) = (1 - p) rho(0) + p rho(1) and every table cell is linear in rho,
    so the tables at p are that mix of the tables of the two end states,
    contracted once per process into one packed stack (_compiled). No per-p
    state is built, but a p outside [0, 1] raises the InvalidStateError that
    family_state raises for it.
    """
    settings, ends = _compiled(family)
    w = np.asarray(ps, dtype=float)
    outside = ~((0.0 <= w) & (w <= 1.0))
    if outside.any():
        family_state(family, w[outside][0])  # raises for this p
    moments = mixed_moments(settings, ends, w.reshape(-1))
    return moments.row(0) if w.ndim == 0 else moments
