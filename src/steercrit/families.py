"""The built-in test families, one preset row each.

A preset is a family name with its local dimension d and a constructor for
Bob's observable pair; the family's states are the isotropic states of
dimension d, measured with the default transpose pairing. Adding a family
is adding a row to _PRESETS.

"qubit-xz": d = 2 isotropic states probed with the spin pair (Sx, Sz).
"qutrit-b1b2": d = 3 isotropic states probed with the qutrit pair (B1, B2).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .inference import InferredMoments, MeasurementSettings, mixed_moments
from .observables import Observable, qutrit_triplet, spin_half
from .states import DensityMatrix, isotropic


FAMILY_QUBIT_XZ = "qubit-xz"
FAMILY_QUTRIT_B1B2 = "qutrit-b1b2"

# name -> (local dimension, Bob's observable pair); the pair is built anew
# on every call, so no family state is kept per process
_PRESETS = {
    FAMILY_QUBIT_XZ: (2, lambda: (spin_half("x"), spin_half("z"))),
    FAMILY_QUTRIT_B1B2: (3, lambda: qutrit_triplet()[:2]),
}
FAMILIES = tuple(_PRESETS)


class FamilyError(ValueError):
    """Unknown family name or unsupported dimension."""


def _preset(family: str) -> tuple:
    if family not in _PRESETS:
        raise FamilyError(f"unknown family {family!r} (expected one of {FAMILIES})")
    return _PRESETS[family]


def family_for_dimension(d: int) -> str:
    for name, (dim, _) in _PRESETS.items():
        if dim == int(d):
            return name
    raise FamilyError(f"no built-in family for local dimension {d}")


def family_observables(family: str) -> tuple[Observable, Observable]:
    return _preset(family)[1]()


def family_state(family: str, p: float) -> DensityMatrix:
    return isotropic(_preset(family)[0], float(p))


def family_descriptor(family: str, p: float) -> str:
    d, observables = _preset(family)
    b1, b2 = observables()
    return f"isotropic(d={d}, p={p:.12g}); observables=({b1.label},{b2.label})"


def family_moments(family: str) -> Callable[[np.ndarray], InferredMoments]:
    """p values -> InferredMoments, one (N,) array per field, at those p.

    rho(p) = (1 - p) rho(0) + p rho(1) and every table cell is linear in rho,
    so the tables at p are that mix of the tables of the two end states,
    contracted once here into one packed stack. No per-p state is built, but a p
    outside [0, 1] raises the InvalidStateError that family_state raises
    for it.
    """
    settings = MeasurementSettings.build(*family_observables(family))
    ends = (family_state(family, 0.0), family_state(family, 1.0))
    stack = settings.packed_tables(np.stack([rho.matrix for rho in ends]))

    def moments_at(ps) -> InferredMoments:
        w = np.asarray(ps, dtype=float)
        outside = ~((0.0 <= w) & (w <= 1.0))
        if outside.any():
            family_state(family, w[outside][0])  # raises for this p
        return mixed_moments(settings, stack, w, ends[0].dim)

    return moments_at
