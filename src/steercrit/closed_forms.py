"""Published closed-form moments for the two built-in families.

These are the analytic inferred-moment expressions for the isotropic
families as functions of the mixing weight p, encoded verbatim so the
printed detection thresholds (p* = 0.56 for the qubit pair, p* = 0.900 for
the qutrit pair) are reproducible exactly. They are deliberately NOT forced
to agree with the first-principles engine: where the two differ, the diff
report surfaces the gap instead of hiding it. Known differences on file:

* qubit product-of-means: the closed form is ((1 - 2 sqrt 2) p^2 - 1) / 16,
  nonzero at p = 0, whereas the engine's three-setting polarization
  construction gives exactly 0 for all p for this pair;
* the qutrit squared-mean and commutator slots are smaller than the engine's
  conditional-mean values by fixed rational factors.

The qubit commutator slot has no published closed form; it is set to
(p / 2)^2, the value implied by -i[Sx, Sz] = -Sy under perfectly correlating
pairing, which is the unique assignment reproducing the 0.56 crossing.

The closed forms are InferredMoments records: a float p gives floats, an
array of p gives an (N,) array per field, element for element the same
arithmetic. Each family states only its published slots; one helper
derives the rest for both. The var_min slots equal var_inf (the two
estimators coincide on isotropic states, a fact the engine tests verify)
and sq_mean_inf_b0 is filled by the polarization identity
sq1 + sq2 - 2 * product, so each record is self-consistent with its product
slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import CRITERION_SRUR, CriterionReport, criterion_sides
from .families import FAMILY_QUBIT_XZ, FAMILY_QUTRIT_B1B2, family_descriptor
from .inference import MODE_LINEAR_G, InferredMoments


MODE_CLOSED_FORM = "paper-closed-form"


class ClosedFormError(ValueError):
    """Unknown family or out-of-range parameter."""


def _check_p(p):
    """p as a float, or a sequence of p as a float array; all in [0, 1]."""
    p = np.asarray(p, dtype=float)
    outside = ~((0.0 <= p) & (p <= 1.0))
    if outside.any():
        raise ClosedFormError(f"p must lie in [0, 1], got {p[outside][0]}")
    return float(p) if p.ndim == 0 else p


def _fill_derived(p, var_inf, commutator, sq_mean_inf, product) -> InferredMoments:
    """The record of the published slots, var_inf and sq_mean_inf as (B1, B2).

    The other slots are derived: var_min equals var_inf, g is p, the
    anticommutator mean is a zero shaped like p (abs keeps it +0.0 at
    p = -0.0), and sq_mean_inf_b0 is sq1 + sq2 - 2 * product.
    """
    (var1, var2), (sq1, sq2) = var_inf, sq_mean_inf
    return InferredMoments(
        var_inf_b1=var1,
        var_inf_b2=var2,
        var_min_b1=var1,
        var_min_b2=var2,
        abs_mean_inf_commutator=commutator,
        mean_inf_anticommutator=abs(0.0 * p),
        sq_mean_inf_b1=sq1,
        sq_mean_inf_b2=sq2,
        sq_mean_inf_b0=sq1 + sq2 - 2.0 * product,
        product_of_means_inf=product,
        g1=p,
        g2=p,
    )


def qubit_closed_forms(p) -> InferredMoments:
    """Closed forms for the qubit (Sx, Sz) pair on isotropic states at p."""
    p = _check_p(p)
    var = 0.25 * (1.0 - p * p)
    sq = 0.25 * p * p
    product = ((1.0 - 2.0 * math.sqrt(2.0)) * p * p - 1.0) / 16.0
    return _fill_derived(p, (var, var), 0.5 * p, (sq, sq), product)


def qutrit_closed_forms(p) -> InferredMoments:
    """Closed forms for the qutrit (B1, B2) pair on isotropic states at p."""
    p = _check_p(p)
    p2 = p * p
    var = ((2.0 / 3.0) * (1.0 - p2), (1.0 / 3.0) * (1.0 - p2))
    sq = (2.0 * p2 / 27.0, p2 / 27.0)
    return _fill_derived(p, var, p / math.sqrt(27.0), sq, -p2 / 36.0)


# family name -> its published closed forms
_CLOSED_FORMS = {
    FAMILY_QUBIT_XZ: qubit_closed_forms,
    FAMILY_QUTRIT_B1B2: qutrit_closed_forms,
}


def closed_forms_for(family: str, p) -> InferredMoments:
    """The family's closed forms at a float p, or at an array of p."""
    if family not in _CLOSED_FORMS:
        raise ClosedFormError(f"no closed forms for family {family!r}")
    return _CLOSED_FORMS[family](p)


def closed_form_report(
    family: str, p: float, criterion: str = CRITERION_SRUR
) -> CriterionReport:
    """Assemble the criterion from closed-form moments, mode-tagged.

    The closed-form lhs is the var_inf product, the linear-g lhs. p is
    evaluated as a grid of one, so the report equals a sweep row at p bit
    for bit.
    """
    moments = closed_forms_for(family, [p])
    lhs, rhs = criterion_sides(moments, criterion, MODE_LINEAR_G)
    return CriterionReport(
        criterion, MODE_CLOSED_FORM, float(lhs[0]), float(rhs[0]), moments.row(0),
        family_descriptor(family, p),
    )


# slots the closed forms actually state (plus the documented commutator
# assignment); var_min/g/sq_mean_b0 are derived fillers and are not diffed
DIFF_SLOTS = (
    "var_inf_b1",
    "var_inf_b2",
    "abs_mean_inf_commutator",
    "mean_inf_anticommutator",
    "sq_mean_inf_b1",
    "sq_mean_inf_b2",
    "product_of_means_inf",
)


@dataclass(frozen=True)
class DiffRow:
    p: float
    slot: str
    engine_value: float
    paper_value: float
    abs_diff: float


def diff_rows(family: str, p: float, engine: InferredMoments) -> list[DiffRow]:
    """Engine-vs-closed-form comparison, one row per stated slot.

    engine holds the first-principles moments of the family's isotropic state
    at p; no slot is asserted equal, the report only measures.
    """
    closed = closed_forms_for(family, p)
    rows = []
    for slot in DIFF_SLOTS:
        ev = float(getattr(engine, slot))
        pv = float(getattr(closed, slot))
        rows.append(DiffRow(p=p, slot=slot, engine_value=ev, paper_value=pv,
                            abs_diff=abs(ev - pv)))
    return rows


def write_diff_csv(fileobj, rows: list[DiffRow]) -> None:
    """CSV with header p,slot,engine_value,paper_value,abs_diff."""
    fileobj.write("p,slot,engine_value,paper_value,abs_diff\n")
    for row in rows:
        fileobj.write(
            f"{row.p:.12g},{row.slot},{row.engine_value:.12g},"
            f"{row.paper_value:.12g},{row.abs_diff:.12g}\n"
        )
