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

The closed forms are InferredMoments records. Their var_min slots equal
var_inf (the two estimators coincide on isotropic states, a fact the engine
tests verify) and sq_mean_inf_b0 is filled by the polarization identity
sq1 + sq2 - 2 * product, so each record is self-consistent with its product
slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .criteria import CRITERION_SRUR, CriterionReport, build_report, criterion_sides
from .families import FAMILY_QUBIT_XZ, FAMILY_QUTRIT_B1B2, family_descriptor
from .inference import MODE_LINEAR_G, InferredMoments

__all__ = [
    "MODE_CLOSED_FORM",
    "ClosedFormError",
    "DiffRow",
    "DIFF_SLOTS",
    "qubit_closed_forms",
    "qutrit_closed_forms",
    "closed_forms_for",
    "closed_form_report",
    "diff_rows",
    "write_diff_csv",
]

MODE_CLOSED_FORM = "paper-closed-form"


class ClosedFormError(ValueError):
    """Unknown family or out-of-range parameter."""


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ClosedFormError(f"p must lie in [0, 1], got {p}")
    return p


def qubit_closed_forms(p: float) -> InferredMoments:
    """Closed forms for the qubit (Sx, Sz) pair on isotropic states."""
    p = _check_p(p)
    var = 0.25 * (1.0 - p * p)
    sq = 0.25 * p * p
    product = ((1.0 - 2.0 * math.sqrt(2.0)) * p * p - 1.0) / 16.0
    return InferredMoments(
        var_inf_b1=var,
        var_inf_b2=var,
        var_min_b1=var,
        var_min_b2=var,
        abs_mean_inf_commutator=0.5 * p,
        mean_inf_anticommutator=0.0,
        sq_mean_inf_b1=sq,
        sq_mean_inf_b2=sq,
        sq_mean_inf_b0=2.0 * sq - 2.0 * product,
        product_of_means_inf=product,
        g1=p,
        g2=p,
    )


def qutrit_closed_forms(p: float) -> InferredMoments:
    """Closed forms for the qutrit (B1, B2) pair on isotropic states."""
    p = _check_p(p)
    p2 = p * p
    sq1 = 2.0 * p2 / 27.0
    sq2 = p2 / 27.0
    product = -p2 / 36.0
    return InferredMoments(
        var_inf_b1=(2.0 / 3.0) * (1.0 - p2),
        var_inf_b2=(1.0 / 3.0) * (1.0 - p2),
        var_min_b1=(2.0 / 3.0) * (1.0 - p2),
        var_min_b2=(1.0 / 3.0) * (1.0 - p2),
        abs_mean_inf_commutator=p / math.sqrt(27.0),
        mean_inf_anticommutator=0.0,
        sq_mean_inf_b1=sq1,
        sq_mean_inf_b2=sq2,
        sq_mean_inf_b0=sq1 + sq2 - 2.0 * product,
        product_of_means_inf=product,
        g1=p,
        g2=p,
    )


def closed_forms_for(family: str, p: float) -> InferredMoments:
    if family == FAMILY_QUBIT_XZ:
        return qubit_closed_forms(p)
    if family == FAMILY_QUTRIT_B1B2:
        return qutrit_closed_forms(p)
    raise ClosedFormError(f"no closed forms for family {family!r}")


def closed_form_report(
    family: str, p: float, criterion: str = CRITERION_SRUR
) -> CriterionReport:
    """Assemble the criterion from closed-form moments, mode-tagged.

    The closed-form lhs is the var_inf product, the linear-g lhs.
    """
    moments = closed_forms_for(family, p)
    lhs, rhs = criterion_sides(moments, criterion, MODE_LINEAR_G)
    return build_report(
        criterion, MODE_CLOSED_FORM, lhs, rhs, moments, family_descriptor(family, p)
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
