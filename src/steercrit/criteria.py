"""Steering criteria built from inferred moments.

The SRUR criterion bounds the product of inferred variances by an inferred
commutator term plus an inferred covariance term,

    lhs = D2_inf(B1) * D2_inf(B2)
    rhs = 1/4 * (|<[B1,B2]>|_inf)^2
        + (1/2 * <{B1,B2}>_inf - (<B1><B2>)_inf)^2,

and a negative margin (lhs < rhs) certifies steering. The HUR baseline keeps
only the commutator term, so rhs_hur <= rhs_srur always: every HUR violation
is an SRUR violation but not conversely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inference import (
    MODE_CONDITIONAL_MEAN,
    MODE_LINEAR_G,
    InferenceError,
    InferredMoments,
    expectation,
    full_moments,
)
from .observables import (
    Observable,
    anticommutator_observable,
    commutator_observable,
    default_pairing,
)
from .states import DensityMatrix


CRITERION_SRUR = "srur"
CRITERION_HUR = "hur"


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """One criterion evaluation: bound sides and all moments.

    The margin lhs - rhs and the violated flag are derived from the sides.
    """

    criterion: str
    mode: str
    lhs: float
    rhs: float
    moments: InferredMoments
    state_descriptor: str

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def violated(self) -> bool:
        # the flag is the exact sign; tolerance policy belongs to callers
        return self.margin < 0.0

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "mode": self.mode,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "margin": float(self.margin),
            "violated": bool(self.violated),
            "moments": self.moments.as_dict(),
            "state_descriptor": self.state_descriptor,
        }


def srur_rhs(moments: InferredMoments) -> float:
    comm = 0.25 * moments.abs_mean_inf_commutator ** 2
    cov = 0.5 * moments.mean_inf_anticommutator - moments.product_of_means_inf
    return comm + cov * cov


def hur_rhs(moments: InferredMoments) -> float:
    return 0.25 * moments.abs_mean_inf_commutator ** 2


def criterion_sides(moments, criterion: str, mode: str):
    """(lhs, rhs) of one criterion in one engine mode.

    A record of floats gives floats; a record of (N,) arrays gives (N,)
    arrays, computed row by row.
    """
    if criterion not in (CRITERION_SRUR, CRITERION_HUR):
        raise InferenceError(f"unknown criterion {criterion!r}")
    if mode == MODE_LINEAR_G:
        lhs = moments.var_inf_b1 * moments.var_inf_b2
    elif mode == MODE_CONDITIONAL_MEAN:
        lhs = moments.var_min_b1 * moments.var_min_b2
    else:
        raise InferenceError(f"unknown engine mode {mode!r}")
    rhs = srur_rhs(moments) if criterion == CRITERION_SRUR else hur_rhs(moments)
    return lhs, rhs


def evaluate_criterion(
    rho: DensityMatrix,
    b1: Observable,
    b2: Observable,
    pairing_rule=default_pairing,
    mode: str = MODE_LINEAR_G,
    criterion: str = CRITERION_SRUR,
    state_descriptor: str | None = None,
) -> CriterionReport:
    """Evaluate one criterion on one state."""
    moments = full_moments(rho, b1, b2, pairing_rule)
    if state_descriptor is None:
        state_descriptor = f"dims={rho.dims}; observables=({b1.label},{b2.label})"
    lhs, rhs = criterion_sides(moments, criterion, mode)
    return CriterionReport(criterion, mode, lhs, rhs, moments, state_descriptor)


def evaluate_srur(
    rho: DensityMatrix,
    b1: Observable,
    b2: Observable,
    pairing_rule=default_pairing,
    mode: str = MODE_LINEAR_G,
    state_descriptor: str | None = None,
) -> CriterionReport:
    return evaluate_criterion(
        rho, b1, b2, pairing_rule, mode, CRITERION_SRUR, state_descriptor
    )


def variance(rho: DensityMatrix, obs: Observable) -> float:
    """Plain variance <B^2> - <B>^2 on a single-system state."""
    mean = expectation(rho, obs.matrix)
    mean_sq = expectation(rho, obs.matrix @ obs.matrix)
    return max(0.0, mean_sq - mean * mean)


def uncertainty_terms(
    rho: DensityMatrix, b1: Observable, b2: Observable
) -> tuple[float, float]:
    """(lhs, rhs) of the uncertainty relation on a single system.

    lhs = Var(B1) Var(B2); rhs = 1/4 <-i[B1,B2]>^2 + (1/2 <{B1,B2}> -
    <B1><B2>)^2. lhs >= rhs holds for every state, which the test suite
    asserts on randomized inputs; steering criteria replace each term by its
    inferred counterpart.
    """
    lhs = variance(rho, b1) * variance(rho, b2)
    comm = expectation(rho, commutator_observable(b1, b2).matrix)
    anti = expectation(rho, anticommutator_observable(b1, b2).matrix)
    mean1 = expectation(rho, b1.matrix)
    mean2 = expectation(rho, b2.matrix)
    rhs = 0.25 * comm * comm + (0.5 * anti - mean1 * mean2) ** 2
    return lhs, rhs
