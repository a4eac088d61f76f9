"""Sweeps over the mixing weight p and threshold localization by bisection.

A criterion's margin on the built-in families is positive at p = 0 and
negative at p = 1; the threshold is the sign change. The finder pre-sweeps a
coarse grid so a non-monotone margin is caught (reported as multi_crossing
and resolved to the smallest crossing), then bisects deterministically. A
family search evaluates the midpoints of the next _TREE_DEPTH bisection
steps in one batched call and walks them: at the default tol that is 6
calls instead of 27, with the result of a one-point-at-a-time bisection.

Every mode evaluates a whole grid of p in one vectorised pass: the engine
modes through families.family_moments, the closed-form mode through
closed_forms.closed_forms_for, and a sweep keeps the grid's p, lhs, rhs and
margin as four (N,) columns. The engine evaluator takes a single p as a
grid of one, and the closed forms take the same IEEE operations on a float
p as on a grid, so a sweep point and the evaluator at the same p agree bit
for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_forms import closed_form_report, closed_forms_for
from .criteria import (
    CRITERIA,
    CRITERION_SRUR,
    MODES,
    CriterionReport,
    criterion_sides,
)
from .families import (
    FAMILIES,
    FamilyError,
    family_descriptor,
    family_for_dimension,
    family_moments,
)
from .inference import MODE_CLOSED_FORM, MODE_LINEAR_G


DEFAULT_TOL = 1e-9
# a sweep holds its p, lhs, rhs and margin columns, every point's moments
# and its CSV text at once; the tables are reduced inference.BATCH_CHUNK
# points at a time
MAX_SWEEP_STEPS = 1_000_000
_BISECT_MAX_ITER = 60
_PRE_SWEEP_POINTS = 32
# bisection steps evaluated per batched call: 2**depth - 1 midpoints
_TREE_DEPTH = 6


class ThresholdError(RuntimeError):
    """No usable sign change of the margin on [0, 1]."""


@dataclass(frozen=True, eq=False)
class SweepResult:
    """One read-only (N,) column per quantity, indexed by grid point."""

    p: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray

    @property
    def violated(self) -> np.ndarray:
        return self.margin < 0.0


@dataclass(frozen=True)
class ThresholdResult:
    """p_star is the midpoint of the final bracket (lo, hi).

    evaluations counts the pre-sweep plus the margins on the bisection
    path, p_star included; speculative midpoints off the path are not
    counted.
    """

    p_star: float
    bracket: tuple[float, float]
    evaluations: int
    margin_at_p_star: float
    multi_crossing: bool

    def to_json_dict(self) -> dict:
        return {
            "p_star": float(self.p_star),
            "bracket": [float(self.bracket[0]), float(self.bracket[1])],
            "evaluations": int(self.evaluations),
            "margin_at_p_star": float(self.margin_at_p_star),
            "multi_crossing": bool(self.multi_crossing),
        }


def resolve_family(family: str, d: int | None = None) -> str:
    """Accept either a family name or ("isotropic", d)."""
    if family in FAMILIES:
        return family
    if family == "isotropic":
        if d is None:
            raise FamilyError("family 'isotropic' needs a local dimension d")
        return family_for_dimension(d)
    raise FamilyError(f"unknown family {family!r}")


def _check_config(criterion: str, mode: str) -> None:
    if criterion not in CRITERIA:
        raise FamilyError(f"unknown criterion {criterion!r}")
    if mode not in MODES:
        raise FamilyError(f"unknown mode {mode!r}")


def _family_sides(family: str, criterion: str, mode: str) -> Callable:
    """p values -> (lhs, rhs) arrays for one family/criterion/mode."""
    _check_config(criterion, mode)
    if mode == MODE_CLOSED_FORM:
        moments_at = functools.partial(closed_forms_for, family)
    else:
        moments_at = family_moments(family)
    return lambda ps: criterion_sides(moments_at(ps), criterion, mode)


def family_evaluator(
    family: str, criterion: str = CRITERION_SRUR, mode: str = MODE_LINEAR_G
) -> Callable[[float], CriterionReport]:
    """p -> CriterionReport for one family/criterion/mode combination.

    Engine modes compile the family's tables once up front and evaluate each
    p as a batch of one, so the evaluator is pure.
    """
    _check_config(criterion, mode)
    if mode == MODE_CLOSED_FORM:
        return lambda p: closed_form_report(family, p, criterion)
    moments_at = family_moments(family)
    return lambda p: CriterionReport(
        criterion, mode, moments_at([p]).row(0), family_descriptor(family, p)
    )


def sweep(
    family: str,
    d: int | None = None,
    criterion: str = CRITERION_SRUR,
    mode: str = MODE_LINEAR_G,
    p_start: float = 0.0,
    p_end: float = 1.0,
    steps: int = 101,
) -> SweepResult:
    """Evaluate the criterion on a uniform inclusive grid of p values.

    The grid is evaluated in one vectorised single-threaded pass, and the
    result holds its p, lhs, rhs and margin as read-only (N,) arrays.
    """
    if not (0.0 <= p_start < p_end <= 1.0):
        raise FamilyError(
            f"need 0 <= p_start < p_end <= 1, got [{p_start}, {p_end}]"
        )
    # the range test first: int() of NaN or infinity raises
    if not 2 <= steps <= MAX_SWEEP_STEPS or int(steps) != steps:
        raise FamilyError(
            f"steps must be an integer in [2, {MAX_SWEEP_STEPS}], got {steps}"
        )
    sides = _family_sides(resolve_family(family, d), criterion, mode)
    grid = np.linspace(p_start, p_end, int(steps))
    lhs, rhs = sides(grid)
    columns = (grid, lhs, rhs, lhs - rhs)
    for column in columns:
        column.setflags(write=False)
    return SweepResult(*columns)


def _midpoint_tree(lo: float, hi: float, depth: int) -> list:
    """The midpoints the next depth bisection steps from [lo, hi] can visit.

    Heap order: node k's children are 2k + 1 (margin > 0, so lo = mid) and
    2k + 2 (hi = mid). Each is 0.5 * (lo + hi) of its node's bracket, the
    value the sequential step computes.
    """
    brackets = [(lo, hi)]
    mids = []
    while len(mids) < 2**depth - 1:
        a, b = brackets[len(mids)]
        mid = 0.5 * (a + b)
        mids.append(mid)
        brackets += [(mid, b), (a, mid)]
    return mids


def _bisect(
    margins: Callable[[list], list], tol: float, depth: int = _TREE_DEPTH
) -> ThresholdResult:
    """Pre-sweep a coarse grid, then bisect its first crossing.

    margins maps a sequence of p to the list of their margins. The bisection
    evaluates the midpoints of the next depth steps in one call and then
    walks them: step by step it has the sequential loop's brackets, stop
    test and iteration cap, and p_star, the midpoint of the final bracket,
    is a tree node too. Only the nodes on that path count as evaluations;
    at depth 1 they are the only points evaluated.
    """
    if not math.isfinite(tol) or tol <= 0.0:
        raise ThresholdError(f"tolerance must be positive and finite, got {tol}")
    grid = np.linspace(0.0, 1.0, _PRE_SWEEP_POINTS)
    pre = margins(grid)
    evaluations = len(pre)
    if not pre[0] > 0.0:
        raise ThresholdError(
            f"margin at p=0 is {pre[0]:.6g}; the criterion is already "
            "violated at p=0, no threshold to find"
        )
    if not pre[-1] < 0.0:
        raise ThresholdError(
            f"margin at p=1 is {pre[-1]:.6g}; no sign change on [0, 1], "
            "the criterion is never violated"
        )
    positive = [m > 0.0 for m in pre]
    crossings = [
        i for i in range(len(grid) - 1) if positive[i] != positive[i + 1]
    ]
    lo, hi = float(grid[crossings[0]]), float(grid[crossings[0] + 1])

    steps = 0
    while True:
        mids = _midpoint_tree(lo, hi, depth)
        values = margins(mids)
        k = 0
        while k < len(mids):
            evaluations += 1
            if steps == _BISECT_MAX_ITER or hi - lo <= tol:
                return ThresholdResult(
                    p_star=mids[k],
                    bracket=(lo, hi),
                    evaluations=evaluations,
                    margin_at_p_star=values[k],
                    multi_crossing=len(crossings) > 1,
                )
            steps += 1
            if values[k] > 0.0:
                lo, k = mids[k], 2 * k + 1
            else:
                hi, k = mids[k], 2 * k + 2


def bisect_threshold(
    margin_fn: Callable[[float], float], tol: float = DEFAULT_TOL
) -> ThresholdResult:
    """Locate the crossing of an arbitrary margin function on [0, 1].

    Requires margin(0) > 0 > margin(1). Multiple sign changes on the coarse
    grid are flagged and the smallest crossing is refined.
    """
    return _bisect(lambda ps: [float(margin_fn(float(p))) for p in ps], tol, depth=1)


def find_threshold(
    family: str,
    d: int | None = None,
    criterion: str = CRITERION_SRUR,
    mode: str = MODE_LINEAR_G,
    tol: float = DEFAULT_TOL,
) -> ThresholdResult:
    """Bisect the violation threshold of a built-in family.

    The pre-sweep grid is one batched call, and so is each set of
    _TREE_DEPTH bisection steps; margins do not depend on the batch size,
    so the result equals the scalar bisect_threshold on family_evaluator's
    margin.
    """
    sides = _family_sides(resolve_family(family, d), criterion, mode)

    def margins(ps) -> list:
        lhs, rhs = sides(ps)
        return (lhs - rhs).tolist()

    return _bisect(margins, tol)


def sweep_csv_text(result: SweepResult) -> str:
    """Deterministic CSV serialization, 12 significant digits."""
    columns = (result.p, result.lhs, result.rhs, result.margin)
    flags = map(("false", "true").__getitem__, result.violated.tolist())
    rows = map("%.12g,%.12g,%.12g,%.12g,%s".__mod__, zip(*(c.tolist() for c in columns), flags))
    return "\n".join(["p,lhs,rhs,margin,violated", *rows]) + "\n"
