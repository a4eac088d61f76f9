"""Sweeps over the mixing weight p and threshold localization by bisection.

A criterion's margin on the built-in families is positive at p = 0 and
negative at p = 1; the threshold is the sign change. The finder pre-sweeps a
coarse grid so a non-monotone margin is caught (reported as multi_crossing
and resolved to the smallest crossing), then bisects deterministically.

Engine modes evaluate a whole grid of p in one vectorised pass
(families.family_moments); a single p is a grid of one, so a sweep row and
the evaluator at the same p agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_forms import MODE_CLOSED_FORM, closed_form_report, closed_forms_for
from .criteria import (
    CRITERION_HUR,
    CRITERION_SRUR,
    CriterionReport,
    build_report,
    criterion_sides,
)
from .families import (
    FAMILIES,
    FamilyError,
    family_descriptor,
    family_for_dimension,
    family_moments,
)
from .inference import MODE_CONDITIONAL_MEAN, MODE_LINEAR_G

__all__ = [
    "ThresholdError",
    "SweepRow",
    "SweepResult",
    "ThresholdResult",
    "MAX_SWEEP_STEPS",
    "resolve_family",
    "family_evaluator",
    "sweep",
    "find_threshold",
    "bisect_threshold",
    "sweep_csv_text",
    "write_sweep_csv",
]

DEFAULT_TOL = 1e-9
# a sweep holds every grid point's tables at once
MAX_SWEEP_STEPS = 1_000_000
_BISECT_MAX_ITER = 60
_PRE_SWEEP_POINTS = 32

MODES = (MODE_LINEAR_G, MODE_CONDITIONAL_MEAN, MODE_CLOSED_FORM)
CRITERIA = (CRITERION_SRUR, CRITERION_HUR)


class ThresholdError(RuntimeError):
    """No usable sign change of the margin on [0, 1]."""


@dataclass(frozen=True)
class SweepRow:
    p: float
    lhs: float
    rhs: float
    margin: float
    violated: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


@dataclass(frozen=True)
class ThresholdResult:
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

        def closed_sides(ps):
            # the closed-form lhs is the var_inf product, the linear-g lhs
            sides = [
                criterion_sides(closed_forms_for(family, p), criterion, MODE_LINEAR_G)
                for p in ps
            ]
            return np.array([lhs for lhs, _ in sides]), np.array([rhs for _, rhs in sides])

        return closed_sides
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

    def evaluate(p: float) -> CriterionReport:
        batch = moments_at([p])
        lhs, rhs = criterion_sides(batch, criterion, mode)
        return build_report(
            criterion, mode, float(lhs[0]), float(rhs[0]), batch.row(0),
            family_descriptor(family, p),
        )

    return evaluate


def sweep(
    family: str,
    d: int | None = None,
    criterion: str = CRITERION_SRUR,
    mode: str = MODE_LINEAR_G,
    p_start: float = 0.0,
    p_end: float = 1.0,
    steps: int = 101,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate the criterion on a uniform inclusive grid of p values.

    jobs is validated and otherwise ignored: the grid is evaluated in one
    vectorised single-threaded pass, so the output never depends on it.
    """
    if not (0.0 <= p_start < p_end <= 1.0):
        raise FamilyError(
            f"need 0 <= p_start < p_end <= 1, got [{p_start}, {p_end}]"
        )
    if int(steps) != steps or not 2 <= steps <= MAX_SWEEP_STEPS:
        raise FamilyError(
            f"steps must be an integer in [2, {MAX_SWEEP_STEPS}], got {steps}"
        )
    if int(jobs) != jobs or jobs < 1:
        raise FamilyError(f"jobs must be an integer >= 1, got {jobs}")
    sides = _family_sides(resolve_family(family, d), criterion, mode)
    grid = np.linspace(p_start, p_end, int(steps))
    lhs, rhs = sides(grid)
    margin = lhs - rhs
    return SweepResult(tuple(
        SweepRow(p, left, right, m, m < 0.0)
        for p, left, right, m in zip(
            grid.tolist(), lhs.tolist(), rhs.tolist(), margin.tolist()
        )
    ))


def _bisect(
    margin_fn: Callable[[float], float],
    grid_margins: Callable[[np.ndarray], list],
    tol: float,
) -> ThresholdResult:
    """Pre-sweep with grid_margins, then bisect the first crossing with margin_fn."""
    if not math.isfinite(tol) or tol <= 0.0:
        raise ThresholdError(f"tolerance must be positive and finite, got {tol}")
    grid = np.linspace(0.0, 1.0, _PRE_SWEEP_POINTS)
    margins = grid_margins(grid)
    evaluations = len(margins)
    if not margins[0] > 0.0:
        raise ThresholdError(
            f"margin at p=0 is {margins[0]:.6g}; the criterion is already "
            "violated at p=0, no threshold to find"
        )
    if not margins[-1] < 0.0:
        raise ThresholdError(
            f"margin at p=1 is {margins[-1]:.6g}; no sign change on [0, 1], "
            "the criterion is never violated"
        )
    positive = [m > 0.0 for m in margins]
    crossings = [
        i for i in range(len(grid) - 1) if positive[i] != positive[i + 1]
    ]
    multi = len(crossings) > 1
    lo, hi = float(grid[crossings[0]]), float(grid[crossings[0] + 1])

    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if margin_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    evaluations += 1
    return ThresholdResult(
        p_star=p_star,
        bracket=(lo, hi),
        evaluations=evaluations,
        margin_at_p_star=margin_fn(p_star),
        multi_crossing=multi,
    )


def bisect_threshold(
    margin_fn: Callable[[float], float], tol: float = DEFAULT_TOL
) -> ThresholdResult:
    """Locate the crossing of an arbitrary margin function on [0, 1].

    Requires margin(0) > 0 > margin(1). Multiple sign changes on the coarse
    grid are flagged and the smallest crossing is refined.
    """
    return _bisect(
        lambda p: float(margin_fn(p)),
        lambda grid: [float(margin_fn(float(p))) for p in grid],
        tol,
    )


def find_threshold(
    family: str,
    d: int | None = None,
    criterion: str = CRITERION_SRUR,
    mode: str = MODE_LINEAR_G,
    tol: float = DEFAULT_TOL,
) -> ThresholdResult:
    """Bisect the violation threshold of a built-in family.

    The pre-sweep grid is evaluated in one batched call.
    """
    sides = _family_sides(resolve_family(family, d), criterion, mode)

    def margins(ps) -> np.ndarray:
        lhs, rhs = sides(ps)
        return lhs - rhs

    return _bisect(
        lambda p: float(margins([p])[0]),
        lambda grid: margins(grid).tolist(),
        tol,
    )


def sweep_csv_text(result: SweepResult) -> str:
    """Deterministic CSV serialization, 12 significant digits."""
    lines = ["p,lhs,rhs,margin,violated"]
    for r in result.rows:
        flag = "true" if r.violated else "false"
        lines.append(
            f"{r.p:.12g},{r.lhs:.12g},{r.rhs:.12g},{r.margin:.12g},{flag}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(fileobj, result: SweepResult) -> None:
    fileobj.write(sweep_csv_text(result))
