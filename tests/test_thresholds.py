"""Parameter sweeps, CSV output and bisection threshold search."""

from __future__ import annotations

import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import steercrit.families
from steercrit import (
    FAMILY_QUBIT_XZ,
    FAMILY_QUTRIT_B1B2,
    FamilyError,
    InvalidStateError,
    ThresholdError,
    bisect_threshold,
    closed_form_report,
    family_for_dimension,
    family_observables,
    family_state,
    find_threshold,
    oracle_moments,
    sweep,
    sweep_csv_text,
)
from steercrit.inference import BATCH_CHUNK
from steercrit.thresholds import (
    _TREE_DEPTH,
    MAX_SWEEP_STEPS,
    family_evaluator,
    resolve_family,
)

GOLDEN = (math.sqrt(5) - 1) / 2

ENGINE_CONFIGS = [
    (d, mode, criterion)
    for d in (2, 3)
    for mode in ("linear-g", "conditional-mean")
    for criterion in ("srur", "hur")
]
ALL_CONFIGS = ENGINE_CONFIGS + [
    (d, "paper-closed-form", criterion) for d in (2, 3) for criterion in ("srur", "hur")
]


def test_resolve_family():
    assert resolve_family("isotropic", 2) == FAMILY_QUBIT_XZ
    assert resolve_family("isotropic", 3) == FAMILY_QUTRIT_B1B2
    assert resolve_family(FAMILY_QUBIT_XZ) == FAMILY_QUBIT_XZ
    with pytest.raises(FamilyError):
        resolve_family("isotropic", 4)
    with pytest.raises(FamilyError):
        resolve_family("isotropic")
    # a family name takes a d only if it is that family's
    assert resolve_family(FAMILY_QUBIT_XZ, 2) == FAMILY_QUBIT_XZ
    assert resolve_family(FAMILY_QUTRIT_B1B2, 3) == FAMILY_QUTRIT_B1B2
    # a non-integer d is no family's, not the one of its integer part
    for d in (2.5, 3.9):
        with pytest.raises(FamilyError, match=f"no built-in family for local dimension {d}"):
            resolve_family("isotropic", d)
        with pytest.raises(FamilyError):
            family_for_dimension(d)
    for family, d in ((FAMILY_QUBIT_XZ, 3), (FAMILY_QUTRIT_B1B2, 2)):
        with pytest.raises(FamilyError, match=f"{family!r} does not have local dimension {d}"):
            resolve_family(family, d)
    for family, d in ((FAMILY_QUBIT_XZ, 2.5), (FAMILY_QUBIT_XZ, 4)):
        with pytest.raises(FamilyError, match=f"no built-in family for local dimension {d}"):
            resolve_family(family, d)


def test_sweep_grid_and_endpoints():
    result = sweep("isotropic", 2, steps=11)
    assert result.p.size == 11
    np.testing.assert_allclose(result.p, np.linspace(0.0, 1.0, 11), atol=1e-15)
    assert result.p[0] == 0.0
    assert result.p[-1] == 1.0
    assert not result.violated[0]
    assert result.violated[-1]


def test_sweep_two_point_grid():
    result = sweep("isotropic", 3, p_start=0.2, p_end=0.8, steps=2)
    assert result.p.tolist() == [0.2, 0.8]


def test_sweep_rows_match_evaluator():
    # a sweep is one batch, the evaluator a batch of one: points must not
    # depend on the batch size
    for d, mode, criterion in ALL_CONFIGS:
        evaluator = family_evaluator(resolve_family("isotropic", d), criterion, mode)
        r = sweep("isotropic", d, criterion=criterion, mode=mode, steps=101)
        for p, lhs, rhs, margin, violated in zip(
            r.p.tolist(), r.lhs.tolist(), r.rhs.tolist(), r.margin.tolist(),
            r.violated.tolist(),
        ):
            report = evaluator(p)
            assert lhs == report.lhs
            assert rhs == report.rhs
            assert margin == report.margin
            assert violated == report.violated


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("mode", ["linear-g", "conditional-mean"])
def test_sweep_rows_across_a_chunk_boundary_match_evaluator(d, mode):
    # the moments are reduced BATCH_CHUNK states at a time; rows on both
    # sides of the boundary, and the short last chunk, match a batch of one
    steps = BATCH_CHUNK + 3
    r = sweep("isotropic", d, mode=mode, steps=steps)
    evaluator = family_evaluator(resolve_family("isotropic", d), "srur", mode)
    for i in (0, 1, BATCH_CHUNK - 2, BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1, steps - 1):
        report = evaluator(float(r.p[i]))
        assert (float(r.lhs[i]), float(r.rhs[i])) == (report.lhs, report.rhs), i
        assert float(r.margin[i]) == report.margin, i


@pytest.mark.parametrize("criterion", ["srur", "hur"])
@pytest.mark.parametrize("family", [FAMILY_QUBIT_XZ, FAMILY_QUTRIT_B1B2])
def test_closed_form_report_is_the_closed_form_evaluator(family, criterion):
    evaluator = family_evaluator(family, criterion, "paper-closed-form")
    for p in (*np.linspace(0.0, 1.0, 41).tolist(), 0.5609, 0.9):
        want, got = closed_form_report(family, p, criterion), evaluator(p)
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs), p
        assert got.to_json_dict() == want.to_json_dict(), p


@pytest.mark.parametrize("p", [1.0 + 1e-9, -1e-12])
@pytest.mark.parametrize("mode", ["linear-g", "conditional-mean"])
def test_engine_evaluator_rejects_p_outside_unit_interval(mode, p):
    with pytest.raises(InvalidStateError) as expected:
        family_state(FAMILY_QUBIT_XZ, p)
    with pytest.raises(InvalidStateError) as got:
        family_evaluator(FAMILY_QUBIT_XZ, "srur", mode)(p)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("d,mode,criterion", ENGINE_CONFIGS)
def test_sweep_margins_match_oracle(d, mode, criterion):
    family = resolve_family("isotropic", d)
    b1, b2 = family_observables(family)
    result = sweep("isotropic", d, criterion=criterion, mode=mode, steps=101)
    for k in (0, 29, 62, 100):
        m = oracle_moments(family_state(family, float(result.p[k])), b1, b2)
        if mode == "linear-g":
            lhs = m["var_inf_b1"] * m["var_inf_b2"]
        else:
            lhs = m["var_min_b1"] * m["var_min_b2"]
        rhs = 0.25 * m["abs_mean_inf_commutator"] ** 2
        if criterion == "srur":
            rhs += (0.5 * m["mean_inf_anticommutator"] - m["product_of_means_inf"]) ** 2
        assert abs(result.margin[k] - (lhs - rhs)) < 1e-12


def test_sweep_margin_strictly_decreasing_on_both_families():
    # unique-root precondition for bisection, asserted numerically
    for d in (2, 3):
        for mode in ("linear-g", "conditional-mean", "paper-closed-form"):
            result = sweep("isotropic", d, mode=mode, steps=1000)
            assert np.all(result.margin[:-1] > result.margin[1:])


def test_sweep_csv_bytes_are_deterministic():
    a = sweep_csv_text(sweep("isotropic", 3, steps=20))
    b = sweep_csv_text(sweep("isotropic", 3, steps=20))
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "p,lhs,rhs,margin,violated"
    assert len(lines) == 21
    assert a.endswith("\n")
    assert lines[1].endswith(",false")
    assert lines[-1].endswith(",true")


def test_sweep_validates_arguments():
    with pytest.raises(FamilyError):
        sweep("isotropic", 2, p_start=0.8, p_end=0.2)
    with pytest.raises(FamilyError):
        sweep("isotropic", 2, p_start=-0.1)
    with pytest.raises(FamilyError):
        sweep("isotropic", 2, steps=1)
    with pytest.raises(FamilyError):
        sweep("isotropic", 2, steps=MAX_SWEEP_STEPS + 1)
    for steps in (float("nan"), float("inf")):
        with pytest.raises(FamilyError, match="steps must be an integer"):
            sweep("isotropic", 2, steps=steps)
    with pytest.raises(FamilyError):
        sweep("isotropic", 2, mode="unknown")
    with pytest.raises(FamilyError):
        sweep("isotropic", 2, criterion="unknown")
    for family, d in (("isotropic", 2.5), (FAMILY_QUBIT_XZ, 3), (FAMILY_QUTRIT_B1B2, 2)):
        with pytest.raises(FamilyError):
            sweep(family, d)


def test_bisect_on_analytic_margin():
    result = bisect_threshold(lambda p: 0.5 - p, tol=1e-9)
    assert result.p_star == pytest.approx(0.5, abs=1e-9)
    lo, hi = result.bracket
    assert hi - lo <= 1e-9
    assert lo <= result.p_star <= hi
    assert not result.multi_crossing
    assert result.evaluations > 0
    assert abs(result.margin_at_p_star) < 1e-8


def test_bisect_is_deterministic():
    f = lambda p: (1 - p * p) ** 2 / 16 - p * p / 16
    a = bisect_threshold(f)
    b = bisect_threshold(f)
    assert a == b


def test_bisect_counts_evaluations():
    calls = []

    def f(p):
        calls.append(p)
        return 0.5 - p

    result = bisect_threshold(f, tol=1e-6)
    assert result.evaluations == len(calls)


def test_bisect_flags_multiple_crossings():
    # positive-to-negative sign changes at 0.2 and 0.8
    f = lambda p: -(p - 0.2) * (p - 0.5) * (p - 0.8)
    result = bisect_threshold(f, tol=1e-9)
    assert result.multi_crossing
    assert result.p_star == pytest.approx(0.2, abs=1e-8)


def test_bisect_requires_sign_change():
    with pytest.raises(ThresholdError):
        bisect_threshold(lambda p: 1.0)
    with pytest.raises(ThresholdError):
        bisect_threshold(lambda p: -1.0)
    with pytest.raises(ThresholdError):
        bisect_threshold(lambda p: p - 2.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bisect_rejects_bad_tolerance(tol):
    calls = []

    def f(p):
        calls.append(p)
        return 0.5 - p

    with pytest.raises(ThresholdError):
        bisect_threshold(f, tol=tol)
    assert calls == []


def test_engine_thresholds_hit_golden_ratio_root():
    for d in (2, 3):
        for mode in ("linear-g", "conditional-mean"):
            for criterion in ("srur", "hur"):
                r = find_threshold("isotropic", d, criterion=criterion, mode=mode)
                assert r.p_star == pytest.approx(GOLDEN, abs=1e-8)
                assert not r.multi_crossing
                lo, hi = r.bracket
                assert hi - lo <= 1e-9


def test_readme_quick_start_runs(capsys):
    # the README's one Python block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    first, second = capsys.readouterr().out.splitlines()
    margin, violated = first.split()
    assert float(margin) < 0.0
    assert violated == "True"
    assert float(second) == pytest.approx(GOLDEN, abs=1e-9)


def test_threshold_result_json_fields():
    r = find_threshold("isotropic", 2, mode="paper-closed-form")
    blob = r.to_json_dict()
    assert list(blob) == [
        "p_star",
        "bracket",
        "evaluations",
        "margin_at_p_star",
        "multi_crossing",
    ]
    assert blob["bracket"][0] < blob["p_star"] < blob["bracket"][1]


def test_find_threshold_rejects_unknowns():
    with pytest.raises(FamilyError):
        find_threshold("isotropic", 5)
    with pytest.raises(FamilyError):
        find_threshold("isotropic", 2, mode="unknown")
    for family, d in (("isotropic", 2.5), (FAMILY_QUBIT_XZ, 3), (FAMILY_QUTRIT_B1B2, 2)):
        with pytest.raises(FamilyError):
            find_threshold(family, d)
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ThresholdError):
            find_threshold("isotropic", 2, tol=tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 1e-15, 1e-300])
@pytest.mark.parametrize("d,mode,criterion", ALL_CONFIGS)
def test_batched_search_matches_scalar_bisection(d, mode, criterion, tol):
    # the scalar route evaluates one p per call, in the order of the
    # sequential bisection; 1e-300 runs into the iteration cap
    family = resolve_family("isotropic", d)
    evaluator = family_evaluator(family, criterion, mode)
    scalar = bisect_threshold(lambda p: evaluator(p).margin, tol)
    batched = find_threshold(family, criterion=criterion, mode=mode, tol=tol)
    assert repr(batched.to_json_dict()) == repr(scalar.to_json_dict())


@pytest.mark.parametrize("d,mode,criterion", ENGINE_CONFIGS)
def test_engine_search_batches_its_bisection(d, mode, criterion, monkeypatch):
    calls = []
    real = steercrit.families.mixed_moments

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(steercrit.families, "mixed_moments", counted)
    result = find_threshold("isotropic", d, criterion=criterion, mode=mode)
    assert result.evaluations == 58
    # one pre-sweep call, then one call per _TREE_DEPTH bisection steps
    assert len(calls) <= 1 + math.ceil(26 / _TREE_DEPTH)


@pytest.mark.parametrize("family", (FAMILY_QUBIT_XZ, FAMILY_QUTRIT_B1B2))
def test_family_moments_repeat_calls_return_the_same_bits(family, monkeypatch):
    # the reduction may work in place, but never on the caller's p array or
    # on the end-state stack that every call mixes
    stacks = []
    real = steercrit.families.mixed_moments

    def recorded(settings_, ends, weights):
        stacks.append((ends, ends.copy()))
        return real(settings_, ends, weights)

    monkeypatch.setattr(steercrit.families, "mixed_moments", recorded)
    moments_at = functools.partial(steercrit.families.family_moments, family)
    ps = np.linspace(0.0, 1.0, 11)
    given = ps.copy()
    first = {k: v.copy() for k, v in vars(moments_at(ps)).items()}
    second = vars(moments_at(ps))
    assert ps.tobytes() == given.tobytes()
    for k, v in second.items():
        assert v.tobytes() == first[k].tobytes(), k
    for ends, copy in stacks:
        assert ends.tobytes() == copy.tobytes()


@pytest.mark.parametrize("d,mode,criterion", ALL_CONFIGS)
def test_threshold_matches_quartic_fit_root(d, mode, criterion):
    # on the isotropic families every margin is a quartic in p
    swept = sweep("isotropic", d, criterion=criterion, mode=mode, steps=2001)
    p, margin = swept.p, swept.margin
    fit = Polynomial.fit(p, margin, 4)
    assert np.max(np.abs(fit(p) - margin)) < 1e-12
    roots = [
        r.real for r in fit.roots() if abs(r.imag) < 1e-12 and 0.0 <= r.real <= 1.0
    ]
    assert len(roots) == 1
    result = find_threshold("isotropic", d, criterion=criterion, mode=mode)
    assert abs(result.p_star - roots[0]) <= 1e-9

