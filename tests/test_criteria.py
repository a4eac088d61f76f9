"""Criterion evaluation: bound sides, violation flags, report format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steercrit import (
    CRITERION_HUR,
    CRITERION_SRUR,
    FAMILIES,
    MODE_CONDITIONAL_MEAN,
    MODE_LINEAR_G,
    CriterionReport,
    InferenceError,
    InferredMoments,
    MeasurementSettings,
    Observable,
    evaluate_criterion,
    evaluate_srur,
    family_observables,
    family_state,
    full_moments,
    hur_rhs,
    isotropic,
    moment_batch,
    qutrit_triplet,
    spin_half,
    srur_rhs,
    uncertainty_terms,
    variance,
)
from steercrit import DensityMatrix
from steercrit.criteria import CRITERIA, criterion_sides
from steercrit.thresholds import MODES, family_evaluator

from conftest import random_bipartite, random_density, random_hermitian, random_observable


def _qubit(p: float):
    return isotropic(2, p), spin_half("x"), spin_half("z")


def test_white_noise_is_not_violated():
    rho, b1, b2 = _qubit(0.0)
    report = evaluate_srur(rho, b1, b2)
    assert report.lhs == pytest.approx(1 / 16, abs=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)
    assert report.margin == pytest.approx(1 / 16, abs=1e-12)
    assert not report.violated


def test_max_entangled_is_violated():
    rho, b1, b2 = _qubit(1.0)
    report = evaluate_srur(rho, b1, b2)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(1 / 16, abs=1e-12)
    assert report.violated


def test_swap_symmetry():
    rho, b1, b2 = _qubit(0.73)
    r12 = evaluate_srur(rho, b1, b2)
    r21 = evaluate_srur(rho, b2, b1)
    assert r12.lhs == pytest.approx(r21.lhs, abs=1e-12)
    assert r12.rhs == pytest.approx(r21.rhs, abs=1e-12)
    assert r12.margin == pytest.approx(r21.margin, abs=1e-12)


def test_hur_bound_never_exceeds_srur_bound():
    for p in (0.0, 0.3, 0.7, 1.0):
        rho, b1, b2 = _qubit(p)
        m = full_moments(rho, b1, b2)
        assert srur_rhs(m) >= hur_rhs(m) - 1e-15


@pytest.mark.parametrize("mode", (MODE_LINEAR_G, MODE_CONDITIONAL_MEAN))
def test_srur_covariance_term_flags_a_separable_state(mode):
    # 1/2 (|++><++| + |--><--|) is a mixture of product states, so no sound
    # criterion may flag it; HUR does not, but SRUR does through its
    # inferred product of means, 1/16 where every hidden state has 0
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    rho = DensityMatrix(
        sum(0.5 * np.outer(np.kron(v, v), np.kron(v, v)) for v in (plus, minus)),
        (2, 2),
    )
    b1, b2 = spin_half("x"), spin_half("z")
    hur = evaluate_criterion(rho, b1, b2, mode=mode, criterion=CRITERION_HUR)
    srur = evaluate_criterion(rho, b1, b2, mode=mode, criterion=CRITERION_SRUR)
    assert hur.margin == 0.0
    assert not hur.violated
    assert srur.margin == pytest.approx(-1 / 256, abs=1e-12)
    assert srur.violated
    assert srur.moments.product_of_means_inf == pytest.approx(1 / 16, abs=1e-12)


def test_conditional_mean_mode_uses_min_variances():
    rho = isotropic(3, 0.6)
    b1, b2, _ = qutrit_triplet()
    report = evaluate_srur(rho, b1, b2, mode="conditional-mean")
    m = report.moments
    assert report.lhs == pytest.approx(m.var_min_b1 * m.var_min_b2, abs=1e-15)
    assert report.mode == "conditional-mean"


def test_linear_mode_uses_linear_variances():
    rho, b1, b2 = _qubit(0.4)
    report = evaluate_srur(rho, b1, b2, mode="linear-g")
    m = report.moments
    assert report.lhs == pytest.approx(m.var_inf_b1 * m.var_inf_b2, abs=1e-15)


@pytest.mark.parametrize("mode", (MODE_LINEAR_G, MODE_CONDITIONAL_MEAN))
@pytest.mark.parametrize("family", FAMILIES)
def test_margin_scales_with_observables(family, mode):
    # both sides are quartic in (B1, B2), so margin / s^4 must not depend on
    # s; the variance order check has to scale with the variances too
    rho = family_state(family, 0.95)
    b1, b2 = family_observables(family)
    base = evaluate_srur(rho, b1, b2, mode=mode).margin
    for s in (1e2, 1e3, 1e4, 1e5):
        scaled = evaluate_srur(
            rho, Observable("B1", s * b1.matrix), Observable("B2", s * b2.matrix), mode=mode
        )
        assert scaled.margin / s**4 == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("mode", (MODE_LINEAR_G, MODE_CONDITIONAL_MEAN))
def test_margin_scales_with_random_qutrit_observables(rng, mode):
    # products of dense observables carry roundoff of order 1e-16 s^2, which
    # no Hermiticity or variance-order check may mistake for a fault
    rho = isotropic(3, 0.5)
    for _ in range(20):
        m1, m2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        base = evaluate_srur(rho, Observable("B1", m1), Observable("B2", m2), mode=mode).margin
        for s in (1e3, 1e4):
            scaled = evaluate_srur(
                rho, Observable("B1", s * m1), Observable("B2", s * m2), mode=mode
            )
            assert scaled.margin / s**4 == pytest.approx(base, rel=1e-9)


def test_violated_iff_negative_margin():
    for p in (0.0, 0.5, 0.61, 0.62, 0.9, 1.0):
        rho, b1, b2 = _qubit(p)
        for report in (
            evaluate_srur(rho, b1, b2),
            evaluate_criterion(rho, b1, b2, criterion="hur"),
        ):
            assert report.violated == (report.margin < 0.0)
    # the family route in every mode, the closed forms included
    for family in FAMILIES:
        for mode in MODES:
            for criterion in (CRITERION_SRUR, CRITERION_HUR):
                evaluate = family_evaluator(family, criterion, mode)
                for p in (0.0, 0.5, 0.61, 0.62, 0.9, 0.905, 1.0):
                    report = evaluate(p)
                    where = (family, mode, criterion, p)
                    assert report.margin == report.lhs - report.rhs, where
                    assert report.violated == (report.margin < 0.0), where
    with pytest.raises(AttributeError):
        report.margin = 0.0


def test_float_and_array_records_round_alike():
    # libm's c ** 2 rounds this c one ulp away from c * c, numpy's square
    c = 0.42672114373024106
    values = dict(
        var_inf_b1=0.31, var_inf_b2=0.27, var_min_b1=0.29, var_min_b2=0.23,
        abs_mean_inf_commutator=c, mean_inf_anticommutator=0.13,
        sq_mean_inf_b1=0.11, sq_mean_inf_b2=0.07, sq_mean_inf_b0=0.1,
        product_of_means_inf=0.04, g1=0.6, g2=0.5,
    )
    record = InferredMoments(**values)
    twin = InferredMoments(**{k: np.array([v]) for k, v in values.items()})
    assert hur_rhs(record) == hur_rhs(twin)[0]
    assert srur_rhs(record) == srur_rhs(twin)[0]
    for criterion in CRITERIA:
        for mode in MODES:
            report = CriterionReport(criterion, mode, record, "twin")
            lhs, rhs = criterion_sides(twin, criterion, mode)
            assert (report.lhs, report.rhs) == (lhs[0], rhs[0]), (criterion, mode)


@pytest.mark.parametrize("d", (2, 3))
def test_evaluator_equals_the_sides_of_its_batch(d):
    # the report's float sides equal the (1,)-array sides of the same
    # state's batch bit for bit
    rng = np.random.default_rng(7 + d)
    b1, b2 = random_observable(rng, d, "B1"), random_observable(rng, d, "B2")
    settings_ = MeasurementSettings.build(b1, b2)
    for _ in range(100):
        rho = random_bipartite(rng, d, d)
        batch = moment_batch(settings_, settings_.packed_tables(rho.matrix[None]))
        for mode in (MODE_LINEAR_G, MODE_CONDITIONAL_MEAN):
            for criterion in CRITERIA:
                lhs, rhs = criterion_sides(batch, criterion, mode)
                report = evaluate_criterion(rho, b1, b2, mode=mode, criterion=criterion)
                assert (report.lhs, report.rhs) == (lhs[0], rhs[0]), (mode, criterion)


def test_hur_equals_srur_when_covariance_term_vanishes():
    # both built-in pairs have zero anticommutator and zero product of means
    rho, b1, b2 = _qubit(0.8)
    assert evaluate_srur(rho, b1, b2).rhs == pytest.approx(
        evaluate_criterion(rho, b1, b2, criterion="hur").rhs, abs=1e-12
    )


def test_report_json_fields():
    rho, b1, b2 = _qubit(0.5)
    blob = evaluate_srur(rho, b1, b2).to_json_dict()
    assert list(blob) == [
        "criterion",
        "mode",
        "lhs",
        "rhs",
        "margin",
        "violated",
        "moments",
        "state_descriptor",
    ]
    assert blob["criterion"] == CRITERION_SRUR
    assert isinstance(blob["violated"], bool)
    assert blob["state_descriptor"] == "dims=(2, 2); observables=(Sx,Sz)"
    assert blob["moments"]["g1"] == pytest.approx(0.5, abs=1e-12)


def test_unknown_mode_and_criterion_rejected():
    rho, b1, b2 = _qubit(0.5)
    with pytest.raises(InferenceError):
        evaluate_criterion(rho, b1, b2, mode="quadratic")
    with pytest.raises(InferenceError):
        evaluate_criterion(rho, b1, b2, criterion="chsh")


def test_variance_basics():
    ground = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), dims=(2,))
    assert variance(ground, spin_half("z")) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(2) / 2, dims=(2,))
    assert variance(mixed, spin_half("z")) == pytest.approx(0.25, abs=1e-12)


def test_uncertainty_relation_on_eigenstate():
    # an Sz eigenstate saturates lhs = rhs = 0 for the (Sx, Sy) pair bound
    ground = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), dims=(2,))
    lhs, rhs = uncertainty_terms(ground, spin_half("x"), spin_half("z"))
    assert lhs >= rhs - 1e-12


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
def test_uncertainty_relation_holds_on_random_instances(seed, d):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d)
    lhs, rhs = uncertainty_terms(
        rho, random_observable(rng, d, "B1"), random_observable(rng, d, "B2")
    )
    assert lhs - rhs >= -1e-9
