"""Joint distributions and inferred moments against closed-form expectations.

On isotropic states with the transpose pairing the conditional mean of a
traceless observable with nondegenerate spectrum is <B|a> = p a, which makes
every inferred quantity analytic; the pinned values below all follow from
that identity (and are independently confirmed by the brute-force oracle in
test_oracle.py).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steercrit import (
    DensityMatrix,
    InferenceError,
    InferredMoments,
    IsotropicParams,
    MeasurementSettings,
    Observable,
    ObservablePairing,
    default_pairing,
    explicit_pairing,
    full_moments,
    isotropic,
    joint_distribution,
    joint_tables,
    max_entangled,
    moment_batch,
    qutrit_triplet,
    spin_half,
)

from conftest import random_bipartite, random_observable


def _pairing(obs: Observable) -> ObservablePairing:
    return default_pairing(obs)


def test_bell_state_perfectly_correlated_in_z():
    jd = joint_distribution(max_entangled(2), _pairing(spin_half("z")))
    assert jd.alice_outcomes == (0.5, -0.5)
    assert jd.bob_outcomes == (0.5, -0.5)
    np.testing.assert_allclose(jd.probs, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_white_noise_is_uniform():
    rho = isotropic(IsotropicParams(d=2, p=0.0))
    jd = joint_distribution(rho, _pairing(spin_half("x")))
    np.testing.assert_allclose(jd.probs, np.full((2, 2), 0.25), atol=1e-12)


def test_qutrit_marginals_are_uniform():
    rho = isotropic(IsotropicParams(d=3, p=0.4))
    b1 = qutrit_triplet()[0]
    jd = joint_distribution(rho, _pairing(b1))
    np.testing.assert_allclose(jd.probs.sum(axis=1), np.full(3, 1 / 3), atol=1e-12)
    np.testing.assert_allclose(jd.probs.sum(axis=0), np.full(3, 1 / 3), atol=1e-12)


def test_joint_distribution_rejects_mismatch():
    rho = isotropic(IsotropicParams(d=3, p=0.5))
    with pytest.raises(InferenceError):
        joint_distribution(rho, _pairing(spin_half("x")))
    single = DensityMatrix(np.eye(2) / 2, dims=(2,))
    with pytest.raises(InferenceError):
        joint_distribution(single, _pairing(spin_half("x")))


def test_conditional_mean_scales_with_p():
    p = 0.6
    rho = isotropic(IsotropicParams(d=2, p=p))
    jd = joint_distribution(rho, _pairing(spin_half("z")))
    # <B | A = a> = sum_b P(a, b) b / P(a), for a = +1/2 and -1/2
    means = jd.probs @ np.asarray(jd.bob_outcomes) / jd.probs.sum(axis=1)
    np.testing.assert_allclose(means, [p * 0.5, -p * 0.5], atol=1e-12)


def test_conditional_mean_rejects_zero_probability_outcome():
    # on |00> Alice never sees Sz = -1/2; that outcome is left out of every
    # conditional sum instead of being divided by its zero probability
    rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), dims=(2, 2))
    m = full_moments(rho, spin_half("z"), spin_half("x"))
    assert all(np.isfinite(v) for v in m.as_dict().values())
    assert m.var_min_b1 == 0.0
    assert m.sq_mean_inf_b1 == pytest.approx(0.25, abs=1e-15)


def test_reid_g_equals_p_on_isotropic():
    b1, b2, _ = qutrit_triplet()
    for d, pair in ((2, (spin_half("x"), spin_half("z"))), (3, (b1, b2))):
        for p in (0.0, 0.37, 1.0):
            m = full_moments(isotropic(IsotropicParams(d=d, p=p)), *pair)
            assert m.g1 == pytest.approx(p, abs=1e-12)
            assert m.g2 == pytest.approx(p, abs=1e-12)


def test_reid_g_vanishes_on_product_noise():
    rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
    m = full_moments(rho, spin_half("y"), spin_half("x"))
    assert m.g1 == pytest.approx(0.0, abs=1e-12)


def test_reid_g_guards_vanishing_alice_power():
    zero = Observable("zero", np.zeros((2, 2)))
    rule = explicit_pairing({"Sz": zero, "Sx": spin_half("x").transpose()})
    rho = isotropic(IsotropicParams(d=2, p=0.5))
    with pytest.raises(InferenceError, match="<A\\^2>"):
        full_moments(rho, spin_half("z"), spin_half("x"), rule)


def test_inferred_variances_on_qubit_family():
    p = 0.3
    rho = isotropic(IsotropicParams(d=2, p=p))
    m = full_moments(rho, spin_half("x"), spin_half("z"))
    want = (1 - p * p) / 4
    for value in (m.var_inf_b1, m.var_inf_b2, m.var_min_b1, m.var_min_b2):
        assert value == pytest.approx(want, abs=1e-12)


def test_inferred_variances_on_qutrit_family():
    p = 0.5
    rho = isotropic(IsotropicParams(d=3, p=p))
    b1, b2, _ = qutrit_triplet()
    m = full_moments(rho, b1, b2)
    assert m.var_inf_b1 == pytest.approx((2 / 3) * (1 - p * p), abs=1e-12)
    assert m.var_inf_b2 == pytest.approx((1 / 3) * (1 - p * p), abs=1e-12)
    assert m.var_min_b1 == pytest.approx((2 / 3) * (1 - p * p), abs=1e-12)
    assert m.var_min_b2 == pytest.approx((1 / 3) * (1 - p * p), abs=1e-12)


def test_inferred_abs_mean_of_commutator():
    p = 0.44
    rho = isotropic(IsotropicParams(d=2, p=p))
    m = full_moments(rho, spin_half("x"), spin_half("z"))
    assert m.abs_mean_inf_commutator == pytest.approx(p / 2, abs=1e-12)


def test_inferred_mean_of_identity_is_one():
    # {1, 1} = 2 * 1, so its inferred mean is twice that of the identity
    one = Observable("one", np.eye(2))
    rho = isotropic(IsotropicParams(d=2, p=0.8))
    m = full_moments(rho, one, one)
    assert m.mean_inf_anticommutator == pytest.approx(2.0, abs=1e-12)


def test_inferred_mean_of_vanishing_anticommutator():
    rho = isotropic(IsotropicParams(d=2, p=0.8))
    m = full_moments(rho, spin_half("x"), spin_half("z"))
    assert m.mean_inf_anticommutator == pytest.approx(0.0, abs=1e-12)


def test_inferred_sq_mean_values():
    p = 0.8
    rho2 = isotropic(IsotropicParams(d=2, p=p))
    m2 = full_moments(rho2, spin_half("x"), spin_half("z"))
    assert m2.sq_mean_inf_b1 == pytest.approx(p * p / 4, abs=1e-12)
    p = 0.6
    rho3 = isotropic(IsotropicParams(d=3, p=p))
    b1, b2, _ = qutrit_triplet()
    m3 = full_moments(rho3, b1, b2)
    assert m3.sq_mean_inf_b1 == pytest.approx(2 * p * p / 3, abs=1e-12)


def test_product_of_means_vanishes_on_both_families():
    sx, sz = spin_half("x"), spin_half("z")
    b1, b2, _ = qutrit_triplet()
    for d, (o1, o2) in ((2, (sx, sz)), (3, (b1, b2))):
        for p in (0.0, 0.5, 0.9, 1.0):
            rho = isotropic(IsotropicParams(d=d, p=p))
            assert abs(full_moments(rho, o1, o2).product_of_means_inf) < 1e-12


def test_measurement_settings_labels():
    settings_ = MeasurementSettings.build(spin_half("x"), spin_half("z"))
    assert settings_.pair_commutator.bob.label == "-i[Sx,Sz]"
    assert settings_.pair_commutator.alice.label == "-i[Sx^T,Sz^T]"
    assert settings_.pair_difference.bob.label == "Sx-Sz"
    assert settings_.pair_anticommutator.bob.label == "{Sx,Sz}"


def test_full_moments_at_p0():
    rho = isotropic(IsotropicParams(d=2, p=0.0))
    m = full_moments(rho, spin_half("x"), spin_half("z"))
    assert m.var_inf_b1 == pytest.approx(0.25, abs=1e-12)
    assert m.var_inf_b2 == pytest.approx(0.25, abs=1e-12)
    assert m.var_min_b1 == pytest.approx(0.25, abs=1e-12)
    assert m.abs_mean_inf_commutator == pytest.approx(0.0, abs=1e-12)
    assert m.sq_mean_inf_b1 == pytest.approx(0.0, abs=1e-12)
    assert m.sq_mean_inf_b0 == pytest.approx(0.0, abs=1e-12)
    assert m.product_of_means_inf == pytest.approx(0.0, abs=1e-12)
    assert m.g1 == pytest.approx(0.0, abs=1e-12)
    assert set(m.tables) == {"b1", "b2", "commutator", "anticommutator", "difference"}


def test_full_moments_at_p1_has_zero_inferred_variance():
    rho = isotropic(IsotropicParams(d=2, p=1.0))
    m = full_moments(rho, spin_half("x"), spin_half("z"))
    assert m.var_inf_b1 == pytest.approx(0.0, abs=1e-12)
    assert m.var_min_b1 == pytest.approx(0.0, abs=1e-12)
    assert m.g1 == pytest.approx(1.0, abs=1e-12)


def test_full_moments_as_dict_field_names():
    rho = isotropic(IsotropicParams(d=2, p=0.5))
    m = full_moments(rho, spin_half("x"), spin_half("z"))
    assert tuple(m.as_dict()) == InferredMoments.NUMERIC_FIELDS


def test_moment_batch_reports_first_failing_state():
    settings_ = MeasurementSettings.build(spin_half("x"), spin_half("z"))

    def below_zero(eps):
        # Sz (x) Sz cell (-1/2, -1/2) is -eps
        return np.diag([0.5, 0.5 + eps, 0.0, -eps]).astype(complex)

    good = isotropic(IsotropicParams(d=2, p=0.5)).matrix
    raw = joint_tables(settings_, np.stack([good, below_zero(1e-3), below_zero(2e-3)]))
    with pytest.raises(InferenceError, match="negative joint probability -1.000e-03"):
        moment_batch(settings_, raw, 4)
    batch = moment_batch(settings_, joint_tables(settings_, good[None]), 4)
    assert batch.row(0).as_dict() == full_moments(
        DensityMatrix(good, dims=(2, 2)), settings=settings_
    ).as_dict()


def test_moment_record_rejects_inverted_variances():
    with pytest.raises(InferenceError):
        InferredMoments(
            var_inf_b1=0.1,
            var_inf_b2=0.3,
            var_min_b1=0.2,
            var_min_b2=0.3,
            abs_mean_inf_commutator=0.0,
            mean_inf_anticommutator=0.0,
            sq_mean_inf_b1=0.0,
            sq_mean_inf_b2=0.0,
            sq_mean_inf_b0=0.0,
            product_of_means_inf=0.0,
            g1=0.0,
            g2=0.0,
        )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
def test_linear_estimator_never_beats_conditional_mean(seed, d):
    rng = np.random.default_rng(seed)
    rho = random_bipartite(rng, d, d)
    bob = random_observable(rng, d, "B")
    alice = random_observable(rng, d, "A")
    m = full_moments(rho, bob, bob, explicit_pairing({"B": alice}))
    assert m.var_inf_b1 >= m.var_min_b1 - 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_full_moments_ordering_holds_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    rho = random_bipartite(rng, d, d)
    m = full_moments(rho, random_observable(rng, d, "B1"), random_observable(rng, d, "B2"))
    assert m.var_inf_b1 >= m.var_min_b1 - 1e-10
    assert m.var_inf_b2 >= m.var_min_b2 - 1e-10
