"""Brute-force probability-table oracle and engine cross-validation."""

from __future__ import annotations

import numpy as np
import pytest

from steercrit import (
    DensityMatrix,
    InferredMoments,
    IsotropicParams,
    Observable,
    OracleError,
    audit_dump,
    default_pairing,
    enumerate_table,
    explicit_pairing,
    full_moments,
    isotropic,
    max_entangled,
    oracle_moments,
    qutrit_triplet,
    spin_half,
    table_moment,
)

from conftest import random_bipartite, random_observable


def _prob_of(table, a, b):
    for a_val, b_val, prob in table.entries:
        if abs(a_val - a) < 1e-9 and abs(b_val - b) < 1e-9:
            return prob
    raise AssertionError(f"no entry for outcomes ({a}, {b})")


def test_bell_table_in_z():
    table = enumerate_table(max_entangled(2), default_pairing(spin_half("z")))
    assert len(table.entries) == 4
    assert _prob_of(table, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert _prob_of(table, -0.5, -0.5) == pytest.approx(0.5, abs=1e-12)
    assert _prob_of(table, 0.5, -0.5) == 0.0
    assert _prob_of(table, -0.5, 0.5) == 0.0


def test_uniform_table_on_mixed_qutrits():
    rho = DensityMatrix(np.eye(9) / 9, dims=(3, 3))
    table = enumerate_table(rho, default_pairing(qutrit_triplet()[0]))
    assert len(table.entries) == 9
    for _, _, prob in table.entries:
        assert prob == pytest.approx(1 / 9, abs=1e-12)


def test_isotropic_qubit_table_in_x():
    rho = isotropic(IsotropicParams(d=2, p=0.5))
    table = enumerate_table(rho, default_pairing(spin_half("x")))
    assert _prob_of(table, 0.5, 0.5) == pytest.approx(3 / 8, abs=1e-12)
    assert _prob_of(table, -0.5, -0.5) == pytest.approx(3 / 8, abs=1e-12)
    assert _prob_of(table, 0.5, -0.5) == pytest.approx(1 / 8, abs=1e-12)
    assert _prob_of(table, -0.5, 0.5) == pytest.approx(1 / 8, abs=1e-12)


def test_degenerate_spectrum_is_merged():
    bob = Observable("deg", np.diag([1.0, 1.0, -1.0]))
    table = enumerate_table(
        DensityMatrix(np.eye(9) / 9, dims=(3, 3)), default_pairing(bob)
    )
    assert len(table.entries) == 4  # two merged outcomes on each side
    assert _prob_of(table, 1.0, 1.0) == pytest.approx(4 / 9, abs=1e-12)
    assert _prob_of(table, -1.0, -1.0) == pytest.approx(1 / 9, abs=1e-12)


def test_table_moment_examples():
    table = enumerate_table(max_entangled(2), default_pairing(spin_half("z")))
    assert table_moment(table, lambda a, b: a * b) == pytest.approx(0.25, abs=1e-12)
    assert table_moment(table, lambda a, b: b) == pytest.approx(0.0, abs=1e-12)
    assert table_moment(table, lambda a, b: 1.0) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_table_rejects_mismatch():
    with pytest.raises(OracleError):
        enumerate_table(max_entangled(3), default_pairing(spin_half("x")))


def test_oracle_moment_keys_match_engine_record():
    rho = isotropic(IsotropicParams(d=2, p=0.3))
    got = oracle_moments(rho, spin_half("x"), spin_half("z"))
    assert tuple(got) == InferredMoments.NUMERIC_FIELDS


def test_oracle_pins_isotropic_qutrit():
    p = 0.9
    rho = isotropic(IsotropicParams(d=3, p=p))
    b1, b2, _ = qutrit_triplet()
    got = oracle_moments(rho, b1, b2)
    assert got["sq_mean_inf_b1"] == pytest.approx(2 * p * p / 3, abs=1e-12)
    assert got["sq_mean_inf_b2"] == pytest.approx(p * p / 3, abs=1e-12)
    assert got["sq_mean_inf_b0"] == pytest.approx(p * p, abs=1e-12)
    assert got["abs_mean_inf_commutator"] == pytest.approx(
        np.sqrt(8) * p / 3, abs=1e-12
    )
    assert got["mean_inf_anticommutator"] == pytest.approx(0.0, abs=1e-12)
    assert got["product_of_means_inf"] == pytest.approx(0.0, abs=1e-12)
    assert got["g1"] == pytest.approx(p, abs=1e-12)
    assert got["var_inf_b1"] == pytest.approx((2 / 3) * (1 - p * p), abs=1e-12)


def test_oracle_linear_variance_matches_engine_estimator(rng):
    for _ in range(20):
        d = int(rng.integers(2, 4))
        rho = random_bipartite(rng, d, d)
        bob = random_observable(rng, d, "B")
        other = random_observable(rng, d, "C")
        want = full_moments(rho, bob, other).var_inf_b1
        got = oracle_moments(rho, bob, other)["var_inf_b1"]
        assert got == pytest.approx(want, abs=1e-10)


def test_oracle_matches_engine_on_random_instances(rng):
    for _ in range(25):
        d = int(rng.integers(2, 4))
        rho = random_bipartite(rng, d, d)
        b1 = random_observable(rng, d, "B1")
        b2 = random_observable(rng, d, "B2")
        rule = explicit_pairing(
            {"B1": random_observable(rng, d, "A1"), "B2": random_observable(rng, d, "A2")}
        )
        engine = full_moments(rho, b1, b2, rule).as_dict()
        oracle = oracle_moments(rho, b1, b2, rule)
        for key, val in oracle.items():
            assert engine[key] == pytest.approx(val, abs=1e-10), key


def test_audit_dump_structure():
    rho = isotropic(IsotropicParams(d=2, p=0.4))
    dump = audit_dump(rho, spin_half("x"), spin_half("z"))
    assert set(dump) == {"tables", "moments"}
    assert set(dump["tables"]) == {
        "b1",
        "b2",
        "commutator",
        "anticommutator",
        "difference",
    }
    entry = dump["tables"]["b1"]
    assert entry["bob"] == "Sx"
    assert entry["alice"] == "Sx^T"
    assert tuple(dump["moments"]) == InferredMoments.NUMERIC_FIELDS
