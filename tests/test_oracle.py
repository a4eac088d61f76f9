"""Brute-force probability-table oracle and engine cross-validation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from steercrit import observables
from steercrit import (
    DensityMatrix,
    InferredMoments,
    Observable,
    OracleError,
    SpectralDecomposition,
    anticommutator_observable,
    audit_dump,
    commutator_observable,
    default_pairing,
    eig_hermitian,
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

from conftest import random_bipartite, random_observable, rotated


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


def _dense_table_cases(rng):
    """(state, pairing) pairs: full-rank and rank-deficient states, with the
    default pairing and with an Alice observable whose spectrum is degenerate."""
    for d in (2, 3, 4):
        for _ in range(5):
            yield random_bipartite(rng, d, d), default_pairing(random_observable(rng, d))
    for d, spectrum in ((3, [1.0, 1.0, -1.0]), (4, [1.0, 1.0, 0.0, -1.0])):
        for rank in (1, 2, d * d):
            for _ in range(3):
                bob = random_observable(rng, d, "B")
                rule = explicit_pairing({"B": rotated(rng, "A", spectrum)})
                yield random_bipartite(rng, d, d, rank), rule(bob)
    for d in (2, 3, 4):
        for rank in (1, 2):
            yield random_bipartite(rng, d, d, rank), default_pairing(random_observable(rng, d))


def test_table_entries_match_dense_kron_traces(rng):
    alice_ranks = set()
    for rho, pairing in _dense_table_cases(rng):
        table = enumerate_table(rho, pairing)
        expected = [
            np.trace(rho.matrix @ np.kron(p, q)).real
            for p in pairing.alice.spectral.projectors
            for q in pairing.bob.spectral.projectors
        ]
        assert len(table.entries) == len(expected)
        for (_, _, prob), ref in zip(table.entries, expected):
            assert prob == pytest.approx(ref, abs=1e-14)
        alice_ranks |= {round(np.trace(p).real) for p in pairing.alice.spectral.projectors}
    # the degenerate spectra were merged into a rank-2 outcome
    assert alice_ranks == {1, 2}


@pytest.mark.parametrize("s", (1e3, 1e4))
def test_scaled_near_commuting_pair_builds_on_both_routes(s):
    # B1 is s * I up to roundoff, so [B1, B2] vanishes; building -i[B1, B2]
    # from two products left a residual of order 1e-16 s^2 against its own
    # tiny entries and raised "not Hermitian"
    rng = np.random.default_rng(4242)
    rho = isotropic(2, 0.5)
    for _ in range(50):
        b1 = Observable("B1", s * rotated(rng, "U", [1.0, 1.0]).matrix)
        b2 = Observable("B2", s * rotated(rng, "V", [0.5, -0.5]).matrix)
        engine = full_moments(rho, b1, b2).as_dict()
        for key, val in oracle_moments(rho, b1, b2).items():
            assert engine[key] == pytest.approx(val, abs=1e-10 * s * s), key
        for derive in (commutator_observable, anticommutator_observable):
            m = derive(b1, b2).matrix
            assert np.array_equal(m, m.conj().T)


def test_isotropic_qubit_table_in_x():
    rho = isotropic(2, 0.5)
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
    rho = isotropic(2, 0.3)
    got = oracle_moments(rho, spin_half("x"), spin_half("z"))
    assert tuple(got) == tuple(f.name for f in dataclasses.fields(InferredMoments))


def test_oracle_pins_isotropic_qutrit():
    p = 0.9
    rho = isotropic(3, p)
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
    rho = isotropic(2, 0.4)
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
    assert tuple(dump["moments"]) == tuple(f.name for f in dataclasses.fields(InferredMoments))


def _trace_gap(rho, b1, b2) -> float:
    """Largest |engine - plain trace| over g and var_inf of both settings.

    With A = B^T (the default pairing), g = tr[rho(A x B)] / tr[rho(A^2 x I)]
    and var_inf = tr[rho(I x B^2)] - g tr[rho(A x B)]. No spectral
    decomposition is involved, so an eigensolver fault cannot cancel out.
    """
    engine = full_moments(rho, b1, b2).as_dict()
    eye = np.eye(b1.dim)

    def trace(x):
        return np.trace(rho.matrix @ x).real

    gap = 0.0
    for n, bob in ((1, b1.matrix), (2, b2.matrix)):
        alice = bob.T
        ab = trace(np.kron(alice, bob))
        g = ab / trace(np.kron(alice @ alice, eye))
        var = trace(np.kron(eye, bob @ bob)) - g * ab
        gap = max(gap, abs(engine[f"g{n}"] - g), abs(engine[f"var_inf_b{n}"] - var))
    return gap


def _random_instances(rng, count: int):
    for _ in range(count):
        d = int(rng.integers(2, 4))
        yield (
            random_bipartite(rng, d, d),
            random_observable(rng, d, "B1"),
            random_observable(rng, d, "B2"),
        )


def test_linear_moments_match_plain_traces(rng):
    for rho, b1, b2 in _random_instances(rng, 25):
        assert _trace_gap(rho, b1, b2) < 1e-9


def test_trace_check_sees_reversed_projectors(rng, monkeypatch):
    # settings decompose their operators as one (K, d, d) stack
    def reversed_projectors(stack):
        return tuple(
            SpectralDecomposition(spec.eigenvalues, spec.projectors[::-1])
            for spec in eig_hermitian(stack)
        )

    monkeypatch.setattr(observables, "eig_hermitian", reversed_projectors)
    worst = 0.0
    for rho, b1, b2 in _random_instances(rng, 25):
        worst = max(worst, _trace_gap(rho, b1, b2))
        # the oracle shares the engine's projectors, so it cannot see the fault
        engine = full_moments(rho, b1, b2).as_dict()
        for key, val in oracle_moments(rho, b1, b2).items():
            assert engine[key] == pytest.approx(val, abs=1e-10), key
    assert worst > 1e-3
