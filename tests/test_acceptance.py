"""Release acceptance checks.

One test per criterion, each printing a single [PASS]/[FAIL] line (visible
with `pytest tests/test_acceptance.py -v -s`). The tolerances and runtime
budgets encoded here are contractual; loosening them is not a fix.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

from steercrit import (
    DensityMatrix,
    Observable,
    closed_form_report,
    commutator_observable,
    default_pairing,
    diff_rows,
    evaluate_criterion,
    expectation,
    explicit_pairing,
    family_observables,
    family_state,
    find_threshold,
    full_moments,
    hur_rhs,
    oracle_moments,
    srur_rhs,
    sweep,
    uncertainty_terms,
)
from steercrit.cli import main as cli_main

GOLDEN = (math.sqrt(5) - 1) / 2


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_cli(argv: list[str]) -> tuple[int, dict, float]:
    buf = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    elapsed = perf_counter() - t0
    return rc, json.loads(buf.getvalue()), elapsed


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def _random_single_system(rng: np.random.Generator, d: int) -> DensityMatrix:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims=(d,))


def _random_bipartite(rng: np.random.Generator, d: int) -> DensityMatrix:
    n = d * d
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims=(d, d))


def _single_system_instances():
    """The 1000 random (state, B1, B2) triples used by criteria 5 and 8."""
    rng = np.random.default_rng(5150)
    for i in range(1000):
        d = 2 + i % 3  # dims 2, 3, 4
        yield (
            _random_single_system(rng, d),
            Observable("B1", _random_hermitian(rng, d)),
            Observable("B2", _random_hermitian(rng, d)),
        )


def _bipartite_instances():
    """The 200 random bipartite instances used by criteria 6, 7 and 8."""
    rng = np.random.default_rng(31337)
    for i in range(200):
        d = 2 if i % 2 == 0 else 3
        rho = _random_bipartite(rng, d)
        b1 = Observable("B1", _random_hermitian(rng, d))
        b2 = Observable("B2", _random_hermitian(rng, d))
        if i % 4 < 2:
            rule = default_pairing
        else:
            rule = explicit_pairing(
                {
                    "B1": Observable("A1", _random_hermitian(rng, d)),
                    "B2": Observable("A2", _random_hermitian(rng, d)),
                }
            )
        yield rho, b1, b2, rule


def test_criterion_1_qubit_threshold_reproduction():
    rc, blob, elapsed = _run_cli(
        ["threshold", "--d", "2", "--criterion", "srur", "--mode", "paper-closed-form"]
    )
    p_star = blob["p_star"]
    ok = rc == 0 and 0.555 <= p_star <= 0.570 and elapsed < 0.1
    _report(
        1,
        ok,
        f"qubit closed-form srur p* = {p_star:.7f} (window [0.555, 0.570]), "
        f"{elapsed * 1e3:.1f} ms (budget 100 ms)",
    )


def test_criterion_2_qutrit_threshold_reproduction():
    rc, blob, elapsed = _run_cli(
        ["threshold", "--d", "3", "--criterion", "srur", "--mode", "paper-closed-form"]
    )
    p_star = blob["p_star"]
    ok = rc == 0 and 0.8995 <= p_star <= 0.9015 and elapsed < 0.1
    _report(
        2,
        ok,
        f"qutrit closed-form srur p* = {p_star:.7f} (window [0.8995, 0.9015]), "
        f"{elapsed * 1e3:.1f} ms (budget 100 ms)",
    )


def test_criterion_3_inferred_variance_pins():
    worst = 0.0
    for p in (0.0, 0.3, 0.56, 0.9, 1.0):
        shrink = 1.0 - p * p
        m2 = full_moments(family_state("qubit-xz", p), *family_observables("qubit-xz"))
        worst = max(
            worst,
            abs(m2.var_inf_b1 - shrink / 4),
            abs(m2.var_inf_b2 - shrink / 4),
        )
        m3 = full_moments(
            family_state("qutrit-b1b2", p), *family_observables("qutrit-b1b2")
        )
        worst = max(
            worst,
            abs(m3.var_inf_b1 - (2 / 3) * shrink),
            abs(m3.var_inf_b2 - (1 / 3) * shrink),
        )
    _report(
        3,
        worst < 1e-9,
        f"engine vs closed-form inferred variances, both families, "
        f"p in {{0, 0.3, 0.56, 0.9, 1}}: max abs error {worst:.2e} (tol 1e-9)",
    )


def test_criterion_4_hur_baseline():
    result = find_threshold("isotropic", 2, criterion="hur", mode="linear-g")
    err = abs(result.p_star - GOLDEN)
    _report(
        4,
        err < 1e-3,
        f"engine hur qubit p* = {result.p_star:.7f} vs (sqrt(5)-1)/2 = "
        f"{GOLDEN:.7f}, |diff| = {err:.2e} (tol 1e-3)",
    )


def test_criterion_5_single_system_uncertainty_suite():
    t0 = perf_counter()
    worst = math.inf
    for rho, b1, b2 in _single_system_instances():
        lhs, rhs = uncertainty_terms(rho, b1, b2)
        worst = min(worst, lhs - rhs)
    elapsed = perf_counter() - t0
    ok = worst >= -1e-9 and elapsed < 5.0
    _report(
        5,
        ok,
        f"variance-product bound on 1000 random single-system instances "
        f"(dims 2-4): min margin {worst:.2e} (floor -1e-9), "
        f"{elapsed:.2f} s (budget 5 s)",
    )


def test_criterion_6_oracle_equivalence():
    t0 = perf_counter()
    worst = 0.0
    for rho, b1, b2, rule in _bipartite_instances():
        engine = full_moments(rho, b1, b2, rule).as_dict()
        oracle = oracle_moments(rho, b1, b2, rule)
        for key, val in oracle.items():
            worst = max(worst, abs(engine[key] - val))
    elapsed = perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    _report(
        6,
        ok,
        f"engine vs brute-force oracle, all 12 fields on 200 bipartite "
        f"instances (dims 2, 3): max abs diff {worst:.2e} (tol 1e-10), "
        f"{elapsed:.2f} s (budget 30 s)",
    )


def test_criterion_7_variance_ordering():
    worst = math.inf
    for rho, b1, b2, rule in _bipartite_instances():
        m = full_moments(rho, b1, b2, rule)
        worst = min(worst, m.var_inf_b1 - m.var_min_b1, m.var_inf_b2 - m.var_min_b2)
    _report(
        7,
        worst >= -1e-10,
        f"linear-estimator variance >= conditional-mean variance on the same "
        f"200 instances: min difference {worst:.2e} (floor -1e-10)",
    )


def test_criterion_8_dominance_and_p0_sanity():
    worst = math.inf
    for rho, b1, b2 in _single_system_instances():
        _, rhs_srur_value = uncertainty_terms(rho, b1, b2)
        worst = min(worst, rhs_srur_value - _hur_part(rho, b1, b2))
    for rho, b1, b2, rule in _bipartite_instances():
        m = full_moments(rho, b1, b2, rule)
        worst = min(worst, srur_rhs(m) - hur_rhs(m))
    never_violated = True
    for family in ("qubit-xz", "qutrit-b1b2"):
        rho = family_state(family, 0.0)
        b1, b2 = family_observables(family)
        for criterion in ("srur", "hur"):
            for mode in ("linear-g", "conditional-mean"):
                report = evaluate_criterion(
                    rho, b1, b2, criterion=criterion, mode=mode
                )
                never_violated = never_violated and not report.violated
            never_violated = (
                never_violated
                and not closed_form_report(family, 0.0, criterion).violated
            )
    ok = worst >= 0.0 and never_violated
    _report(
        8,
        ok,
        f"rhs_srur - rhs_hur >= 0 on all criterion 5-6 evaluations "
        f"(min {worst:.2e}) and p=0 isotropic states never flag as violated "
        f"({never_violated})",
    )


def _hur_part(rho: DensityMatrix, b1: Observable, b2: Observable) -> float:
    comm = expectation(rho, commutator_observable(b1, b2).matrix)
    return 0.25 * comm * comm


def test_criterion_9_discrepancy_surfaced_and_regression_pinned():
    engine = full_moments(family_state("qubit-xz", 0.0), *family_observables("qubit-xz"))
    rows = {row.slot: row for row in diff_rows("qubit-xz", 0.0, engine)}
    product = rows["product_of_means_inf"]
    diff_ok = (
        len(rows) > 0
        and product.engine_value == 0.0
        and product.paper_value == -0.0625
        and product.abs_diff == 0.0625
    )
    result = find_threshold("isotropic", 2, criterion="srur", mode="linear-g")
    pin_ok = abs(result.p_star - GOLDEN) < 1e-6
    # oracle verification of the pinned root: the sign of the srur margin
    # computed purely from brute-force tables flips across it
    b1, b2 = family_observables("qubit-xz")

    def oracle_margin(p: float) -> float:
        m = oracle_moments(family_state("qubit-xz", p), b1, b2)
        lhs = m["var_inf_b1"] * m["var_inf_b2"]
        rhs = 0.25 * m["abs_mean_inf_commutator"] ** 2 + (
            0.5 * m["mean_inf_anticommutator"] - m["product_of_means_inf"]
        ) ** 2
        return lhs - rhs

    oracle_ok = oracle_margin(result.p_star - 1e-3) > 0 > oracle_margin(
        result.p_star + 1e-3
    )
    ok = diff_ok and pin_ok and oracle_ok
    _report(
        9,
        ok,
        f"diff report at p=0 nonempty with product-of-means |diff| = "
        f"{product.abs_diff} (exactly 0.0625: {diff_ok}); engine qubit srur "
        f"p* = {result.p_star:.9f} pinned at (sqrt(5)-1)/2 (err "
        f"{abs(result.p_star - GOLDEN):.2e}), oracle sign flip {oracle_ok}",
    )


def test_criterion_10_sweep_performance():
    t0 = perf_counter()
    r2 = sweep("isotropic", 2, steps=1000, jobs=1)
    r3 = sweep("isotropic", 3, steps=1000, jobs=1)
    elapsed = perf_counter() - t0
    ok = elapsed < 1.0 and len(r2.rows) == 1000 and len(r3.rows) == 1000
    _report(
        10,
        ok,
        f"two 1000-point engine sweeps (d=2 and d=3), single-threaded: "
        f"{elapsed:.3f} s (budget 1 s)",
    )
