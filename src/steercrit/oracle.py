"""Brute-force recomputation of every statistic from explicit outcome tables.

This module is the ground truth the engine is tested against. It shares the
observables' spectral projectors (measurement outcomes must be literally the
same to compare distributions) but redoes all probability and moment
arithmetic in the plainest possible style: explicit index loops and Python
scalar sums, no vectorization, no shortcuts shared with the inference
engine. Slowness is fine; independence is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .observables import Observable, ObservablePairing, default_pairing
from .states import DensityMatrix
from .tolerances import ALICE_POWER_FLOOR, NORMALIZATION_TOL, PROB_CLAMP, PSD_TOL


class OracleError(ValueError):
    """An enumerated table failed a sanity check."""


@dataclass(frozen=True)
class OutcomeTable:
    """Flat list of (alice_outcome, bob_outcome, probability) entries."""

    entries: tuple[tuple[float, float, float], ...]

    def to_json(self) -> list:
        return [[a, b, p] for (a, b, p) in self.entries]


def _naive_kron(x, y) -> list[list[complex]]:
    nx, ny = len(x), len(y)
    out = [[0j] * (nx * ny) for _ in range(nx * ny)]
    for i in range(nx):
        for j in range(nx):
            for k in range(ny):
                for m in range(ny):
                    out[i * ny + k][j * ny + m] = x[i][j] * y[k][m]
    return out


def _naive_trace_product(x, y) -> complex:
    # tr(X Y) without forming the product
    n = len(x)
    total = 0j
    for r in range(n):
        for s in range(n):
            total += x[r][s] * y[s][r]
    return total


def _as_lists(matrix) -> list[list[complex]]:
    return [[complex(z) for z in row] for row in matrix]


def enumerate_table(rho: DensityMatrix, pairing: ObservablePairing) -> OutcomeTable:
    """One entry per (Alice projector, Bob projector) pair.

    Each probability is tr[rho kron(P_a, Q_b)], computed with the naive
    loop arithmetic above.
    """
    if not rho.is_bipartite or rho.dims != (pairing.alice.dim, pairing.bob.dim):
        raise OracleError(
            f"state dims {rho.dims} do not match pairing "
            f"({pairing.alice.dim}, {pairing.bob.dim})"
        )
    rho_rows = _as_lists(rho.matrix)
    # a state with eigenvalues >= -PSD_TOL gives probabilities >= -PSD_TOL * D;
    # those between that floor and PROB_CLAMP are set to 0
    floor = -PSD_TOL * rho.dim
    entries = []
    total = 0.0
    for a_val, a_proj in zip(
        pairing.alice.spectral.eigenvalues, pairing.alice.spectral.projectors
    ):
        a_rows = _as_lists(a_proj)
        for b_val, b_proj in zip(
            pairing.bob.spectral.eigenvalues, pairing.bob.spectral.projectors
        ):
            joint = _naive_kron(a_rows, _as_lists(b_proj))
            prob = _naive_trace_product(rho_rows, joint).real
            if prob < floor:
                raise OracleError(f"negative probability {prob:.3e}")
            total += prob
            if prob < PROB_CLAMP:
                prob = 0.0
            entries.append((float(a_val), float(b_val), float(prob)))
    if abs(total - 1.0) >= NORMALIZATION_TOL:
        raise OracleError(f"table sums to {total:.12g}, not 1")
    return OutcomeTable(tuple(entries))


def table_moment(table: OutcomeTable, f) -> float:
    """sum over entries of prob * f(a, b)."""
    total = 0.0
    for a, b, prob in table.entries:
        total += prob * f(a, b)
    return total


def _alice_groups(table: OutcomeTable) -> dict[float, list[tuple[float, float]]]:
    groups: dict[float, list[tuple[float, float]]] = {}
    for a, b, prob in table.entries:
        groups.setdefault(a, []).append((b, prob))
    return groups


def _oracle_g(table: OutcomeTable) -> float:
    mean_ab = table_moment(table, lambda a, b: a * b)
    mean_a2 = table_moment(table, lambda a, b: a * a)
    if mean_a2 <= ALICE_POWER_FLOOR:
        raise OracleError(f"<A^2> = {mean_a2:.3e} too small for the estimator")
    return mean_ab / mean_a2


def _oracle_var_linear(table: OutcomeTable) -> float:
    g = _oracle_g(table)
    return table_moment(table, lambda a, b: (b - g * a) ** 2)


def _oracle_var_min(table: OutcomeTable) -> float:
    total = 0.0
    for pairs in _alice_groups(table).values():
        p_a = sum(prob for _, prob in pairs)
        if p_a <= 0.0:
            continue
        mean = sum(prob * b for b, prob in pairs) / p_a
        mean_sq = sum(prob * b * b for b, prob in pairs) / p_a
        total += p_a * (mean_sq - mean * mean)
    return total


def _oracle_abs_mean(table: OutcomeTable) -> float:
    total = 0.0
    for pairs in _alice_groups(table).values():
        total += abs(sum(prob * b for b, prob in pairs))
    return total


def _oracle_mean(table: OutcomeTable) -> float:
    return table_moment(table, lambda a, b: b)


def _oracle_sq_mean(table: OutcomeTable) -> float:
    total = 0.0
    for pairs in _alice_groups(table).values():
        p_a = sum(prob for _, prob in pairs)
        if p_a <= 0.0:
            continue
        weighted = sum(prob * b for b, prob in pairs)
        total += weighted * weighted / p_a
    return total


def _naive_matmul(x, y) -> list[list[complex]]:
    n = len(x)
    out = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc += x[i][k] * y[k][j]
            out[i][j] = acc
    return out


def _derived_observable(kind: str, first: Observable, second: Observable) -> Observable:
    """B3/B4/B0 ("commutator", "anticommutator", "difference") by naive multiplies."""
    x, y = _as_lists(first.matrix), _as_lists(second.matrix)
    n = len(x)
    xy, yx = _naive_matmul(x, y), _naive_matmul(y, x)
    if kind == "commutator":
        rows = [[-1j * (xy[i][j] - yx[i][j]) for j in range(n)] for i in range(n)]
    elif kind == "anticommutator":
        rows = [[xy[i][j] + yx[i][j] for j in range(n)] for i in range(n)]
    else:
        rows = [[x[i][j] - y[i][j] for j in range(n)] for i in range(n)]
    return Observable(f"oracle:{kind}({first.label},{second.label})", rows)


def _pairings(b1: Observable, b2: Observable, pairing_rule) -> dict:
    """Table name -> pairing, Alice's derived operators built from her A1, A2."""
    pair1, pair2 = pairing_rule(b1), pairing_rule(b2)
    a1, a2 = pair1.alice, pair2.alice
    pairs = {"b1": pair1, "b2": pair2}
    for kind in ("commutator", "anticommutator", "difference"):
        pairs[kind] = ObservablePairing(
            bob=_derived_observable(kind, b1, b2),
            alice=_derived_observable(kind, a1, a2),
        )
    return pairs


def _table_moments(t: dict) -> dict:
    """Every InferredMoments field from the five tables, keyed like as_dict()."""
    sq1, sq2 = _oracle_sq_mean(t["b1"]), _oracle_sq_mean(t["b2"])
    sq0 = _oracle_sq_mean(t["difference"])
    return {
        "var_inf_b1": _oracle_var_linear(t["b1"]),
        "var_inf_b2": _oracle_var_linear(t["b2"]),
        "var_min_b1": _oracle_var_min(t["b1"]),
        "var_min_b2": _oracle_var_min(t["b2"]),
        "abs_mean_inf_commutator": _oracle_abs_mean(t["commutator"]),
        "mean_inf_anticommutator": _oracle_mean(t["anticommutator"]),
        "sq_mean_inf_b1": sq1,
        "sq_mean_inf_b2": sq2,
        "sq_mean_inf_b0": sq0,
        "product_of_means_inf": 0.5 * (sq1 + sq2 - sq0),
        "g1": _oracle_g(t["b1"]),
        "g2": _oracle_g(t["b2"]),
    }


def oracle_moments(
    rho: DensityMatrix,
    b1: Observable,
    b2: Observable,
    pairing_rule=default_pairing,
) -> dict:
    """Recompute every InferredMoments field from brute-force tables.

    Mirrors the engine's construction (Alice's derived operators come from
    her A1, A2) but every number is a table sum. Returns a plain dict keyed
    exactly like InferredMoments.as_dict().
    """
    pairs = _pairings(b1, b2, pairing_rule)
    return _table_moments({name: enumerate_table(rho, pair) for name, pair in pairs.items()})


def audit_dump(
    rho: DensityMatrix,
    b1: Observable,
    b2: Observable,
    pairing_rule=default_pairing,
) -> dict:
    """JSON-ready dump of the five outcome tables plus the oracle moments.

    Each table is enumerated once; the moments are sums over those tables.
    """
    pairs = _pairings(b1, b2, pairing_rule)
    tables = {name: enumerate_table(rho, pair) for name, pair in pairs.items()}
    return {
        "tables": {
            name: {"bob": pair.bob.label, "alice": pair.alice.label,
                   "entries": tables[name].to_json()}
            for name, pair in pairs.items()
        },
        "moments": _table_moments(tables),
    }
