"""Brute-force recomputation of every statistic from explicit outcome tables.

This module is the ground truth the engine is tested against. It shares the
observables' spectral projectors (measurement outcomes must be literally the
same to compare distributions) but redoes all probability and moment
arithmetic in the plainest possible style: explicit index loops and Python
scalar sums, no vectorization, no shortcuts shared with the inference
engine. Each table goes through Bob's partial trace of rho against each of
his projectors, so a cell costs d_A^2 terms rather than D^2. Slowness is
fine; independence is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .observables import Observable, ObservablePairing, decompose, default_pairing
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


def _as_lists(matrix) -> list[list[complex]]:
    return matrix.tolist()


def _bob_partial_trace(rho_rows, q_rows, dim_a: int, dim_b: int) -> list[list[complex]]:
    """Bob's partial trace X[i][j] = sum over k, m of rho[(i, k)][(j, m)] * Q[m][k].

    The full-space index (i, k) is i * dim_b + k. X is dim_a x dim_a, and
    tr[X P] = tr[rho kron(P, Q)] for any P on Alice's side.
    """
    x_rows = []
    for i in range(dim_a):
        x_row = []
        for j in range(dim_a):
            acc = 0j
            for k in range(dim_b):
                rho_row = rho_rows[i * dim_b + k]
                for m in range(dim_b):
                    acc += rho_row[j * dim_b + m] * q_rows[m][k]
            x_row.append(acc)
        x_rows.append(x_row)
    return x_rows


def _trace_product(x_rows, p_rows) -> complex:
    """tr[X P] = sum over i, j of X[i][j] * P[j][i]."""
    total = 0j
    for i, x_row in enumerate(x_rows):
        for x, p_row in zip(x_row, p_rows):
            total += x * p_row[i]
    return total


def enumerate_table(rho: DensityMatrix, pairing: ObservablePairing) -> OutcomeTable:
    """One entry per (Alice projector, Bob projector) pair, Alice's outer.

    Each probability is tr[rho kron(P_a, Q_b)], computed in two loop stages
    without forming the product: Bob's partial trace X_b of rho against Q_b
    (D^2 terms per Q_b), then tr[X_b P_a] (d_A^2 terms per cell). rho and each
    projector are converted to lists once.
    """
    dim_a, dim_b = pairing.alice.dim, pairing.bob.dim
    if not rho.is_bipartite or rho.dims != (dim_a, dim_b):
        raise OracleError(
            f"state dims {rho.dims} do not match pairing ({dim_a}, {dim_b})"
        )
    rho_rows = _as_lists(rho.matrix)
    bob = pairing.bob.spectral
    partials = [
        _bob_partial_trace(rho_rows, _as_lists(q), dim_a, dim_b) for q in bob.projectors
    ]
    # a state with eigenvalues >= -PSD_TOL gives probabilities >= -PSD_TOL * D;
    # those between that floor and PROB_CLAMP are set to 0
    floor = -PSD_TOL * rho.dim
    entries = []
    total = 0.0
    for a_val, a_proj in zip(
        pairing.alice.spectral.eigenvalues, pairing.alice.spectral.projectors
    ):
        p_rows = _as_lists(a_proj)
        for b_val, x_rows in zip(bob.eigenvalues, partials):
            prob = _trace_product(x_rows, p_rows).real
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
    """B3/B4/B0 ("commutator", "anticommutator", "difference") by one naive multiply."""
    x, y = _as_lists(first.matrix), _as_lists(second.matrix)
    n = len(x)
    if kind == "difference":
        rows = [[x[i][j] - y[i][j] for j in range(n)] for i in range(n)]
    else:
        # yx = (xy)^dagger for Hermitian x, y; taking it so keeps the results
        # exactly Hermitian
        xy = _naive_matmul(x, y)
        yx = [[xy[j][i].conjugate() for j in range(n)] for i in range(n)]
        if kind == "commutator":
            rows = [[-1j * (xy[i][j] - yx[i][j]) for j in range(n)] for i in range(n)]
        else:
            rows = [[xy[i][j] + yx[i][j] for j in range(n)] for i in range(n)]
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
    decompose(obs for pair in pairs.values() for obs in (pair.bob, pair.alice))
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
