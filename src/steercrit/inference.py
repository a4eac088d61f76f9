"""Measurement statistics: joint distributions and inferred moments.

Alice measures her half of a bipartite state to estimate Bob's outcomes.
Two estimators are supported for the inferred variance: the linear one
B_est = g A with g = <A tensor B> / <A^2> (mode "linear-g") and the
conditional mean (mode "conditional-mean"), which is optimal and never worse.
The remaining inferred quantities (absolute commutator mean, anticommutator
mean, squared means and the product of means obtained from the difference
setting B0 = B1 - B2 by polarization) are always conditional-mean based.

Every moment, the linear-g ones included, is a sum over the joint outcome
tables P(a, b) = tr[rho (P_a tensor Q_b)]. The engine evaluates N states at
once: each table carries a leading batch axis and each field of the one
InferredMoments record becomes an (N,) array; a single state is a batch of
1, and row(i) gives state i's record of floats. Every reduction
acts row by row, so row i does not depend on N, and a sweep row equals the
single evaluation at the same state bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import (
    Observable,
    ObservablePairing,
    anticommutator_observable,
    commutator_observable,
    decompose,
    default_pairing,
    difference_observable,
)
from .states import DensityMatrix
from .tolerances import (
    ALICE_POWER_FLOOR,
    NORMALIZATION_TOL,
    PROB_CLAMP,
    PSD_TOL,
    VARIANCE_ORDER_TOL,
)


MODE_LINEAR_G = "linear-g"
MODE_CONDITIONAL_MEAN = "conditional-mean"
# the published closed forms of closed_forms, not an engine estimator
MODE_CLOSED_FORM = "paper-closed-form"


class InferenceError(ValueError):
    """Ill-posed statistical quantity (bad table, vanishing <A^2>, ...)."""


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Outcome table P(a, b) for one (Alice, Bob) observable pairing."""

    alice_outcomes: tuple[float, ...]
    bob_outcomes: tuple[float, ...]
    probs: np.ndarray


def _check_state_matches(rho: DensityMatrix, pairing: ObservablePairing) -> None:
    if not rho.is_bipartite:
        raise InferenceError("joint statistics need a bipartite state")
    if rho.dims != (pairing.alice.dim, pairing.bob.dim):
        raise InferenceError(
            f"state dims {rho.dims} do not match pairing dims "
            f"({pairing.alice.dim}, {pairing.bob.dim})"
        )


# Checks are (bad-row mask, row -> message) pairs listed in the order a single
# evaluation meets them; _raise_first reports the first failing row.


def _raise_first(checks: list) -> None:
    failing = [int(np.argmax(bad)) for bad, _ in checks if bad.any()]
    if failing:
        row = min(failing)
        message = next(message for bad, message in checks if bad[row])
        raise InferenceError(message(row))


def _table_checks(raw: np.ndarray, dim: int) -> list:
    low = raw.min(axis=(1, 2))
    total = raw.sum(axis=(1, 2))
    return [
        (low < -PSD_TOL * dim, lambda i: f"negative joint probability {low[i]:.3e}"),
        (
            np.abs(total - 1.0) >= NORMALIZATION_TOL,
            lambda i: f"joint probabilities sum to {total[i]:.12g}, not 1",
        ),
    ]


def _order_checks(fields: dict) -> list:
    """var_inf >= var_min - VARIANCE_ORDER_TOL * max(1, <B^2>), float or (N,).

    <B^2> = var_min + sq_mean_inf by the law of total variance; the absolute
    values keep a roundoff-negative term from shrinking the tolerance.
    """
    checks = []
    for key in ("b1", "b2"):
        inf = np.atleast_1d(fields[f"var_inf_{key}"])
        low = np.atleast_1d(fields[f"var_min_{key}"])
        power = np.abs(low) + np.abs(np.atleast_1d(fields[f"sq_mean_inf_{key}"]))
        checks.append((
            inf < low - VARIANCE_ORDER_TOL * np.maximum(1.0, power),
            lambda i, key=key, inf=inf, low=low: (
                f"var_inf_{key} {float(inf[i])!r} below var_min_{key} {float(low[i])!r}"
            ),
        ))
    return checks


def _clamp(raw: np.ndarray) -> np.ndarray:
    probs = np.where(raw < PROB_CLAMP, 0.0, raw)
    probs.setflags(write=False)
    return probs


def _contract(matrices: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """tr[rho_n (P_a tensor Q_b)]: (N, D, D) states -> (N, na, nb) raw tables."""
    return np.einsum("nij,abji->nab", matrices, stack).real


def _conditional_sums(probs: np.ndarray, bob_outcomes) -> tuple:
    """Per Alice outcome: P(a), sum_b P(a,b) b, sum_b P(a,b) b^2; each (N, na)."""
    b = np.asarray(bob_outcomes)
    return (
        probs.sum(axis=2),
        np.einsum("nab,b->na", probs, b),
        np.einsum("nab,b->na", probs, b * b),
    )


def _over_p_a(values: np.ndarray, p_a: np.ndarray) -> np.ndarray:
    """values / P(a), 0 where P(a) = 0 (there the clamped row is all zero)."""
    return np.divide(values, p_a, out=np.zeros_like(values), where=p_a > 0.0)


def _var_min(p_a, m1, m2) -> np.ndarray:
    """sum_a P(a) Var(B | a); zero-probability Alice outcomes contribute nothing."""
    return np.maximum(0.0, (m2 - _over_p_a(m1 * m1, p_a)).sum(axis=1))


def _sq_mean(p_a, m1) -> np.ndarray:
    """sum_a P(a) <B>_a^2."""
    return _over_p_a(m1 * m1, p_a).sum(axis=1)


def _linear(p_a, m1, m2, alice_outcomes) -> tuple:
    """<A^2>, g = <A tensor B> / <A^2> and <(B - g A)^2>, from table sums."""
    a = np.asarray(alice_outcomes)
    mean_a2 = np.einsum("na,a->n", p_a, a * a)
    mean_ab = np.einsum("na,a->n", m1, a)
    mean_b2 = m2.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = mean_ab / mean_a2
        var = np.maximum(0.0, mean_b2 - 2.0 * g * mean_ab + g * g * mean_a2)
    return mean_a2, g, var


def _alice_power_check(mean_a2: np.ndarray) -> tuple:
    return (
        mean_a2 <= ALICE_POWER_FLOOR,
        lambda i: f"<A^2> = {mean_a2[i]:.3e} is too small to define the estimator slope",
    )


def joint_distribution(rho: DensityMatrix, pairing: ObservablePairing) -> JointDistribution:
    """P(a, b) = tr[rho (P_a tensor Q_b)] over merged eigenprojectors."""
    _check_state_matches(rho, pairing)
    raw = _contract(rho.matrix[None], pairing.projector_products)
    _raise_first(_table_checks(raw, rho.dim))
    return JointDistribution(pairing.alice.outcomes, pairing.bob.outcomes, _clamp(raw)[0])


def expectation(rho: DensityMatrix, matrix: np.ndarray) -> float:
    """Real part of tr[rho M] for a Hermitian M on the full space."""
    if matrix.shape[0] != rho.dim:
        raise InferenceError(
            f"operator dimension {matrix.shape[0]} does not match state {rho.dim}"
        )
    return float(np.einsum("ij,ji->", rho.matrix, matrix).real)


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """The five pairings one criterion evaluation measures.

    Alice's derived operators are built from her own A1, A2 by the same
    algebra as Bob's: A3 = -i[A1, A2], A4 = {A1, A2}, A0 = A1 - A2. Building
    the settings once and reusing them across a sweep keeps the cached
    spectral decompositions and projector stacks alive; build decomposes
    all ten operators in one stacked eigensolve. pairs maps table
    name -> pairing in evaluation order: b1, b2, commutator,
    anticommutator, difference.
    """

    pairs: dict[str, ObservablePairing]

    @classmethod
    def build(cls, b1: Observable, b2: Observable, pairing_rule=default_pairing):
        pair1 = pairing_rule(b1)
        pair2 = pairing_rule(b2)
        a1, a2 = pair1.alice, pair2.alice
        pairs = {"b1": pair1, "b2": pair2}
        for name, derive in (
            ("commutator", commutator_observable),
            ("anticommutator", anticommutator_observable),
            ("difference", difference_observable),
        ):
            pairs[name] = ObservablePairing(bob=derive(b1, b2), alice=derive(a1, a2))
        decompose(obs for pair in pairs.values() for obs in (pair.bob, pair.alice))
        return cls(pairs)


@dataclass(frozen=True, eq=False)
class InferredMoments:
    """Every inferred quantity one criterion evaluation needs.

    Each field is a float for one state, or an (N,) array for N states
    evaluated together; row(i) is then state i's record of floats.
    """

    var_inf_b1: float
    var_inf_b2: float
    var_min_b1: float
    var_min_b2: float
    abs_mean_inf_commutator: float
    mean_inf_anticommutator: float
    sq_mean_inf_b1: float
    sq_mean_inf_b2: float
    sq_mean_inf_b0: float
    product_of_means_inf: float
    g1: float
    g2: float

    def __post_init__(self) -> None:
        _raise_first(_order_checks(vars(self)))

    def as_dict(self) -> dict:
        """Field name -> float, in field order."""
        return {name: float(value) for name, value in vars(self).items()}

    def row(self, i: int) -> InferredMoments:
        """The float record of state i of an (N,)-array record."""
        return InferredMoments(
            **{name: float(value[i]) for name, value in vars(self).items()}
        )


def joint_tables(settings: MeasurementSettings, matrices: np.ndarray) -> dict:
    """Unchecked tables of N states given as an (N, D, D) array.

    Returns table name -> (N, na, nb) raw tr[rho (P_a tensor Q_b)] values;
    moment_batch checks and clamps them.
    """
    return {
        name: _contract(matrices, pairing.projector_products)
        for name, pairing in settings.pairs.items()
    }


def moment_batch(settings: MeasurementSettings, raw_tables: dict, dim: int) -> InferredMoments:
    """Check and clamp N states' raw tables, then reduce them to every moment.

    dim is the full dimension D of the states; every field of the result is
    an (N,) array. An InferenceError names the first state that fails a
    check, and that state's first failed check.
    """
    checks = []
    sums = {}
    for name, pairing in settings.pairs.items():
        checks += _table_checks(raw_tables[name], dim)
        sums[name] = _conditional_sums(_clamp(raw_tables[name]), pairing.bob.outcomes)
    a2_1, g1, var_inf_1 = _linear(*sums["b1"], settings.pairs["b1"].alice.outcomes)
    a2_2, g2, var_inf_2 = _linear(*sums["b2"], settings.pairs["b2"].alice.outcomes)
    checks += [_alice_power_check(a2_1), _alice_power_check(a2_2)]
    sq1 = _sq_mean(*sums["b1"][:2])
    sq2 = _sq_mean(*sums["b2"][:2])
    sq0 = _sq_mean(*sums["difference"][:2])
    fields = dict(
        var_inf_b1=var_inf_1,
        var_inf_b2=var_inf_2,
        var_min_b1=_var_min(*sums["b1"]),
        var_min_b2=_var_min(*sums["b2"]),
        abs_mean_inf_commutator=np.abs(sums["commutator"][1]).sum(axis=1),
        mean_inf_anticommutator=sums["anticommutator"][1].sum(axis=1),
        sq_mean_inf_b1=sq1,
        sq_mean_inf_b2=sq2,
        sq_mean_inf_b0=sq0,
        product_of_means_inf=0.5 * (sq1 + sq2 - sq0),
        g1=g1,
        g2=g2,
    )
    # every check at once, so the first failing state is reported whichever
    # check it fails
    _raise_first(checks + _order_checks(fields))
    return InferredMoments(**fields)


def full_moments(
    rho: DensityMatrix, b1: Observable, b2: Observable, pairing_rule=default_pairing
) -> InferredMoments:
    """Compute the complete InferredMoments record of one state, a batch of 1."""
    settings = MeasurementSettings.build(b1, b2, pairing_rule)
    _check_state_matches(rho, settings.pairs["b1"])
    return moment_batch(settings, joint_tables(settings, rho.matrix[None]), rho.dim).row(0)
