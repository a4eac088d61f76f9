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
once: each table carries a leading batch axis and each moment becomes an
(N,) array (MomentBatch); a single state is a batch of 1. Every reduction
acts row by row, so row i does not depend on N, and a sweep row equals the
single evaluation at the same state bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .observables import (
    Observable,
    ObservablePairing,
    anticommutator_observable,
    commutator_observable,
    default_pairing,
    difference_observable,
)
from .states import PSD_TOL, DensityMatrix

__all__ = [
    "InferenceError",
    "MODE_LINEAR_G",
    "MODE_CONDITIONAL_MEAN",
    "JointDistribution",
    "InferredMoments",
    "MomentBatch",
    "MeasurementSettings",
    "joint_distribution",
    "joint_tables",
    "moment_batch",
    "conditional_mean",
    "reid_g",
    "inferred_variance_linear",
    "inferred_variance_min",
    "inferred_abs_mean",
    "inferred_mean",
    "inferred_sq_mean",
    "inferred_product_of_means",
    "full_moments",
    "expectation",
]

MODE_LINEAR_G = "linear-g"
MODE_CONDITIONAL_MEAN = "conditional-mean"

# A state that validate() accepts has eigenvalues >= -PSD_TOL, so a table
# cell tr[rho Pi] of a projector of rank r <= D is >= -PSD_TOL * D. Cells
# below that bound fail; cells between it and PROB_CLAMP are clamped to 0.
PROB_CLAMP = 1e-12
NORMALIZATION_TOL = 1e-10
VARIANCE_ORDER_TOL = 1e-10
ALICE_POWER_FLOOR = 1e-12


class InferenceError(ValueError):
    """Ill-posed statistical quantity (bad table, vanishing <A^2>, ...)."""


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Outcome table P(a, b) for one (Alice, Bob) observable pairing."""

    alice_outcomes: tuple[float, ...]
    bob_outcomes: tuple[float, ...]
    probs: np.ndarray

    def alice_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def bob_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def to_json(self) -> dict:
        return {
            "alice_outcomes": [float(a) for a in self.alice_outcomes],
            "bob_outcomes": [float(b) for b in self.bob_outcomes],
            "probs": [[float(p) for p in row] for row in self.probs],
        }


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


def _order_checks(moments) -> list:
    """var_inf >= var_min - VARIANCE_ORDER_TOL, for float or (N,) fields."""
    checks = []
    for key in ("b1", "b2"):
        inf = np.atleast_1d(getattr(moments, f"var_inf_{key}"))
        low = np.atleast_1d(getattr(moments, f"var_min_{key}"))
        checks.append((
            inf < low - VARIANCE_ORDER_TOL,
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


def conditional_mean(jd: JointDistribution, given_alice_outcome: float) -> float:
    """<B | A = a>, the mean of Bob's outcome given Alice's."""
    outcomes = np.asarray(jd.alice_outcomes)
    idx = int(np.argmin(np.abs(outcomes - given_alice_outcome)))
    if abs(outcomes[idx] - given_alice_outcome) > 1e-9:
        raise InferenceError(
            f"{given_alice_outcome!r} is not an Alice outcome of this table"
        )
    row = jd.probs[idx]
    p_a = row.sum()
    if p_a <= 0.0:
        raise InferenceError(
            f"cannot condition on zero-probability outcome {given_alice_outcome!r}"
        )
    return float(row @ np.asarray(jd.bob_outcomes) / p_a)


def expectation(rho: DensityMatrix, matrix: np.ndarray) -> float:
    """Real part of tr[rho M] for a Hermitian M on the full space."""
    if matrix.shape[0] != rho.dim:
        raise InferenceError(
            f"operator dimension {matrix.shape[0]} does not match state {rho.dim}"
        )
    return float(np.einsum("ij,ji->", rho.matrix, matrix).real)


def _sums(jd: JointDistribution) -> tuple:
    return _conditional_sums(jd.probs[None], jd.bob_outcomes)


def _linear_checked(rho: DensityMatrix, pairing: ObservablePairing) -> tuple:
    jd = joint_distribution(rho, pairing)
    mean_a2, g, var = _linear(*_sums(jd), jd.alice_outcomes)
    _raise_first([_alice_power_check(mean_a2)])
    return float(g[0]), float(var[0])


def reid_g(rho: DensityMatrix, pairing: ObservablePairing) -> float:
    """g = <A tensor B> / <A^2>, the optimal linear-estimate slope."""
    return _linear_checked(rho, pairing)[0]


def inferred_variance_linear(rho: DensityMatrix, pairing: ObservablePairing) -> float:
    """<(B - g A)^2> = <B^2> - 2 g <A tensor B> + g^2 <A^2>."""
    return _linear_checked(rho, pairing)[1]


def inferred_variance_min(jd: JointDistribution) -> float:
    """sum_a P(a) Var(B | a), the estimator-optimal inferred variance.

    Alice outcomes with zero probability contribute nothing.
    """
    return float(_var_min(*_sums(jd))[0])


def inferred_abs_mean(rho: DensityMatrix, pairing: ObservablePairing) -> float:
    """sum_a P(a) |<B>_a|; used for the commutator observable."""
    _, m1, _ = _sums(joint_distribution(rho, pairing))
    return float(np.abs(m1).sum())


def inferred_mean(rho: DensityMatrix, pairing: ObservablePairing) -> float:
    """sum_a P(a) <B>_a (no absolute value); used for the anticommutator."""
    _, m1, _ = _sums(joint_distribution(rho, pairing))
    return float(m1.sum())


def inferred_sq_mean(rho: DensityMatrix, pairing: ObservablePairing) -> float:
    """sum_a P(a) <B>_a^2."""
    p_a, m1, _ = _sums(joint_distribution(rho, pairing))
    return float(_sq_mean(p_a, m1)[0])


def _check_difference(pair1, pair2, pair0) -> None:
    db = pair0.bob.matrix - (pair1.bob.matrix - pair2.bob.matrix)
    da = pair0.alice.matrix - (pair1.alice.matrix - pair2.alice.matrix)
    if max(np.max(np.abs(db)), np.max(np.abs(da))) > 1e-12:
        raise InferenceError(
            "difference pairing is not B1 - B2 / A1 - A2 of the given pairings"
        )


def inferred_product_of_means(
    rho: DensityMatrix,
    pairing_b1: ObservablePairing,
    pairing_b2: ObservablePairing,
    pairing_b0: ObservablePairing,
) -> float:
    """(<B1><B2>)_inf by polarization over the three settings.

    2 (<B1><B2>)_inf = (<B1>^2)_inf + (<B2>^2)_inf - (<B0>^2)_inf with
    B0 = B1 - B2 measured as its own setting (and A0 = A1 - A2).
    """
    _check_difference(pairing_b1, pairing_b2, pairing_b0)
    sq1 = inferred_sq_mean(rho, pairing_b1)
    sq2 = inferred_sq_mean(rho, pairing_b2)
    sq0 = inferred_sq_mean(rho, pairing_b0)
    return 0.5 * (sq1 + sq2 - sq0)


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """The five pairings one criterion evaluation measures.

    Alice's derived operators are built from her own A1, A2 by the same
    algebra as Bob's: A3 = -i[A1, A2], A4 = {A1, A2}, A0 = A1 - A2. Building
    the settings once and reusing them across a sweep keeps the cached
    spectral decompositions and projector stacks alive.
    """

    pair_b1: ObservablePairing
    pair_b2: ObservablePairing
    pair_commutator: ObservablePairing
    pair_anticommutator: ObservablePairing
    pair_difference: ObservablePairing

    @classmethod
    def build(cls, b1: Observable, b2: Observable, pairing_rule=default_pairing):
        pair1 = pairing_rule(b1)
        pair2 = pairing_rule(b2)
        a1, a2 = pair1.alice, pair2.alice
        return cls(
            pair_b1=pair1,
            pair_b2=pair2,
            pair_commutator=ObservablePairing(
                bob=commutator_observable(b1, b2),
                alice=commutator_observable(a1, a2),
            ),
            pair_anticommutator=ObservablePairing(
                bob=anticommutator_observable(b1, b2),
                alice=anticommutator_observable(a1, a2),
            ),
            pair_difference=ObservablePairing(
                bob=difference_observable(b1, b2),
                alice=difference_observable(a1, a2),
            ),
        )

    def pairings(self) -> dict[str, ObservablePairing]:
        """Table name -> pairing, in evaluation order."""
        return {
            "b1": self.pair_b1,
            "b2": self.pair_b2,
            "commutator": self.pair_commutator,
            "anticommutator": self.pair_anticommutator,
            "difference": self.pair_difference,
        }


@dataclass(frozen=True, eq=False)
class InferredMoments:
    """Every inferred quantity one criterion evaluation needs.

    The raw joint tables are retained for audits; they do not enter equality
    or serialization of the numeric record.
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
    tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        _raise_first(_order_checks(self))

    NUMERIC_FIELDS = (
        "var_inf_b1",
        "var_inf_b2",
        "var_min_b1",
        "var_min_b2",
        "abs_mean_inf_commutator",
        "mean_inf_anticommutator",
        "sq_mean_inf_b1",
        "sq_mean_inf_b2",
        "sq_mean_inf_b0",
        "product_of_means_inf",
        "g1",
        "g2",
    )

    def as_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in self.NUMERIC_FIELDS}


@dataclass(frozen=True, eq=False)
class MomentBatch:
    """The InferredMoments of N states: every numeric field is an (N,) array.

    tables maps each name of settings.pairings() to its clamped (N, na, nb)
    joint tables.
    """

    var_inf_b1: np.ndarray
    var_inf_b2: np.ndarray
    var_min_b1: np.ndarray
    var_min_b2: np.ndarray
    abs_mean_inf_commutator: np.ndarray
    mean_inf_anticommutator: np.ndarray
    sq_mean_inf_b1: np.ndarray
    sq_mean_inf_b2: np.ndarray
    sq_mean_inf_b0: np.ndarray
    product_of_means_inf: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    settings: MeasurementSettings = field(repr=False)
    tables: dict = field(repr=False)

    def row(self, i: int) -> InferredMoments:
        """The record of state i, with its five JointDistributions."""
        return InferredMoments(
            **{name: float(getattr(self, name)[i]) for name in InferredMoments.NUMERIC_FIELDS},
            tables={
                name: JointDistribution(
                    pairing.alice.outcomes, pairing.bob.outcomes, self.tables[name][i]
                )
                for name, pairing in self.settings.pairings().items()
            },
        )


def joint_tables(settings: MeasurementSettings, matrices: np.ndarray) -> dict:
    """Unchecked tables of N states given as an (N, D, D) array.

    Returns table name -> (N, na, nb) raw tr[rho (P_a tensor Q_b)] values;
    moment_batch checks and clamps them.
    """
    return {
        name: _contract(matrices, pairing.projector_products)
        for name, pairing in settings.pairings().items()
    }


def moment_batch(settings: MeasurementSettings, raw_tables: dict, dim: int) -> MomentBatch:
    """Check and clamp N states' raw tables, then reduce them to every moment.

    dim is the full dimension D of the states. An InferenceError names the
    first state that fails a check, and that state's first failed check.
    """
    checks = []
    tables = {}
    sums = {}
    for name, pairing in settings.pairings().items():
        checks += _table_checks(raw_tables[name], dim)
        tables[name] = _clamp(raw_tables[name])
        sums[name] = _conditional_sums(tables[name], pairing.bob.outcomes)
    a2_1, g1, var_inf_1 = _linear(*sums["b1"], settings.pair_b1.alice.outcomes)
    a2_2, g2, var_inf_2 = _linear(*sums["b2"], settings.pair_b2.alice.outcomes)
    checks += [_alice_power_check(a2_1), _alice_power_check(a2_2)]
    sq1 = _sq_mean(*sums["b1"][:2])
    sq2 = _sq_mean(*sums["b2"][:2])
    sq0 = _sq_mean(*sums["difference"][:2])
    batch = MomentBatch(
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
        settings=settings,
        tables=tables,
    )
    _raise_first(checks + _order_checks(batch))
    return batch


def full_moments(
    rho: DensityMatrix,
    b1: Observable | None = None,
    b2: Observable | None = None,
    pairing_rule=default_pairing,
    settings: MeasurementSettings | None = None,
) -> InferredMoments:
    """Compute the complete InferredMoments record for one evaluation.

    Either pass (b1, b2, pairing_rule) or a prebuilt MeasurementSettings.
    The state is evaluated as a batch of 1.
    """
    if settings is None:
        if b1 is None or b2 is None:
            raise InferenceError("full_moments needs (b1, b2) or settings")
        settings = MeasurementSettings.build(b1, b2, pairing_rule)
    _check_state_matches(rho, settings.pair_b1)
    return moment_batch(settings, joint_tables(settings, rho.matrix[None]), rho.dim).row(0)
