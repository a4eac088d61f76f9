"""Measurement statistics: joint distributions and inferred moments.

Alice measures her half of a bipartite state to estimate Bob's outcomes.
Two estimators are supported for the inferred variance: the linear one
B_est = g A with g = <A tensor B> / <A^2> (mode "linear-g") and the
conditional mean (mode "conditional-mean"), which is optimal and never worse.
The remaining inferred quantities (absolute commutator mean, anticommutator
mean, squared means and the product of means obtained from the difference
setting B0 = B1 - B2 by polarization) are always conditional-mean based.

Every moment, the linear-g ones included, is a sum over the joint outcome
tables P(a, b) = tr[rho (P_a tensor Q_b)]. MeasurementSettings zero-pads the
projector stacks of its five pairings (b1, b2, commutator, anticommutator,
difference) into one (T, A, B, D, D) stack, T = 5 tables, A and B the most
Alice and Bob outcomes of any table. packed_tables contracts N states
against it into the packed (T, A, B, N) raw tables, batch axis last: the
one table format of the engine. Table t is pairing t of pairs, and its
[t, :na, :nb] slice is that pairing's own na x nb table. A padded cell holds
the zero matrix, so its table cell is +0.0 and has outcome 0, and it adds
+0.0 to every sum. One contraction, _contract, gives these tables, a single
pairing's table and a single expectation value. moment_batch takes a packed
stack (full_moments passes its state's, a batch of 1), and mixed_moments
mixes two packed end-state stacks. Both walk the tables BATCH_CHUNK states
at a time and clamp each chunk in place once the checks have read it:
every chunk is the reduction's own array (a copy of the caller's slice or a
freshly mixed chunk), never the caller's tables. The reduction then forms
each sum over outcomes on its own, over the tables that need it. Each field
of the one InferredMoments record becomes an (N,) array, and row(i) gives
state i's record of floats.

Every operation of the reduction is row-independent, so row i of its result
depends only on row i of the tables, not on N or on where a chunk ends: the
elementwise ones (the clamp among them), the minimum over a table, and the
sums over outcomes, which add one outcome slice at a time in a fixed order
(np.sum would not: it sums pairwise when the summed axis is the contiguous
one). The contraction is not: einsum may round a batch of one state
differently, by an ulp or so, from the same state inside a larger batch. A
family sweep row still equals the family evaluator at the same p bit for
bit, because both mix the same packed end-state tables elementwise
(mixed_moments).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


# states reduced together; bounds the reduction's temporaries, whatever the
# batch size: a tracemalloc peak of 18.7 MB beside the (12, N) result for
# qutrit tables, 12.6 MB for qubit ones
BATCH_CHUNK = 2**14


class InferenceError(ValueError):
    """Ill-posed statistical quantity (bad table, vanishing <A^2>, ...)."""


def _check_state_matches(rho: DensityMatrix, pairing: ObservablePairing) -> None:
    if not rho.is_bipartite:
        raise InferenceError("joint statistics need a bipartite state")
    if rho.dims != (pairing.alice.dim, pairing.bob.dim):
        raise InferenceError(
            f"state dims {rho.dims} do not match pairing dims "
            f"({pairing.alice.dim}, {pairing.bob.dim})"
        )


def _raise_first(bad: np.ndarray, message) -> None:
    """bad is a (checks, N) matrix in the order one evaluation meets them.

    Reports the first failing row, then its first failing check, as
    message(check, row).
    """
    if bad.any():
        row = int(bad.any(axis=0).argmax())
        raise InferenceError(message(int(bad[:, row].argmax()), row))


def _order_bad(var_inf, var_min, sq_mean) -> np.ndarray:
    """var_inf < var_min - VARIANCE_ORDER_TOL * max(1, <B^2>), elementwise.

    <B^2> = var_min + sq_mean_inf by the law of total variance; the absolute
    values keep a roundoff-negative term from shrinking the tolerance.
    """
    power = np.abs(var_min) + np.abs(sq_mean)
    return var_inf < var_min - VARIANCE_ORDER_TOL * np.maximum(1.0, power)


def _order_message(key: str, var_inf, var_min) -> str:
    return f"var_inf_{key} {float(var_inf)!r} below var_min_{key} {float(var_min)!r}"


def _table_bad(low, total, dim: int) -> np.ndarray:
    """The negative-cell and the normalisation mask, stacked on a new first axis."""
    return np.array([low < -PSD_TOL * dim, np.abs(total - 1.0) >= NORMALIZATION_TOL])


def _table_message(kind: int, low, total) -> str:
    if kind == 0:
        return f"negative joint probability {low:.3e}"
    return f"joint probabilities sum to {total:.12g}, not 1"


def _contract(matrices: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Re tr[rho_n M]: (N, D, D) states, (..., D, D) operators -> (..., N).

    A (T, A, B, D, D) stack gives the packed tables, a pairing's
    (na, nb, D, D) projector_products its (na, nb, N) tables.
    """
    return np.einsum("nij,...ji->...n", matrices, stack).real


def _sum_outcomes(x: np.ndarray, weights=None) -> np.ndarray:
    """Sum over the axis before the batch axis, one slice at a time.

    Slice j is multiplied by weights[j] first when weights are given. Every
    batch row gets the same additions in the same order whatever the batch
    size; np.sum may switch to pairwise summation when the summed axis
    becomes the contiguous one.
    """
    if weights is None:
        total = x[..., 0, :].copy()
        for j in range(1, x.shape[-2]):
            total += x[..., j, :]
        return total
    total = x[..., 0, :] * weights[0]
    part = np.empty_like(total)
    for j in range(1, x.shape[-2]):
        total += np.multiply(x[..., j, :], weights[j], out=part)
    return total


def joint_distribution(rho: DensityMatrix, pairing: ObservablePairing) -> np.ndarray:
    """P(a, b) = tr[rho (P_a tensor Q_b)] over merged eigenprojectors.

    The clamped, read-only (na, nb) table; row a belongs to
    pairing.alice.outcomes[a], column b to pairing.bob.outcomes[b].
    """
    _check_state_matches(rho, pairing)
    raw = _contract(rho.matrix[None], pairing.projector_products)[..., 0]
    low, total = raw.min(), raw.sum()
    _raise_first(
        _table_bad(low, total, rho.dim)[:, None],
        lambda kind, _: _table_message(kind, low, total),
    )
    probs = np.where(raw < PROB_CLAMP, 0.0, raw)
    probs.setflags(write=False)
    return probs


def expectation(rho: DensityMatrix, matrix: np.ndarray) -> float:
    """Real part of tr[rho M] for a Hermitian M on the full space."""
    if matrix.shape[0] != rho.dim:
        raise InferenceError(
            f"operator dimension {matrix.shape[0]} does not match state {rho.dim}"
        )
    return float(_contract(rho.matrix[None], matrix)[0])


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

    @cached_property
    def dim(self) -> int:
        """The full dimension D of the states the settings measure: the b1
        pairing's Alice dimension times its Bob dimension."""
        return self.pairs["b1"].alice.dim * self.pairs["b1"].bob.dim

    @cached_property
    def shape(self) -> tuple[int, int, int]:
        """(tables, A, B): the packed tables' shape without their batch axis."""
        alice, bob = zip(*(
            (len(pair.alice.outcomes), len(pair.bob.outcomes)) for pair in self.pairs.values()
        ))
        return len(self.pairs), max(alice), max(bob)

    @cached_property
    def products(self) -> np.ndarray:
        """Every pairing's projector_products, zero-padded into one (T, A, B, D, D) stack.

        A padded outcome pair holds the zero matrix, so its table cell is +0.0.
        """
        stacks = [pair.projector_products for pair in self.pairs.values()]
        products = np.zeros(self.shape + stacks[0].shape[2:], dtype=complex)
        for t, stack in enumerate(stacks):
            products[t, :len(stack), :stack.shape[1]] = stack
        products.setflags(write=False)
        return products

    def packed_tables(self, matrices: np.ndarray) -> np.ndarray:
        """(N, D, D) states -> (T, A, B, N) raw tables, from one contraction."""
        return _contract(matrices, self.products)

    @cached_property
    def outcome_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Alice's outcomes as an (A, T, 1) and Bob's as a (B, T, 1, 1) array.

        Entry [k, t] is outcome k of table t. Both are zero-padded like the
        packed tables, so a padded row or column has outcome 0, and both are
        read-only, like products.
        """
        tables, na, nb = self.shape
        a = np.zeros((na, tables, 1))
        b = np.zeros((nb, tables, 1, 1))
        for t, pair in enumerate(self.pairs.values()):
            a[:len(pair.alice.outcomes), t, 0] = pair.alice.outcomes
            b[:len(pair.bob.outcomes), t, 0, 0] = pair.bob.outcomes
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b


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
        inf, low, sq = (
            np.array([getattr(self, f"{name}_b1"), getattr(self, f"{name}_b2")]).reshape(2, -1)
            for name in ("var_inf", "var_min", "sq_mean_inf")
        )
        _raise_first(
            _order_bad(inf, low, sq),
            lambda k, i: _order_message(f"b{k + 1}", inf[k, i], low[k, i]),
        )

    @classmethod
    def _checked(cls, values) -> InferredMoments:
        """The record of values, in field order, whose variance order the
        caller has already checked."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls.__dataclass_fields__, values))
        return record

    def as_dict(self) -> dict:
        """Field name -> float, in field order."""
        return {name: float(value) for name, value in vars(self).items()}

    def row(self, i: int) -> InferredMoments:
        """The float record of state i of an (N,)-array record."""
        return self._checked(float(value[i]) for value in vars(self).values())


def _reduce(settings: MeasurementSettings, raw: np.ndarray, out: np.ndarray) -> None:
    """Check one (T, A, B, n) chunk of raw tables and write its moments to out.

    raw is clamped in place, so it must be a chunk the reduction owns, never
    a caller's tables. out is (12, n), one row per InferredMoments field in
    field order. The 14 checks form
    one (14, n) matrix: per table its negative cell and its normalisation,
    then <A^2> and the variance order of b1 and b2.
    """
    alice, bob = settings.outcome_weights
    low = raw.min(axis=(1, 2))
    total = _sum_outcomes(_sum_outcomes(raw))
    np.copyto(raw, 0.0, where=raw < PROB_CLAMP)
    # per table and Alice outcome: P(a), sum_b P(a, b) b and sum_b P(a, b) b^2
    p_a = _sum_outcomes(raw)
    m1 = _sum_outcomes(raw, bob)
    m2 = _sum_outcomes(raw, bob * bob)
    # Reid's linear estimator g A, from b1 and b2 only: sum_a P(a) a^2 =
    # <A^2>, sum_a a sum_b P(a, b) b = <A B>, and <B^2>
    mean_a2 = _sum_outcomes(p_a[:2], (alice * alice)[:, :2])
    mean_ab = _sum_outcomes(m1[:2], alice[:, :2])
    mean_b2 = _sum_outcomes(m2[:2])
    with np.errstate(divide="ignore", invalid="ignore"):
        g = mean_ab / mean_a2
        var_inf = np.maximum(0.0, mean_b2 - 2.0 * g * mean_ab + g * g * mean_a2)
    # P(a) <B>_a^2 per Alice outcome; an outcome with P(a) = 0 adds nothing
    over = np.divide(m1 * m1, p_a, out=np.zeros_like(p_a), where=p_a > 0.0)
    sq = _sum_outcomes(over[[0, 1, 4]])
    var_min = np.maximum(0.0, _sum_outcomes(m2[:2] - over[:2]))
    bad = np.concatenate((
        _table_bad(low, total, settings.dim).swapaxes(0, 1).reshape(-1, raw.shape[-1]),
        mean_a2 <= ALICE_POWER_FLOOR,
        _order_bad(var_inf, var_min, sq[:2]),
    ))

    def message(check: int, i: int) -> str:
        t, kind = divmod(check, 2)
        if t < len(low):
            return _table_message(kind, low[t, i], total[t, i])
        if t == len(low):
            return f"<A^2> = {mean_a2[kind, i]:.3e} is too small to define the estimator slope"
        return _order_message(f"b{kind + 1}", var_inf[kind, i], var_min[kind, i])

    _raise_first(bad, message)
    np.concatenate((
        var_inf, var_min, [_sum_outcomes(np.abs(m1[2])), _sum_outcomes(m1[3])],
        sq, [0.5 * (sq[0] + sq[1] - sq[2])], g,
    ), out=out)


def _moments(settings: MeasurementSettings, n: int, chunk) -> InferredMoments:
    """Reduce N states BATCH_CHUNK at a time; chunk(lo, hi) is their raw stack.

    A failing chunk raises before any later chunk is formed, so the first
    failing state is reported, with its first failing check.
    """
    fields = np.empty((12, n))
    for lo in range(0, n, BATCH_CHUNK):
        hi = min(lo + BATCH_CHUNK, n)
        _reduce(settings, chunk(lo, hi), fields[:, lo:hi])
    return InferredMoments._checked(fields)


def moment_batch(settings: MeasurementSettings, tables: np.ndarray) -> InferredMoments:
    """Check and clamp N states' packed (T, A, B, N) raw tables, then reduce
    them to every moment.

    Every field of the result is an (N,) array, and a cell below
    -PSD_TOL * settings.dim fails the negativity check. An InferenceError
    names the first state that fails a check, and that state's first failed
    check. The reduction clamps a copy of each chunk, so the caller's tables
    are left unchanged.
    """
    if tables.shape[:-1] != settings.shape:
        raise InferenceError(
            f"packed tables of shape {tables.shape} do not match settings {settings.shape}"
        )
    return _moments(settings, tables.shape[-1], lambda lo, hi: tables[..., lo:hi].copy())


def mixed_moments(
    settings: MeasurementSettings, ends: np.ndarray, weights: np.ndarray
) -> InferredMoments:
    """moment_batch of the tables (1 - w) ends[..., 0] + w ends[..., 1], per weight w.

    ends is a packed (T, A, B, 2) stack; the mixed tables are formed one
    chunk at a time, and within a chunk one table at a time, so the batch
    never holds all of them at once.
    """
    first, last = ends[..., :1], ends[..., 1:]

    def chunk(lo: int, hi: int) -> np.ndarray:
        w = weights[lo:hi]
        mixed = (1.0 - w) * first
        for table, end in zip(mixed, last):
            table += w * end
        return mixed

    return _moments(settings, len(weights), chunk)


def full_moments(
    rho: DensityMatrix, b1: Observable, b2: Observable, pairing_rule=default_pairing
) -> InferredMoments:
    """Compute the complete InferredMoments record of one state, a batch of 1.

    Its tables are contracted alone, so it can differ in the last ulp from
    the same state's row of a larger packed_tables batch.
    """
    settings = MeasurementSettings.build(b1, b2, pairing_rule)
    _check_state_matches(rho, settings.pairs["b1"])
    return moment_batch(settings, settings.packed_tables(rho.matrix[None])).row(0)
