"""Inferred-variance steering criteria for bipartite quantum states.

The package evaluates uncertainty-relation steering tests in which one
party's measurement outcomes are used to infer the other party's moments.
A criterion is violated when the product of inferred variances drops below
the bound built from the inferred commutator and covariance terms; any
violation certifies steering of the measured party's state.

Layers, bottom up: the one set of numerical tolerances (`tolerances`),
exact Hermitian linear algebra (`linalg`), density matrices and the
isotropic family (`states`), measurement observables and the Alice/Bob
pairing rules (`observables`), inferred-moment assembly (`inference`), the
criteria themselves (`criteria`), published closed-form expressions for the
two reference families (`closed_forms`), sweep plus threshold search
(`thresholds`), a brute-force probability-table oracle used for
cross-validation (`oracle`), and the CLI (`cli`).
"""

from __future__ import annotations

from .closed_forms import (
    DIFF_SLOTS,
    MODE_CLOSED_FORM,
    ClosedFormError,
    DiffRow,
    closed_form_report,
    closed_forms_for,
    diff_rows,
    qubit_closed_forms,
    qutrit_closed_forms,
    write_diff_csv,
)
from .criteria import (
    CRITERION_HUR,
    CRITERION_SRUR,
    CriterionReport,
    evaluate_criterion,
    evaluate_srur,
    hur_rhs,
    srur_rhs,
    uncertainty_terms,
    variance,
)
from .families import (
    FAMILIES,
    FAMILY_QUBIT_XZ,
    FAMILY_QUTRIT_B1B2,
    FamilyError,
    family_descriptor,
    family_for_dimension,
    family_moments,
    family_observables,
    family_state,
)
from .inference import (
    MODE_CONDITIONAL_MEAN,
    MODE_LINEAR_G,
    InferenceError,
    InferredMoments,
    JointDistribution,
    MeasurementSettings,
    expectation,
    full_moments,
    joint_distribution,
    joint_tables,
    moment_batch,
)
from .linalg import (
    LinalgError,
    SpectralDecomposition,
    eig_hermitian,
)
from .observables import (
    Observable,
    ObservablePairing,
    anticommutator_observable,
    commutator_observable,
    default_pairing,
    difference_observable,
    explicit_pairing,
    observable_from_json,
    observable_to_json,
    qutrit_triplet,
    spin_half,
)
from .oracle import (
    OracleError,
    OutcomeTable,
    audit_dump,
    enumerate_table,
    oracle_moments,
    table_moment,
)
from .states import (
    DensityMatrix,
    InvalidStateError,
    isotropic,
    max_entangled,
    state_diagnostics,
    state_from_json,
    state_to_json,
    validate,
)
from .thresholds import (
    SweepResult,
    ThresholdError,
    ThresholdResult,
    bisect_threshold,
    find_threshold,
    sweep,
    sweep_csv_text,
)

__version__ = "0.1.0"
