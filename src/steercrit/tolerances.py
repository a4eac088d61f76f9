"""The package's one tolerance policy.

Every numerical threshold lives here, with the reason for its value, so a
state that one layer accepts is not rejected by another on a stricter copy
of the same bound. Residuals are measured in the max-absolute-entry norm.
"""

from __future__ import annotations

# max |M - M^dagger| below which a matrix counts as Hermitian (states and
# observables alike; JSON round trips leave residuals near 1e-16)
HERMITICITY_TOL = 1e-10
# |tr rho - 1| below which a state counts as normalised
TRACE_TOL = 1e-10
# a state is positive when its smallest eigenvalue is >= -PSD_TOL
PSD_TOL = 1e-10
# eigenvalues closer than this are one measurement outcome and share a
# projector; far above the Jacobi solver's ~1e-14 accuracy, far below any
# physical spectral gap of the built-in observables
DEGENERACY_TOL = 1e-8
# A state that validate() accepts has eigenvalues >= -PSD_TOL, so a table
# cell tr[rho Pi] of a projector of rank r <= D is >= -PSD_TOL * D. Cells
# below that bound fail; cells between it and PROB_CLAMP are clamped to 0.
PROB_CLAMP = 1e-12
# |sum of a raw joint table - 1| below which the table counts as normalised
NORMALIZATION_TOL = 1e-10
# var_inf >= var_min must hold up to this roundoff (the conditional-mean
# estimator is optimal, so the linear one can only tie it exactly)
VARIANCE_ORDER_TOL = 1e-10
# <A^2> at or below this leaves the estimator slope g = <A B> / <A^2>
# undefined (Alice's observable vanishes on the state)
ALICE_POWER_FLOOR = 1e-12
