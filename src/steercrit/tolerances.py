"""The package's one tolerance policy.

Every numerical threshold lives here, with the reason for its value, so a
state that one layer accepts is not rejected by another on a stricter copy
of the same bound. Residuals are measured in the max-absolute-entry norm.
"""

from __future__ import annotations

# max |M - M^dagger| below which a state counts as Hermitian (its entries
# are at most 1, and JSON round trips leave residuals near 1e-16).
# Observables and eig_hermitian allow HERMITICITY_TOL * max(1, max |M|):
# roundoff grows with the entries of an observable read from a file or
# built by a caller. The derived commutator and anticommutator are exactly
# Hermitian instead (B2 B1 is taken as (B1 B2)^dagger): judged against
# their own max |M|, a commutator that vanishes analytically but carries
# roundoff near 1e-16 s^2 from observables scaled by s would be rejected
HERMITICITY_TOL = 1e-10
# |tr rho - 1| below which a state counts as normalised
TRACE_TOL = 1e-10
# a state is positive when its smallest eigenvalue is >= -PSD_TOL
PSD_TOL = 1e-10
# eigenvalues closer than this are one measurement outcome and share a
# projector; far above LAPACK eigh's ~1e-15 accuracy at unit scale, far below any
# physical spectral gap of the built-in observables
DEGENERACY_TOL = 1e-8
# A state that validate() accepts has eigenvalues >= -PSD_TOL, so a table
# cell tr[rho Pi] of a projector of rank r <= D is >= -PSD_TOL * D. Cells
# below that bound fail; cells between it and PROB_CLAMP are clamped to 0.
PROB_CLAMP = 1e-12
# |sum of a raw joint table - 1| below which the table counts as normalised
NORMALIZATION_TOL = 1e-10
# var_inf >= var_min must hold up to this roundoff, relative to max(1,
# <B^2>) with <B^2> = |var_min| + |sq_mean_inf| (law of total variance): the
# conditional-mean estimator is optimal, so the linear one can only tie it
# exactly, and both are differences of terms of order <B^2>, whose roundoff
# they carry even when they are near 0 (observables scaled by s give
# <B^2> of order s^2; near-perfect inference gives var_min << s^2)
VARIANCE_ORDER_TOL = 1e-10
# <A^2> at or below this leaves the estimator slope g = <A B> / <A^2>
# undefined (Alice's observable vanishes on the state)
ALICE_POWER_FLOOR = 1e-12
