"""Tour of the spectral pinching map.

Builds the pinching map of a reference matrix, evaluates it through both
available routes, and checks its three defining properties by hand. Run
with `python3 demos/pinching_tour.py`.
"""

import numpy as np

from pinchgt import (
    PinchOperator,
    decompose,
    pinch,
    pinch_via_mixture,
    pinching_checks,
    random_hermitian,
    random_pd,
)

np.set_printoptions(precision=4, suppress=True)

base = random_pd(4, seed=5)
x = random_hermitian(4, seed=17)
op = PinchOperator(decompose(base))

print("reference matrix A (positive definite):")
print(base.mat.real)
print(f"\ndistinct eigenvalues of A: {op.base.n}")
print("clustered spectrum:", np.round(op.base.eigenvalues, 4))

px = pinch(op, x)
print("\noperand X:")
print(x.mat.real)
print("\npinched operand P[X] (block diagonal in the eigenbasis of A):")
print(px.mat.real)

# property 1: the output commutes with the reference
a = base.mat
comm = np.linalg.norm(px.mat @ a - a @ px.mat)
print(f"\n|| [P[X], A] ||_F = {comm:.3e}  (commutation)")

# property 2: the weighted trace against A is untouched
before = np.trace(x.mat @ a).real
after = np.trace(px.mat @ a).real
print(f"tr[X A] = {before:.10f}, tr[P[X] A] = {after:.10f}  (preserved)")

# property 3: for PSD operands, P[X] dominates X divided by the number of
# distinct eigenvalues; the certified check reports minus the smallest
# eigenvalue of P[Y] - Y/n against the positivity slack, on a PD operand Y
psd = random_pd(4, seed=23)
checks = {c.name: c for c in pinching_checks(op, psd)}
dominance = checks["pinch_dominates_scaled_operand"]
print(f"P[Y] >= Y/{op.base.n} in the Loewner order: {dominance.passed} "
      f"(residual {dominance.residual:.3e}, tolerance {dominance.tolerance:.1e})")

# the mixture route: P[X] is the average of the n conjugations by the
# dephasing unitaries U_y = sum_u exp(2 pi i y u / n) P_u, y = 1..n
mix = pinch_via_mixture(op, x)
print(f"\nnumber of dephasing unitaries: {op.base.n}")
print(f"|| eigenbasis route - mixture route ||_F = "
      f"{np.linalg.norm(px.mat - mix.mat):.3e}")
