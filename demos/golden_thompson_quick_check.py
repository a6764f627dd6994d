"""Quick numerical checks of tr exp(A+B) <= tr(exp A exp B).

Evaluates both sides for hand-picked pairs where the answer is known in
closed form, then sweeps random Hermitian pairs.
"""

import math

import numpy as np

from pinchgt import construct_hermitian, gt_check, random_hermitian

# commuting operands make the inequality an equality
a = construct_hermitian(np.diag([1.0, -1.0]))
r = gt_check(a, construct_hermitian(np.eye(2)))
print("commuting pair  diag(1,-1) with I:")
print(f"  lhs = {r.lhs:.12f}")
print(f"  rhs = {r.rhs:.12f}")
print(f"  e^2 + 1 = {math.e**2 + 1:.12f}")
print(f"  commuting detected: {r.commuting}\n")

# anticommuting spin matrices give the classic strict case:
# tr exp(X+Z) = 2 cosh(sqrt 2) while tr(e^X e^Z) = 2 cosh^2(1)
x = construct_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
z = construct_hermitian(np.diag([1.0, -1.0]))
r = gt_check(x, z)
print("anticommuting spin pair:")
print(f"  lhs = {r.lhs:.12f}   (2 cosh(sqrt 2) = {2 * math.cosh(math.sqrt(2)):.12f})")
print(f"  rhs = {r.rhs:.12f}   (2 cosh^2(1)    = {2 * math.cosh(1) ** 2:.12f})")
print(f"  gap = {r.gap:.6f}\n")

# random sweep; the inequality must hold every single time
worst = None
for seed in range(2000):
    dim = 2 + seed % 6
    rep = gt_check(random_hermitian(dim, seed), random_hermitian(dim, seed + 9999))
    assert rep.holds, f"violated at seed {seed}?!"
    rel = rep.gap / (abs(rep.lhs) + abs(rep.rhs))
    if worst is None or rel < worst[0]:
        worst = (rel, seed, dim)

rel, seed, dim = worst
print(f"2000 random pairs checked, all hold; tightest relative gap "
      f"{rel:.3e} (seed {seed}, dim {dim})")
