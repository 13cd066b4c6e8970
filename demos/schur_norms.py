"""Weighted inverse-kernel norms measured against their closed forms.

The weighted operator x^-2 K for the free kernel is diagonalized by the
Mellin transform; its exact norm is (nu^2-1)^-1, while the classical Schur
row/column test only certifies (nu^2-9/4)^-1.  For beta > 0 the norms are
exactly beta-independent: the dilation x -> beta x is unitary on L^2 and
conjugates the weighted inverse at beta into the one at beta = 1.
``ConeKernel(nu)`` is the free kernel and ``ConeKernel(nu, beta)`` with
beta > 0 the Bessel kernel.

Run:  python3 demos/schur_norms.py
"""

from edgespec.grids import build_grid, nystrom_assemble, operator_norm
from edgespec.kernels import (ConeKernel, WeightedAction, exact_weighted_norm,
                              free_schur_integrals)

grid = build_grid(400)

print("free kernel, weight x^-2:")
print("  nu    measured   exact (nu^2-1)^-1   Schur bound (nu^2-9/4)^-1")
for nu in (2.0, 3.0, 5.0, 10.0):
    [op] = nystrom_assemble(ConeKernel(nu), (WeightedAction(-2, 0),), grid)
    m = operator_norm(op, grid.weights)
    row, _ = free_schur_integrals(nu)
    print(f"  {nu:4.1f}  {m:.6f}   {exact_weighted_norm(nu, 0):.6f}"
          f"            {row:.6f}")

print("\nbessel kernel, beta-independence of the weighted norm (nu = 3):")
for beta in (0.1, 1.0, 10.0):
    [op] = nystrom_assemble(ConeKernel(3.0, beta), (WeightedAction(-2, 0),),
                            grid)
    print(f"  beta = {beta:5.1f}:  {operator_norm(op, grid.weights):.6f}")

print("\nderivative norms (X d/dx)^a x^-2 K at nu = 3, beta = 1, and their")
print("exact values sup |m_a| from the Mellin symbols:")
actions = [WeightedAction(-2, a) for a in (0, 1, 2)]
for a, op in enumerate(nystrom_assemble(ConeKernel(3.0, 1.0), actions, grid)):
    print(f"  a = {a}:  {operator_norm(op, grid.weights):.6f}   exact "
          f"{exact_weighted_norm(3.0, a):.6f}")
print("(nystrom_assemble product-integrates every diagonal cell: the second")
print("derivative kernel concentrates in a band of width 1/beta that a")
print("plain Nystrom rule cannot resolve once the spacing exceeds it)")
