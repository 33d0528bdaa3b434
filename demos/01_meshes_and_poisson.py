#!/usr/bin/env python3
"""Tour of the discrete domains: quadrature, Poisson solves, eigenpairs.

Builds a radial ball and a rectangle, confirms the quadrature reproduces
the exact measure, solves a Poisson problem with a known answer on each,
and computes the principal Dirichlet eigenpair against closed forms.
"""

import math

import numpy as np

from memslab import (
    build_radial,
    build_rect,
    integrate,
    principal_eigenpair,
    solve_poisson,
)

print("=== radial mesh: unit disk, 256 nodes ===")
disk = build_radial(2, 1.0, 256)
print(f"measure: {disk.weights.sum():.15f}  (pi = {math.pi:.15f})")

# -Lap u = 4 on the disk has the exact solution u = 1 - r^2
u = solve_poisson(disk.operator, np.full(disk.n_nodes, 4.0))
err = np.max(np.abs(u - (1.0 - disk.radii**2)))
print(f"poisson max error vs 1 - r^2: {err:.3e}")

pair = principal_eigenpair(disk.operator)
print(f"principal eigenvalue: {pair.value:.6f}  (first Bessel zero squared = 5.783186)")
print(f"eigenfunction mass:   {integrate(disk, pair.vector):.6f}")

print()
print("=== second-order convergence under refinement ===")
errors = []
for n in (128, 256, 512, 1024):
    mesh = build_radial(2, 1.0, n)
    u = solve_poisson(mesh.operator, np.full(n, 4.0))
    errors.append(np.max(np.abs(u - (1.0 - mesh.radii**2))))
    ratio = "" if len(errors) < 2 else f"  ratio {errors[-2] / errors[-1]:.2f}"
    print(f"n={n:5d}  max error {errors[-1]:.3e}{ratio}")

print()
print("=== rectangle: unit square, 64 x 64 cells ===")
square = build_rect(1.0, 1.0, 64, 64)
print(f"measure: {square.weights.sum():.15f}")
pair = principal_eigenpair(square.operator)
print(f"principal eigenvalue: {pair.value:.6f}  (2 pi^2 = {2 * math.pi**2:.6f})")
