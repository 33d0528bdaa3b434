#!/usr/bin/env python3
"""Decreasing rearrangement: the equal-measure disk is the worst domain.

Rearranging the permittivity profiles onto the equal-measure disk can
only lower the critical parameter, so the disk problem bounds the
original from below.  Shown for the unit square with a flat profile and
with an indicator profile concentrated on the left half.
"""

import math

from memslab import build_radial, build_rect, integrate
from memslab.curve import CurveConfig, compare_symmetrized
from memslab.profiles import constant_profile, symmetrize, tabulated_profile

square = build_rect(1.0, 1.0, 48, 48)
disk = build_radial(2, (1.0 / math.pi) ** 0.5, 384)
cfg = CurveConfig()

print("flat profile on the unit square vs the equal-area disk:")
one = constant_profile(square, 1.0)
sq, dk = compare_symmetrized(square, one, one, disk, 1.0, cfg)
print(f"  square lam* = {sq.lam_star:.4f}")
print(f"  disk   lam* = {dk.lam_star:.4f}   (lower, as it must be)")
print()

print("indicator profile on the left half of the square:")
ind = tabulated_profile(square, (square.coordinates["x"] < 0.5).astype(float))
star = symmetrize(ind, square, disk)
print(f"  mass before: {integrate(square, ind.values):.6f}"
      f"   after: {integrate(disk, star.values):.6f}")
print(f"  rearranged profile is the centered patch: value 1 out to"
      f" r = {math.sqrt(0.5 / math.pi):.4f}, then 0")

sq, dk = compare_symmetrized(square, ind, constant_profile(square, 1.0),
                             disk, 1.0, cfg)
print(f"  square lam* = {sq.lam_star:.4f}")
print(f"  disk   lam* = {dk.lam_star:.4f}")
