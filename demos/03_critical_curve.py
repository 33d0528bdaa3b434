#!/usr/bin/env python3
"""Tracing the critical existence curve in the parameter quadrant.

Every ray mu = theta * lam crosses the curve once; bisection with the
monotone solver as feasibility oracle locates the crossing, bracketed by
the analytic certificates: a dimension-constant lower box and the
certified upper end of the ray (printed below for theta = 1, where it is
the eigenvalue corner).  Rays are independent, so the curve is one
extremal_on_ray call per theta.  The
curve is non-increasing along the grid and symmetric under swapping the
two components.
"""

from memslab import build_radial
from memslab.curve import (
    CurveConfig,
    bound_report,
    extremal_on_ray,
    write_trace_csv,
)
from memslab.profiles import constant_profile

disk = build_radial(2, 1.0, 512)
one = constant_profile(disk, 1.0)

report = bound_report(disk, one, one)
print(f"certified feasible box:  (0, {report.a_f:.4f}]^2")
print(f"eigenvalue upper bound:  {report.upper_f:.4f}")
print()

grid = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0]
rays = [extremal_on_ray(disk, one, one, theta, CurveConfig()) for theta in grid]

print(f"{'theta':>6}  {'lam*':>8}  {'mu*':>8}  {'bracket':>9}  {'solves':>7}")
for s in rays:
    print(f"{s.theta:6.2f}  {s.lam_star:8.5f}  {s.mu_star:8.5f}"
          f"  {s.bracket_width:9.2e}  {s.iterations_total:7d}")

write_trace_csv("critical_curve.csv", rays, disk, one, one)
print()
print("wrote critical_curve.csv; the mu*(theta) column against lam*(theta)")
print("is the plot-ready curve separating existence from nonexistence")
