#!/usr/bin/env python3
"""Time the frozen rays of the disk-sweep benchmark in-process, pass by pass.

    python3 tools/ray_probe.py [--passes K]

Builds the 4,096-node unit disk with f = g = 1, runs ``extremal_on_ray`` on
the 8 frozen theta of ``perfbench/workloads.py`` as one sweep, each ray
passed the one before as ``previous`` as ``memslab curve`` does, once as a
warm-up, then K more passes (3 by default).  For each pass it prints the
wall seconds, the minor page faults the process took (the ``ru_minflt``
delta of ``resource.getrusage``), the two-field solves on the 4,096-node
mesh (the coarse twin's are not counted), the probes on that mesh handed
a start and how many of those ``minimal_solve`` restarted from (0, 0)
because T(s) >= s failed, the work of the coarse predictor (the probes and
two-field solves on the 64-node coarse twins, and the Schur-complement
solves of the fold solves), the sha256 of the pass's ``RaySample`` reprs
and the sha256 of its (theta, lam_lo, lam_hi) alone:

    pass <k>  wall_s=<seconds>  minflt=<faults>  solves=<n>  starts=<n>  restarts=<n>  coarse_probes=<n>  coarse_solves=<n>  fold_solves=<n>  rays=<sha256>  ends=<sha256>

Run it on two checkouts and compare: the ``rays`` hash shows whether every
ray came out bit for bit the same, the ``ends`` hash whether the brackets
did when only the counters of a sample moved, and the fault counts show how
much the hot loop makes the allocator hand pages back and fault them in
again.

memslab is imported from the ``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"   # before numpy loads, as perfbench/run.py does
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import memslab.curve  # noqa: E402
from memslab.curve import extremal_on_ray  # noqa: E402
from memslab.mesh import build_radial  # noqa: E402
from memslab.profiles import constant_profile  # noqa: E402
from workloads import DISK, DISK_THETAS  # noqa: E402


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(map(repr, lines)).encode()).hexdigest()


def count_two_field_solves(op, count: list[int] | None = None) -> list[int]:
    """Wrap ``op.solve`` to count its calls on a ``(2, n)`` stack into the
    one-element list ``count`` (a new one if None), and return it."""
    count, solve = [0] if count is None else count, op.solve

    def counted(rhs, out=None):
        count[0] += rhs.ndim == 2
        return solve(rhs, out)

    op.solve = counted
    return count


def count_coarse_work() -> list[int]:
    """Wrap ``memslab.curve._coarse_twin`` and ``memslab.curve._solve_jacobian``
    to count the two-field solves on every coarse twin built and the Schur
    solves of the fold solves; the returned list holds the two counts."""
    counts, build, schur = [0, 0], memslab.curve._coarse_twin, memslab.curve._solve_jacobian

    def built(*args):
        twin = build(*args)
        count_two_field_solves(twin.mesh.operator, counts)
        return twin

    def solved(*args):
        counts[1] += 1
        return schur(*args)

    memslab.curve._coarse_twin, memslab.curve._solve_jacobian = built, solved
    return counts


def count_started_probes(mesh) -> list[int]:
    """Wrap ``memslab.curve.minimal_solve`` to count the probes on ``mesh``
    handed a start s, those of them restarted from (0, 0), and the probes on
    other meshes (the coarse twins); the returned list holds the three
    counts.  A probe restarted exactly when its first Picard iterate is not
    >= s: kept, that iterate is T(s) >= s; restarted, it is T(0), which lies
    below s wherever T(s) does, as T is monotone and s >= 0.  No solve is
    added."""
    counts, solve = [0, 0, 0], memslab.curve.minimal_solve

    def counted(m, f, g, lam, mu, *args, start=None, **kwargs):
        counts[2] += m is not mesh
        if m is mesh and start is not None:
            counts[0] += 1

            def on_step(it, u, v):
                if it == 1:
                    counts[1] += bool(np.any(u < start[0]) or np.any(v < start[1]))

            kwargs["on_step"] = on_step
        return solve(m, f, g, lam, mu, *args, start=start, **kwargs)

    memslab.curve.minimal_solve = counted
    return counts


def run_pass(mesh, one, solves: list[int], starts: list[int],
             coarse: list[int]) -> tuple[float, int, int, int, int, int, int, int, str, str]:
    """Wall seconds, minor faults, fine two-field solves, fine probes handed
    a start and restarted, coarse probes, coarse two-field solves, fold
    Schur solves, and the RaySample and ends digests of one pass."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    solves[0] = starts[0] = starts[1] = starts[2] = coarse[0] = coarse[1] = 0
    start = time.perf_counter()
    rays = []
    for theta in DISK_THETAS:
        rays.append(extremal_on_ray(mesh, one, one, theta,
                                    previous=rays[-1] if rays else None))
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    ends = [(r.theta, r.lam_lo, r.lam_hi) for r in rays]
    return (wall, faults, solves[0], starts[0], starts[1], starts[2], coarse[0], coarse[1],
            sha256(rays), sha256(ends))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    mesh = build_radial(DISK["dimension"], DISK["radius"], DISK["nodes"])
    one = constant_profile(mesh, 1.0)
    solves = count_two_field_solves(mesh.operator)
    starts = count_started_probes(mesh)
    coarse = count_coarse_work()
    for k in range(args.passes + 1):
        (wall, faults, n, started, restarted, coarse_probes, coarse_solves, fold_solves,
         rays, ends) = run_pass(mesh, one, solves, starts, coarse)
        label = "warm-up" if k == 0 else f"pass {k}"
        print(f"{label}  wall_s={wall:.4f}  minflt={faults}  solves={n}  "
              f"starts={started}  restarts={restarted}  coarse_probes={coarse_probes}  "
              f"coarse_solves={coarse_solves}  fold_solves={fold_solves}  "
              f"rays={rays}  ends={ends}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
