#!/usr/bin/env python3
"""Compute the frozen lambda* of the square and branch anchor rays.

Runs ``extremal_on_ray`` on each anchor with the bisection tolerance
tightened to 1e-5 and prints the values that ``workloads.py`` freezes as
GOLDEN_SQUARE and GOLDEN_BRANCH.  Takes a few minutes on one core.

    python3 perfbench/make_goldens.py
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from memslab import build_rect  # noqa: E402
from memslab.curve import CurveConfig, extremal_on_ray  # noqa: E402
from memslab.profiles import constant_profile, load_tabulated  # noqa: E402

GOLDEN_RTOL = 1e-5


def main() -> None:
    mesh = build_rect(1.0, 1.0, workloads.SQUARE["nx"], workloads.SQUARE["ny"])
    one = constant_profile(mesh, 1.0)
    s, theta = workloads.BRANCH_ANCHOR
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "f.csv"
        workloads.write_indicator(path, s)
        indicator = load_tabulated(mesh, path)
    cfg = CurveConfig(rtol=GOLDEN_RTOL)
    anchors = (("GOLDEN_SQUARE", one, 1.0), ("GOLDEN_BRANCH", indicator, theta))
    for name, f, th in anchors:
        ray = extremal_on_ray(mesh, f, one, th, cfg)
        print(f"{name} = ({ray.lam_star!r}, {GOLDEN_RTOL!r})  # width "
              f"{ray.bracket_width:.2e}, {ray.iterations_total} iterations, "
              f"{ray.unresolved_probes} unresolved probes", flush=True)


if __name__ == "__main__":
    main()
