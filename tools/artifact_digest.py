#!/usr/bin/env python3
"""Digest every artifact the CLI writes for a fixed set of small configs.

Runs each command except ``check`` (its report holds wall times) on the
configs below, in a temporary directory, and prints one line per artifact:

    <sha256>  <run>/<file>

Run it on two checkouts and diff the outputs to see which artifacts a change
altered:

    python3 tools/artifact_digest.py > after.txt

memslab is imported from the ``src/`` next to this script.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from memslab.cli import main  # noqa: E402

DISK = {"kind": "radial", "dimension": 2, "radius": 1.0, "nodes": 64}
# large enough for two-level rays: a 64-node fold predicts, continued in theta
DISK2K = dict(DISK, nodes=2048)
BALL3 = {"kind": "radial", "dimension": 3, "radius": 1.5, "nodes": 48}
INTERVAL = {"kind": "radial", "dimension": 1, "radius": 1.0, "nodes": 512}
SQUARE = {"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 16, "ny": 16}
SQUARE32 = {"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 32, "ny": 32}
# unequal sides and node counts: an axis or ordering mistake changes its bytes
WIDE = {"kind": "rect", "lx": 2.0, "ly": 0.5, "nx": 16, "ny": 40}
ONES = {"kind": "constant", "value": 1.0}
HALF = {"kind": "constant", "value": 0.5}
POWER = {"kind": "power", "alpha": 2.0}
# indicator of the left half of SQUARE, written next to the runs
INDICATOR = {"kind": "tabulated", "path": "indicator.csv"}
CURVE = {"rtol": 5e-3}

RUNS = (
    ("solve-disk", "solve",
     {"domain": DISK, "f": ONES, "g": HALF, "lambda": 0.5, "mu": 0.4}),
    ("solve-ball3-power", "solve",
     {"domain": BALL3, "f": POWER, "g": ONES, "lambda": 1.0, "mu": 0.5}),
    ("solve-square", "solve",
     {"domain": SQUARE, "f": ONES, "g": ONES, "lambda": 0.5, "mu": 0.5}),
    ("solve-rect-wide", "solve",
     {"domain": WIDE, "f": ONES, "g": HALF, "lambda": 2.0, "mu": 1.5}),
    # above lam*(1) ~ 0.7896: the nonexistence certificate ends the solve
    ("solve-disk-touch", "solve",
     {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.9, "mu": 0.9}),
    # far above lam*(1): an iterate touches 1 before the first Newton try
    ("solve-disk-far", "solve",
     {"domain": DISK, "f": ONES, "g": ONES, "lambda": 1.35, "mu": 1.35}),
    # near lam*(1) ~ 0.7896: the minimal solve takes certified Newton steps
    ("solve-disk-near-critical", "solve",
     {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.78, "mu": 0.78}),
    # 0.999 lam*(1), lam*(1) ~ 2.682186: the coupled CG Newton steps on a rectangle
    ("solve-square-near-critical", "solve",
     {"domain": SQUARE32, "f": ONES, "g": ONES, "lambda": 2.6795, "mu": 2.6795}),
    ("eigen-disk", "eigen",
     {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.4, "mu": 0.6}),
    # uncoupled: the Dirichlet pair (mu1, psi, psi)
    ("eigen-disk-uncoupled", "eigen",
     {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.0, "mu": 0.0}),
    ("eigen-disk-touch", "eigen",
     {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.9, "mu": 0.9}),
    ("eigen-square", "eigen",
     {"domain": SQUARE, "f": INDICATOR, "g": ONES, "lambda": 0.8, "mu": 0.5}),
    ("eigen-rect-wide", "eigen",
     {"domain": WIDE, "f": ONES, "g": HALF, "lambda": 2.0, "mu": 1.5}),
    # uncoupled: the closed-form rectangle pair (mu1, psi, psi)
    ("eigen-rect-wide-uncoupled", "eigen",
     {"domain": WIDE, "f": ONES, "g": ONES, "lambda": 0.0, "mu": 0.0}),
    ("curve-disk", "curve",
     {"domain": DISK, "f": ONES, "g": ONES, "theta_grid": [0.5, 1.0, 2.0],
      "curve": CURVE}),
    ("curve-disk-two-level", "curve",
     {"domain": DISK2K, "f": ONES, "g": ONES, "theta_grid": [0.5, 1.0, 2.0]}),
    ("curve-disk-power", "curve",
     {"domain": DISK, "f": ONES, "g": POWER, "theta_grid": [1.0], "curve": CURVE}),
    # a starved budget (32 loop steps a probe): unresolved probes end rays
    ("curve-disk-starved", "curve",
     {"domain": DISK, "f": ONES, "g": ONES, "theta_grid": [0.145, 1.0, 3.0],
      "solver": {"max_iter": 2}, "curve": {"rtol": 1e-4}}),
    # at theta = 0.158 a warm-started probe whose Newton step enters the
    # touch band; the 0.3 ray keeps the run comparable with older digests
    ("curve-interval-touch", "curve",
     {"domain": INTERVAL, "f": ONES, "g": ONES, "theta_grid": [0.158, 0.3]}),
    ("bounds-disk", "bounds", {"domain": DISK, "f": ONES, "g": HALF}),
    ("bounds-square", "bounds", {"domain": SQUARE, "f": INDICATOR, "g": HALF}),
    ("symmetrize-square", "symmetrize",
     {"domain": SQUARE, "f": INDICATOR, "g": ONES, "target_nodes": 32}),
    ("symmetrize-ball3", "symmetrize",
     {"domain": BALL3, "f": POWER, "g": ONES, "target_nodes": 32}),
    ("extremal-disk", "extremal",
     {"domain": DISK, "f": ONES, "g": ONES, "theta": 1.0,
      "fractions": [0.5, 0.9], "curve": CURVE}),
    ("extremal-square", "extremal",
     {"domain": SQUARE, "f": INDICATOR, "g": ONES, "theta": 1.0,
      "fractions": [0.5, 0.9], "curve": CURVE}),
)


def write_indicator(path: Path) -> None:
    nx, ny = SQUARE["nx"], SQUARE["ny"]
    rows = [f"{ix * ny + iy},{1.0 if ix < nx // 2 else 0.0}\n"
            for ix in range(nx) for iy in range(ny)]
    path.write_text("index,value\n" + "".join(rows))


def digests(root: Path) -> list[str]:
    write_indicator(root / "indicator.csv")
    for name, command, config in RUNS:
        cfg = root / f"{name}.json"
        cfg.write_text(json.dumps(config))
        main([command, "--config", cfg.name, "--out", name])
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root)}"
            for name, _, _ in RUNS for p in sorted((root / name).iterdir())]


def run() -> None:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative profile paths keep the config fingerprints independent of tmp
        os.chdir(tmp)
        try:
            lines = digests(Path(tmp))
        finally:
            os.chdir(here)
    print("\n".join(lines))


if __name__ == "__main__":
    run()
