"""Smoke tests of ``tools/artifact_digest.py``, the digest list that shows a
refactor left every CLI artifact byte-identical, of ``tools/ray_probe.py``,
whose passes must repeat bit for bit, of the summary and the parsers of
``tools/bench_pairs.py``, and of every script in ``demos/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py"


def test_artifact_digest_lists_each_artifact_once():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 49
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}  [\w.-]+/[\w.-]+", line), line
    paths = [line.split("  ")[1] for line in lines]
    assert len(set(paths)) == len(paths)


PROBE = TOOL.parent / "ray_probe.py"


def test_ray_probe_passes_repeat_bit_for_bit():
    # a pass that differs from the warm-up shows state leaking between
    # solves through the operator's caches
    out = subprocess.run([sys.executable, str(PROBE), "--passes", "1"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    passes = []
    for label, line in zip(("warm-up", "pass 1"), lines):
        match = re.fullmatch(label + r"  wall_s=\d+\.\d{4}  minflt=\d+  solves=(\d+)  "
                             r"starts=(\d+)  restarts=(\d+)  coarse_probes=(\d+)  "
                             r"coarse_solves=(\d+)  fold_solves=(\d+)  "
                             r"rays=([0-9a-f]{64})  ends=([0-9a-f]{64})", line)
        assert match, line
        passes.append(match.groups())
    assert passes[0] == passes[1]   # the counts and both hashes
    assert int(passes[0][0]) > 0
    # every ray's upper probe starts below the fold and keeps its start
    assert passes[0][1:3] == ("8", "0")
    # only the first ray runs a coarse ray, and each ray solves a fold
    assert all(int(n) > 0 for n in passes[0][3:6])


ROOT = TOOL.parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter in an empty directory, so files a demo writes land there
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_bench_pairs_summary():
    # medians, quartiles and the change's wins per metric, over the seeds
    # that ran on both sides, with the metric's better direction
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  TOOL.parent / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.parse_seeds("1-3,7") == [1, 2, 3, 7]
    runs = [{"seed": seed, "side": side, "metrics": {"wall_s": wall, "gap": gap}}
            for seed, side, wall, gap in [
                (1, "parent", 4.0, 1.0), (1, "change", 3.0, 2.0),
                (2, "parent", 2.0, 1.0), (2, "change", 1.0, 0.5),
                (3, "parent", 1.0, 1.0), (3, "change", 1.0, 1.0),
                (4, "parent", 9.0, 9.0)]]
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"},
               {"name": "gap", "unit": "ratio", "better": "higher"}]
    out = bench.summarize(runs, metrics)
    assert out["wall_s"]["pairs"] == 3 and out["wall_s"]["change_wins"] == 2
    assert out["wall_s"]["parent"] == {"median": 2.0, "q1": 1.5, "q3": 3.0}
    assert out["wall_s"]["change"] == {"median": 1.0, "q1": 1.0, "q3": 2.0}
    assert out["gap"]["change_wins"] == 1
    # the artifacts whose digests differ between the sides
    parent = bench.parse_digests("aa  run/a.csv\nbb  run/b.json\ncc  old/c.csv\n")
    assert parent == {"run/a.csv": "aa", "run/b.json": "bb", "old/c.csv": "cc"}
    change = {"run/a.csv": "aa", "run/b.json": "b2", "new/d.csv": "dd"}
    assert bench.compare_digests(parent, change) == {
        "equal": False, "changed": ["run/b.json"], "added": ["new/d.csv"],
        "removed": ["old/c.csv"]}
    assert bench.compare_digests(parent, dict(parent)) == {
        "equal": True, "changed": [], "added": [], "removed": []}
    # the hashes and counts of ray_probe's timed pass, its last line; an
    # older tool prints no coarse counts
    probe = ("warm-up  wall_s=0.0735  minflt=879  solves=371  rays=aa  ends=bb\n"
             "pass 1  wall_s=0.0686  minflt=801  solves=370  rays=cc  ends=dd\n")
    assert bench.parse_ray_probe(probe) == {
        "rays": "cc", "ends": "dd", "solves": 370,
        "coarse_probes": None, "coarse_solves": None, "fold_solves": None}
    probe = ("pass 1  wall_s=0.0473  minflt=1329  solves=250  starts=8  restarts=0  "
             "coarse_probes=9  coarse_solves=75  fold_solves=68  rays=ee  ends=ff\n")
    assert bench.parse_ray_probe(probe) == {
        "rays": "ee", "ends": "ff", "solves": 250,
        "coarse_probes": 9, "coarse_solves": 75, "fold_solves": 68}
    # the per-layer counts of a traced run, and which of them moved
    traced = {"correct": True, "metrics": {
        "stability.eigen_iters": {"value": 194, "unit": "count"},
        "mesh.solve.calls": {"value": 1031, "unit": "count"},
        "mesh.solve.s": {"value": 0.07, "unit": "s"},
        "solver.decisive_ratio": {"value": 1.0, "unit": "ratio"}}}
    counts = bench.layer_counts(traced)
    assert counts == {"stability.eigen_iters": 194, "mesh.solve.calls": 1031}
    parent = {"stability.eigen_iters": 371, "mesh.solve.calls": 1031}
    assert bench.compare_counts(parent, counts) == {
        "seed": 1, "parent": parent, "change": counts,
        "changed": ["stability.eigen_iters"]}
