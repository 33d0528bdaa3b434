"""Smoke tests of ``tools/artifact_digest.py``, the digest list that shows a
refactor left every CLI artifact byte-identical, of ``tools/ray_probe.py``,
whose passes must repeat bit for bit, and of every script in ``demos/``."""

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
    assert len(lines) == 43
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
    hashes = []
    for label, line in zip(("warm-up", "pass 1"), lines):
        match = re.fullmatch(label + r"  wall_s=\d+\.\d{4}  minflt=\d+  rays=([0-9a-f]{64})",
                             line)
        assert match, line
        hashes.append(match[1])
    assert hashes[0] == hashes[1]


ROOT = TOOL.parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter in an empty directory, so files a demo writes land there
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
