"""Smoke test of ``tools/artifact_digest.py``, the digest list that shows a
refactor left every CLI artifact byte-identical."""

import re
import subprocess
import sys
from pathlib import Path

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
