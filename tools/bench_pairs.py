#!/usr/bin/env python3
"""Benchmark a change against a parent revision in interleaved pairs.

    python3 tools/bench_pairs.py --parent <rev> --out BENCH_<n>.json \\
        [--seeds 1-10] [--seconds 10] [--parent-dir <path>]

The change is the checkout this script lives in, as its files stand.  The
parent is checked out with ``git worktree add`` into a temporary directory,
which is removed again at exit; with ``--parent-dir`` it is an existing
copy of ``<rev>`` (from ``git archive``, say), run as it stands.  For each
workload that ``BENCHMARK.json`` declares and each seed,
``perfbench/run.py --trace 0`` runs once on each side, one run at a time;
the parent goes first on odd seeds and the change first on even ones.
Before the runs the Python sources under ``src/`` and ``perfbench/`` of
both sides are compiled to bytecode (``compileall``), so that neither side
compiles them at every import while the other reads a cache: with
``PYTHONDONTWRITEBYTECODE`` set, a fresh copy never gets one, and its
``setup_s`` and ``peak_rss_mb`` read higher.
The output file holds the environment, every run's result, and per
workload and side the median and quartiles of each end-to-end metric, with
the number of seeds on which the change was better.  It also runs
``tools/artifact_digest.py`` once on each side and lists, under
``digests``, the artifacts whose bytes differ, or that only one side
writes; and it runs ``tools/ray_probe.py --passes 1`` once on each side
and records, under ``ray_probe``, each side's ray and end hashes, fine
two-field solves and coarse predictor counts (coarse probes, coarse
two-field solves and fold Schur solves; None where that side's tool does
not print them) of the timed pass, and whether they are equal.  Last, one
``perfbench/run.py --trace 1`` run per side and workload at seed 1 records,
under ``trace``, the per-layer counts of each side (``stability.eigen_iters``,
``mesh.solve.calls``, ``solver.iterations``, ...) and the names of those that
differ, so that a change in time can be read against a change in work.

Nothing under ``perfbench/`` and no benchmark declaration is changed; each
side runs its own copy of the benchmark.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, cwd: Path = ROOT) -> str:
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def parse_seeds(text: str) -> list[int]:
    """``3`` or ``1-10`` or ``1,4,7``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds")
    return seeds


BYTECODE_DIRS = ("src", "perfbench")


def compile_sources(root: Path) -> None:
    """Write the bytecode of one side's ``BYTECODE_DIRS``, as imports would
    without ``PYTHONDONTWRITEBYTECODE``."""
    for sub in BYTECODE_DIRS:
        if not compileall.compile_dir(root / sub, quiet=1):
            raise RuntimeError(f"{root / sub} does not compile")


def perfbench(root: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run; its last output line is the result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The checks and end-to-end metrics of one untraced run."""
    result = perfbench(root, workload, seed, seconds)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles over the seeds, and the
    seeds on which the change beat the parent."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "pairs": len(pairs), "change_wins": wins,
                     **{side: quartiles(v) for side, v in sides.items() if v}}
    return out


TRACE_SEED = 1


def layer_counts(result: dict) -> dict[str, int]:
    """The per-layer counts (unit ``count``) of a traced run's result."""
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] == "count"}


def compare_counts(parent: dict[str, int], change: dict[str, int]) -> dict:
    """Both sides' counts and the sorted names of those that differ."""
    return {"seed": TRACE_SEED, "parent": parent, "change": change,
            "changed": sorted(k for k in parent.keys() | change.keys()
                              if parent.get(k) != change.get(k))}


def parse_digests(text: str) -> dict[str, str]:
    """``{artifact: sha256}`` from ``tools/artifact_digest.py``'s lines."""
    return {path: digest for digest, path in
            (line.split("  ", 1) for line in text.splitlines() if line)}


def compare_digests(parent: dict[str, str], change: dict[str, str]) -> dict:
    """Which artifacts differ between the sides, each list sorted."""
    return {"equal": parent == change,
            "changed": sorted(p for p in parent.keys() & change.keys()
                              if parent[p] != change[p]),
            "added": sorted(change.keys() - parent.keys()),
            "removed": sorted(parent.keys() - change.keys())}


def artifact_digests(root: Path) -> dict[str, str]:
    done = subprocess.run([sys.executable, "tools/artifact_digest.py"], cwd=root,
                          capture_output=True, text=True, check=True)
    return parse_digests(done.stdout)


COARSE_COUNTS = ("coarse_probes", "coarse_solves", "fold_solves")


def parse_ray_probe(text: str) -> dict:
    """``{rays, ends, solves, coarse_probes, coarse_solves, fold_solves}`` of
    the last pass ``tools/ray_probe.py`` prints; a coarse count the line
    lacks (an older tool's) is None."""
    fields = dict(item.split("=", 1) for item in text.splitlines()[-1].split()
                  if "=" in item)
    return {"rays": fields["rays"], "ends": fields["ends"],
            "solves": int(fields["solves"]),
            **{k: int(fields[k]) if k in fields else None for k in COARSE_COUNTS}}


def ray_probe(root: Path) -> dict:
    done = subprocess.run([sys.executable, "tools/ray_probe.py", "--passes", "1"],
                          cwd=root, capture_output=True, text=True, check=True)
    return parse_ray_probe(done.stdout)


def environment(parent_rev: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
        "parent": {"rev": parent_rev, "commit": git("rev-parse", parent_rev)},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
        "bytecode": {"precompiled": list(BYTECODE_DIRS),
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--parent-dir", type=Path,
                        help="an existing copy of the parent revision to run")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    report = {"environment": environment(args.parent), "seeds": args.seeds,
              "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        parent = args.parent_dir or Path(tmp) / "parent"
        if args.parent_dir is None:
            git("worktree", "add", "--detach", str(parent), args.parent)
        try:
            for root in (parent, ROOT):
                compile_sources(root)
            report["digests"] = compare_digests(artifact_digests(parent),
                                                artifact_digests(ROOT))
            probes = {"parent": ray_probe(parent), "change": ray_probe(ROOT)}
            report["ray_probe"] = {**probes,
                                   "equal": probes["parent"] == probes["change"]}
            for workload in workloads:
                runs = []
                for seed in args.seeds:
                    sides = [("parent", parent), ("change", ROOT)]
                    for side, root in sides if seed % 2 else sides[::-1]:
                        print(f"{workload} seed {seed} {side}", file=sys.stderr, flush=True)
                        runs.append({"seed": seed, "side": side,
                                     **run_once(root, workload, seed, args.seconds)})
                report["workloads"][workload] = {
                    "metrics": summarize(runs, bench["end_to_end"]), "runs": runs}
            report["trace"] = {}
            for workload in workloads:
                print(f"{workload} seed {TRACE_SEED} traced", file=sys.stderr, flush=True)
                counts = [layer_counts(perfbench(root, workload, TRACE_SEED,
                                                 args.seconds, trace=1))
                          for root in (parent, ROOT)]
                report["trace"][workload] = compare_counts(*counts)
        finally:
            if args.parent_dir is None:
                git("worktree", "remove", "--force", str(parent))
                git("worktree", "prune")
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
