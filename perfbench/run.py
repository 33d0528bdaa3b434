#!/usr/bin/env python3
"""Benchmark memslab end to end through its CLI, in one process.

    python3 perfbench/run.py --workload disk-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a full checkout; memslab is imported from the
checkout's ``src/``.  For each workload the benchmark writes seeded configs
under ``.perfbench-work/``, times a few cold set-ups in fresh interpreters,
then repeats the workload's pass of ``memslab.cli.main`` calls until
``--seconds`` have passed, cycling through the pass's seeded variants (each
at least once, at least three passes), checks every artifact of every pass,
and prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes of the first variant with traced ones (``tracer.py``) and
reports the per-layer metrics instead.  See README.md for what each number should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3  # a traced run makes at least two untraced and two traced

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "lam_star_gap": "ratio",
    "bracket_width_max": "ratio",
    "peak_rss_mb": "MB",
}


def environment(args, workload: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": commit,
    }


def measure_setup(call: workloads.Invocation) -> list[float]:
    """Cold set-up times from fresh interpreters; the first run is a warm-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           str(call.config_path)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return times


def run_pass(calls, traced: bool) -> dict:
    """One pass of the workload's CLI calls, timed, then checked.

    Untraced passes wrap only ``extremal_on_ray``, once per ray, to read the
    returned RaySample that the checks and the bracket metrics need.
    """
    from memslab import cli

    trace = tracer.Tracer()
    main = trace.wrap("cli.main", cli.main) if traced else cli.main
    results = []
    wall = cpu = 0.0
    with trace.installed(None if traced else {tracer.RAY}):
        for call in calls:
            workloads.clear_output(call, ROOT)
            first_span = len(trace.spans)
            error = None
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                rc = main(call.argv())
            except Exception as exc:  # the console script would exit 1
                rc, error = 1, f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            cpu += time.process_time() - start_cpu
            results.append((call, rc, error, first_span))
    reports = []
    for call, rc, error, first_span in results:
        report = workloads.check(call, rc, trace.rays(first_span), ROOT)
        if error:  # every operation of the call failed; say why
            report.failures = [error] * report.attempted
        reports.append(report)
    return {
        "traced": traced, "wall": wall, "cpu": cpu, "reports": reports,
        "artifacts": [workloads.snapshot(call, ROOT) for call in calls],
        "layers": tracer.layer_metrics(trace.spans) if traced else None,
        "shares": tracer.self_time_shares(trace.spans) if traced else None,
    }


def run_passes(variants, seconds: float, trace: bool) -> list[dict]:
    """Passes until ``seconds`` would be exceeded, cycling through variants.

    Every variant runs at least once.  In trace mode only the first variant
    runs, untraced and traced in turn, so that traced counts can repeat.
    """
    if trace:
        variants = variants[:1]
    start = time.perf_counter()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        variant = 0 if trace else len(passes) % len(variants)
        passes.append(run_pass(variants[variant], traced) | {"variant": variant})
        if traced or not trace:
            done = len(passes) >= (4 if trace else max(MIN_PASSES, len(variants)))
            typical = statistics.median(p["wall"] for p in passes)
            step = typical * (2 if trace else 1)
            if done and time.perf_counter() - start + step > seconds:
                return passes


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(name: str, args) -> dict:
    work = WORK / f"{name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        variants = workloads.generate(name, args.seed, work, ROOT)
        print(f"# perfbench {name} seed={args.seed} trace={args.trace}")
        print("env " + json.dumps(environment(args, name), sort_keys=True))
        setup = measure_setup(variants[0][0])
        passes = run_passes(variants, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return summarize(variants, setup, passes, peak_rss_mb, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def summarize(variants, setup, passes, peak_rss_mb, trace) -> dict:
    # Each operation counts once: later passes of a variant repeat its first
    # pass's input for timing, and must reproduce that pass's artifacts and
    # failures exactly.  So attempted and failed depend on the seed, not on
    # how many passes fit.  A call shared by variants counts once too.
    first = {}
    for p in passes:
        first.setdefault(p["variant"], p)
    checked = {}
    for k, p in sorted(first.items()):
        for call, report in zip(variants[k], p["reports"]):
            checked.setdefault(call.config_path, (call, report))
    reports = [report for _, report in checked.values()]
    attempted = sum(r.attempted for r in reports)
    failed = sum(len(r.failures) for r in reports)
    wrong = [w for p in passes for r in p["reports"] for w in r.wrong]
    if any(p["artifacts"] != first[p["variant"]]["artifacts"] for p in passes):
        wrong.append("artifacts differ between passes of the same input")
    if any([r.failures for r in p["reports"]]
           != [r.failures for r in first[p["variant"]]["reports"]]
           for p in passes):
        wrong.append("failures differ between passes of the same input")
    traced = [p for p in passes if p["traced"]]
    for p in traced[1:]:
        if any(p["layers"][k] != traced[0]["layers"][k] for k in tracer.COUNTS):
            wrong.append("layer counts differ between traced passes")
            break
    gaps = [r.gap for r in reports if r.gap is not None]
    if not gaps:
        wrong.append("the anchor ray returned no lambda*, so there is no gap")

    for call, report in checked.values():
        print(f"input {call.command} {call.out.name}: config_fingerprint="
              f"{report.fingerprint} thetas={call.thetas}")
    for call, report in checked.values():
        for f in report.failures:
            print(f"failed: {call.out.name}: {f}")
    for w in dict.fromkeys(wrong):
        print(f"wrong: {w}")
    print(f"checks: attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4f}; {len(passes)} passes of "
          f"{len(first)} variants, each checked")

    untraced = [p["wall"] for p in passes if not p["traced"]]
    by_variant = [statistics.median(p["wall"] for p in passes
                                    if p["variant"] == k and not p["traced"])
                  for k in sorted(first)]
    if trace:
        metrics = tracer.median_metrics([p["layers"] for p in traced])
        units = {**tracer.COUNTS, **tracer.TIMES}
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall"] for p in traced)
            / statistics.median(untraced) - 1.0)
        units["trace.overhead_frac"] = "ratio"
        print("self-time share: " + ", ".join(
            f"{k} {v:.1%}" for k, v in traced[0]["shares"][:8]))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(by_variant),
            "lam_star_gap": gaps[0] if gaps else 1.0,
            "bracket_width_max": max(
                (w for r in reports for w in r.core_widths), default=1.0),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        for key, values in (("setup_s", setup), ("wall_s", untraced)):
            q1, q3 = quartiles(values)
            print(f"{key}: n={len(values)} q1={q1:.4f} q3={q3:.4f}")
        print("wall_s by variant: " + " ".join(f"{v:.4f}" for v in by_variant))
        cpu = [statistics.median(p["cpu"] for p in passes if p["variant"] == k)
               for k in sorted(first)]
        print(f"cpu_s: {statistics.median(cpu):.4f}")
    for key, value in metrics.items():
        print(f"metric {key} = {value:.6g} {units[key]}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memslab" / "__init__.py").is_file():
        print(f"perfbench: no memslab package under {SRC}; "
              "run inside a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads; one process carries the load
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import memslab

    if Path(memslab.__file__).resolve().parent != SRC / "memslab":
        print(f"perfbench: imported memslab from {memslab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
