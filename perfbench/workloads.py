"""Seeded inputs for each workload and the checks on what memslab writes.

Every workload is a *pass*: a short list of ``memslab`` CLI invocations.
Each pass holds a frozen core (same on every seed) and a seeded part drawn
from ``--seed``.  The core is there because the cost of one ray is heavy
tailed: a ray whose last feasible probe lands very close to lambda* costs
up to 4x the median in Picard iterations (critical slowing down), so a pass
made only of seeded rays varies by about 25% from seed to seed.  For the
same reason the seed draws several variants of the seeded part, and the
benchmark cycles through them and takes the median over variants: one
costly draw then moves the run's time far less.  The core carries one
anchor ray per workload whose lambda* is frozen below, which makes
``lam_star_gap`` a fixed-input measurement.

Generated numbers are plain Python floats, so ``json`` writes them in a
form the CLI accepts.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

RTOL = 1e-3  # the CLI's default bisection tolerance; configs leave it unset

# Frozen critical parameters of the anchor rays.  The disk value is the
# package's own 4096-node golden (bisection rtol 1e-4); the other two come
# from ``python3 perfbench/make_goldens.py`` (bisection rtol 1e-5).
GOLDEN_DISK = (0.7892086977942018, 1e-4)
GOLDEN_SQUARE = (2.6843578546908327, 1e-5)
GOLDEN_BRANCH = (3.3015385577784984, 1e-5)

DISK = {"kind": "radial", "dimension": 2, "radius": 1.0, "nodes": 4096}
SQUARE = {"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 64, "ny": 64}
ONE = {"kind": "constant", "value": 1.0}
DISK_THETAS = (0.2, 0.3, 0.45, 0.7, 1.0, 1.6, 2.5, 4.0)
SQUARE_THETAS = (0.5, 0.7, 1.0, 1.3, 1.8)
FRACTIONS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.999)
BRANCH_ANCHOR = (0.55, 1.0)  # (indicator edge s, theta)

WORKLOADS = ("disk-sweep", "square-sweep", "branch-stability")
# Seeded variants of the pass per workload.  Every run makes at least this
# many passes, so each variant runs, and the longer passes get fewer.
VARIANTS = {"disk-sweep": 5, "square-sweep": 3, "branch-stability": 3}


@dataclass
class Invocation:
    """One ``memslab`` CLI call of a pass and what its output must satisfy."""

    command: str
    config: dict
    config_path: Path
    out: Path
    anchor_theta: float | None = None   # the ray checked against the golden
    golden: tuple[float, float] | None = None
    thetas: list[float] = field(default_factory=list)
    core: tuple[float, ...] = ()        # thetas of the frozen core

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config_path),
                "--out", str(self.out), "--threads", "1"]

    @property
    def operations(self) -> int:
        """Rays plus branch points this call is asked for."""
        if self.command == "curve":
            return len(self.thetas)
        return 1 + len(self.config["fractions"])


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def write_indicator(path: Path, s: float) -> None:
    """Tabulated f = 1 on cells of the 64x64 square with centre x < s."""
    n = SQUARE["nx"]
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for ix in range(n):
            value = 1.0 if (ix + 0.5) / n < s else 0.0
            for iy in range(SQUARE["ny"]):
                fh.write(f"{ix * SQUARE['ny'] + iy},{value!r}\n")


def generate(workload: str, seed: int, work: Path,
             root: Path) -> list[list[Invocation]]:
    """Write the configs of each pass variant under ``work``; return the calls.

    Variant k is the frozen core plus the k-th seeded draw.  Paths inside
    configs are relative to ``root`` (the CLI runs there), so the config
    fingerprints do not depend on where the checkout lives.
    """
    rng = random.Random(f"{workload}:{seed}")
    rel = work.relative_to(root)

    def add(name, command, config, **kw):
        path = work / f"{name}.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
        return Invocation(command, config, rel / path.name, rel / name, **kw)

    def sweep(name, domain, core, lo, hi, golden):
        thetas = sorted([*core, _log_uniform(rng, lo, hi)])
        return [add(name, "curve", {"domain": domain, "f": ONE, "g": ONE,
                                    "theta_grid": thetas},
                    anchor_theta=1.0, golden=golden, thetas=thetas, core=core)]

    def extremal(name, s, theta, **kw):
        write_indicator(work / f"f_{name}.csv", s)
        config = {"domain": SQUARE, "g": ONE, "theta": theta,
                  "f": {"kind": "tabulated", "path": str(rel / f"f_{name}.csv")},
                  "fractions": list(FRACTIONS)}
        return add(name, "extremal", config, thetas=[theta], **kw)

    variants = range(VARIANTS[workload])
    if workload == "disk-sweep":
        return [sweep(f"sweep{k}", DISK, DISK_THETAS, 0.2, 5.0, GOLDEN_DISK)
                for k in variants]
    if workload == "square-sweep":
        return [sweep(f"sweep{k}", SQUARE, SQUARE_THETAS, 0.5, 2.0, GOLDEN_SQUARE)
                for k in variants]
    s, theta = BRANCH_ANCHOR
    anchor = extremal("anchor", s, theta, anchor_theta=theta,
                      golden=GOLDEN_BRANCH, core=(theta,))
    return [[anchor, extremal(f"seeded{k}", rng.uniform(0.4, 0.7),
                              _log_uniform(rng, 0.5, 2.0))]
            for k in variants]


def clear_output(call: Invocation, root: Path) -> None:
    """Empty the call's output directory, so no pass checks stale files."""
    shutil.rmtree(root / call.out, ignore_errors=True)
    (root / call.out).mkdir(parents=True)


# ---------------------------------------------------------------- checks

_NP_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def strict_float(cell: str) -> float | None:
    """The cell as a float, or None when it is not a plain float literal."""
    try:
        return float(cell)
    except ValueError:
        return None


def lenient_float(cell: str) -> float:
    """The value a cell means, also for numpy scalar reprs like np.float64(x)."""
    m = _NP_SCALAR.match(cell.strip())
    return float(m.group(1) if m else cell)


def _rows(path: Path) -> tuple[list[str], list[list[str]], str | None]:
    fingerprint = None
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("# config_fingerprint: "):
            fingerprint = line.split(": ", 1)[1].strip()
        elif not line.startswith("#"):
            lines.append(line)
    table = list(csv.reader(lines))
    return table[0], table[1:], fingerprint


@dataclass
class CallReport:
    """Outcome of the checks on one invocation."""

    attempted: int
    failures: list[str] = field(default_factory=list)  # one per failed operation
    wrong: list[str] = field(default_factory=list)     # answers that are wrong
    fingerprint: str | None = None
    gap: float | None = None             # anchor |lambda* - golden| / golden
    core_widths: list[float] = field(default_factory=list)


def _check_ray(report: CallReport, call: Invocation, ray) -> list[str]:
    """Why a returned RaySample fails its ray, or an empty list.

    These are the ray failures that count in fail_frac: a lambda* outside
    [lower_cert, upper_cert] or a bracket wider than rtol.  A bracket that
    misses the anchor's golden is also a wrong answer.
    """
    problems = []
    if ray.lam_star < ray.lower_cert:
        problems.append(f"lambda* {ray.lam_star!r} below lower_cert "
                        f"{ray.lower_cert!r}")
    if ray.upper_cert is not None and ray.lam_star > ray.upper_cert:
        problems.append(f"lambda* {ray.lam_star!r} above upper_cert "
                        f"{ray.upper_cert!r}")
    if not ray.bracket_width <= RTOL * (1.0 + RTOL):
        problems.append(f"bracket width {ray.bracket_width!r} exceeds rtol")
    if call.golden and ray.theta == call.anchor_theta:
        golden, golden_rtol = call.golden
        report.gap = abs(ray.lam_star - golden) / golden
        if report.gap > 0.5 * ray.bracket_width + golden_rtol:
            problems.append(f"golden {golden!r} outside the bracket")
            report.wrong.append(f"theta={ray.theta!r}: {problems[-1]}")
    if ray.theta in call.core:
        report.core_widths.append(ray.bracket_width)
    return problems


def check_curve(call: Invocation, rc: int, rays: dict, root: Path) -> CallReport:
    """Check ``curve.csv`` row by row against the rays the library returned."""
    report = CallReport(call.operations)
    out = root / call.out
    manifest = out / "curve_failures.json"
    if not (out / "curve.csv").exists():
        report.failures = [f"exit code {rc}, no curve.csv"] * report.attempted
        return report
    failed = {}
    if manifest.exists():
        for item in json.loads(manifest.read_text())["failures"]:
            failed[float(item["theta"])] = item["error"]
    header, rows, report.fingerprint = _rows(out / "curve.csv")
    bounds = json.loads((out / "bounds.json").read_text())
    if bounds["config_fingerprint"] != report.fingerprint:
        report.wrong.append("bounds.json and curve.csv fingerprints differ")
    by_theta = {lenient_float(dict(zip(header, r))["theta"]): dict(zip(header, r))
                for r in rows}
    for theta in call.thetas:
        cells, ray = by_theta.get(theta), rays.get(theta)
        if theta in failed:
            problems = [f"listed in curve_failures.json: {failed[theta]}"]
        elif cells is None or ray is None:
            problems = ["no row in curve.csv"]
        else:
            problems = _check_ray(report, call, ray)
            bad = [k for k, v in cells.items() if v != "" and strict_float(v) is None]
            if bad:
                problems.append(f"cells {bad} do not parse as floats")
            written = tuple(lenient_float(cells[k])
                            for k in ("lambda_star", "mu_star", "bracket_width"))
            if written != (ray.lam_star, ray.mu_star, ray.bracket_width):
                report.wrong.append(f"theta={theta!r}: curve.csv row {written} "
                                    f"differs from the returned ray")
                problems.append("row differs from the returned ray")
        if problems:
            report.failures.append(f"theta={theta!r}: " + "; ".join(problems))
    return report


def check_extremal(call: Invocation, rc: int, rays: dict, root: Path) -> CallReport:
    """Check ``approach.csv`` and ``extremal_summary.json`` of one branch sweep."""
    report = CallReport(call.operations)
    if rc != 0:
        report.failures = [f"exit code {rc}"] * report.attempted
        return report
    out = root / call.out
    summary = json.loads((out / "extremal_summary.json").read_text())
    report.fingerprint = summary["config_fingerprint"]
    lam_star = summary["lambda_star"]
    theta = call.config["theta"]
    ray = rays.get(theta)
    if ray is None:
        report.failures.append(f"theta={theta!r}: no ray returned")
    else:
        problems = _check_ray(report, call, ray)
        # the sweep runs below the feasible end of the bracket
        low = ray.lam_star * (1.0 - 0.5 * ray.bracket_width)
        if not low * (1 - 1e-12) <= lam_star <= ray.lam_star:
            problems.append(f"summary lambda_star {lam_star!r} outside the "
                            f"lower half of the bracket")
            report.wrong.append(problems[-1])
        if problems:
            report.failures.append(f"theta={theta!r}: " + "; ".join(problems))

    header, rows, fingerprint = _rows(out / "approach.csv")
    if fingerprint != report.fingerprint:
        report.wrong.append("approach.csv and summary fingerprints differ")
    by_t = {lenient_float(dict(zip(header, r))["t"]): dict(zip(header, r))
            for r in rows}
    prev_sup = (0.0, 0.0)
    for t in call.config["fractions"]:
        cells = by_t.get(t)
        if cells is None:
            report.failures.append(f"t={t!r}: fraction skipped")
            continue
        values = {k: lenient_float(v) for k, v in cells.items()}
        problems = []
        if abs(values["lambda"] - t * lam_star) > 1e-12 * lam_star:
            problems.append(f"lambda {values['lambda']!r} is not t * lambda*")
        sup = (values["sup_u"], values["sup_v"])
        if not all(p <= s < 1.0 for p, s in zip(prev_sup, sup)):
            problems.append(f"sup (u, v) = {sup} not increasing inside [0, 1)")
        prev_sup = sup
        report.wrong.extend(f"t={t!r}: {p}" for p in problems)
        if values["nu1"] <= 0:
            problems.append(f"nu1 {values['nu1']!r} not positive below lambda*")
        bad = [k for k, v in cells.items() if strict_float(v) is None]
        if bad:
            problems.append(f"cells {bad} do not parse as floats")
        if problems:
            report.failures.append(f"t={t!r}: " + "; ".join(problems))
    return report


def check(call: Invocation, rc: int, rays: dict, root: Path) -> CallReport:
    if call.command == "curve":
        return check_curve(call, rc, rays, root)
    return check_extremal(call, rc, rays, root)


def snapshot(call: Invocation, root: Path) -> dict[str, bytes]:
    """Every artifact the call wrote, for comparing passes byte by byte."""
    out = root / call.out
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
