"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <src dir> <config.json>

Prints the seconds taken by importing ``memslab.cli`` as the ``memslab``
command does (numpy and scipy included), building the config's mesh and
profiles, and the first Poisson solve, which factorizes the operator.  The
solve goes through ``DirichletLaplacian.solve``, as the Picard iteration's
do; ``solve_poisson`` adds a residual check that the 4096-node disk fails.
Paths in the config are relative to the working directory, as for the CLI.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()

import memslab.cli  # noqa: E402,F401
from memslab.mesh import build_radial, build_rect  # noqa: E402
from memslab.profiles import constant_profile, load_tabulated  # noqa: E402

config = json.loads(open(sys.argv[2]).read())
domain = config["domain"]
if domain["kind"] == "radial":
    mesh = build_radial(domain["dimension"], domain["radius"], domain["nodes"])
else:
    mesh = build_rect(domain["lx"], domain["ly"], domain["nx"], domain["ny"])
f, g = (load_tabulated(mesh, spec["path"]) if spec["kind"] == "tabulated"
        else constant_profile(mesh, spec["value"])
        for spec in (config["f"], config["g"]))
mesh.operator.solve(f.values + g.values)
print(time.perf_counter() - start)
