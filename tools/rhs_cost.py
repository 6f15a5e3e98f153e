"""Per-call cost of the layers of one equations-of-motion call: the added
mass, the contraction (potential._velocity_rates) and one whole RHS
(dynamics.eom_rhs), and the Python-level calls of one contraction and
one added mass.

Usage:
    python tools/rhs_cost.py [PARENT] [--levels 0,1,2] [--reps N] [--calls N]

The inputs are draw (950, 0) of the two pair workloads of
perfbench/workloads.py, meshed at each level: the ellipsoid pair with
its centres' x doubled at level 0, whose mesh gap bound refuses the draw
there, and the cavity pair with its wall at level 1 or finer (a cavity
meshed wholly at level 0 is singular).  Each contraction reads the kept
kernel terms of a fresh added mass, as in a run.  A checkout runs in its
own interpreter, with OPENBLAS_NUM_THREADS=1 and its own src first on the
path, for ``--reps`` rounds (default 3) of ``--calls`` calls (default 5)
per layer; with a PARENT the two checkouts take their rounds
alternately.  Printed per workload, level and quantity: the median
milliseconds per call over every round (the call counts, from cProfile's
total_calls, are deterministic), each checkout's, and with a PARENT the
ratio change / parent.
"""

import json
import os
import subprocess
import sys
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ellipsoid_pair_l1", "cavity_pair_l1")
QUANTITIES = ("added_mass ms", "_velocity_rates ms", "rhs ms",
              "calls/contraction", "calls/added_mass")

# one round of one checkout: argv = src, workloads.py, levels, calls;
# prints {workload/level: {quantity: [values]}} as JSON
RUNNER = """
import cProfile, importlib.util, json, os, pstats, sys, time
src, workloads_py, levels, n = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path.insert(0, src)
import bubbledyn
from bubbledyn import dynamics, potential
from bubbledyn.scenario import scenario_from_dict
if not os.path.abspath(bubbledyn.__file__).startswith(src + os.sep):
    sys.exit(f"bubbledyn imported from {bubbledyn.__file__}, not from {src}")
spec = importlib.util.spec_from_file_location("workloads", workloads_py)
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)


def total_calls(fn, *args):
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return pstats.Stats(profile).total_calls


out = {}
for name in %r:
    for level in map(int, levels.split(",")):
        doc = workloads.generate(name, 950, 0)
        doc["solver"]["mesh_level"] = level
        if "wall_level" in doc["solver"]:
            doc["solver"]["wall_level"] = max(level, 1)
        elif level == 0:
            for bubble in doc["bubbles"]:
                bubble["shape"]["center"][0] *= 2.0
        s = scenario_from_dict(doc)
        state = s.initial_state()
        config, v = state.config, state.velocity
        dynamics.eom_rhs(s, state)  # warm the unit sphere and the wall
        cell = out[f"{name}/{level}"] = {"added_mass ms": [], "_velocity_rates ms": [],
                                         "rhs ms": []}
        for _ in range(n):
            t0 = time.perf_counter()
            mass = dynamics.mass_at(s, config)
            t1 = time.perf_counter()
            potential._velocity_rates(mass, v)
            t2 = time.perf_counter()
            dynamics.eom_rhs(s, state)
            t3 = time.perf_counter()
            for key, dt in zip(cell, (t1 - t0, t2 - t1, t3 - t2)):
                cell[key].append(1e3 * dt)
        cell["calls/contraction"] = [total_calls(potential._velocity_rates,
                                                 dynamics.mass_at(s, config), v)]
        cell["calls/added_mass"] = [total_calls(dynamics.mass_at, s, config)]
print(json.dumps(out))
""" % (WORKLOADS,)


def round_of(checkout, levels, calls):
    """One round of ``checkout``: {workload/level: {quantity: values}}."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", RUNNER, src,
                           os.path.join(ROOT, "perfbench", "workloads.py"), levels, str(calls)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv):
    args, options = [], {"--levels": "0,1,2", "--reps": "3", "--calls": "5"}
    it = iter(argv[1:])
    for a in it:
        if a in options:
            options[a] = next(it, None)
            if options[a] is None:
                sys.exit(f"{a} needs a value\n{__doc__}")
        else:
            args.append(a)
    if len(args) > 1:
        sys.exit(__doc__)
    checkouts = ([args[0]] if args else []) + [ROOT]
    levels, reps, calls = options["--levels"], int(options["--reps"]), int(options["--calls"])
    merged = [{} for _ in checkouts]
    for _ in range(reps):
        for seen, checkout in zip(merged, checkouts):
            for cell, quantities in round_of(checkout, levels, calls).items():
                for q, values in quantities.items():
                    seen.setdefault(cell, {}).setdefault(q, []).extend(values)
    head = ["workload", "level", "quantity"] + (["parent", "change", "ratio"] if args
                                                else ["value"])
    print(f"{head[0]:18s} {head[1]:>5s} {head[2]:20s} " + " ".join(f"{h:>9s}" for h in head[3:]))
    for cell in merged[-1]:
        name, level = cell.split("/")
        for q in QUANTITIES:
            values = [median(seen[cell][q]) for seen in merged]
            row = [f"{x:9.2f}" if q.endswith("ms") else f"{x:9.0f}" for x in values]
            if args:
                row.append(f"{values[1] / values[0]:9.3f}")
            print(f"{name:18s} {'L' + level:>5s} {q:20s} " + " ".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
