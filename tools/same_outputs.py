"""Compare the outputs of two checkouts, run for run: `bubbledyn run` on
draws of every benchmark workload and on the shipped scenarios.

Usage:
    python tools/same_outputs.py PARENT [CHANGE]

PARENT and CHANGE are checkouts (CHANGE defaults to the one this script
sits in).  The scenarios come from this checkout: draws (950, 0),
(951, 1), (42, 2) and (7001, 0) of each workload in
perfbench/workloads.py, run with that workload's own arguments, and each
scenarios/*.json, run with --residual-cadence 3, as is two_bubble_cavity
twice more: in a wall moved to (0.3, -0.2, 0.1) with radius 3.6 and in
the L1 icosphere of radius 4 read from an OFF file.  Each checkout runs
them all in one interpreter, with OPENBLAS_NUM_THREADS=1 and its own src
first on the path.

For each run it prints "identical" (the bytes of trajectory.csv, and
diagnostics.json without stats.wall_time) or the largest column-relative
difference of the two trajectories (a column that is roundoff on both
sides taken relative to the bubble parameters' scale), both n_rhs, and
both counts of potential.added_mass calls, which the runner counts by
wrapping the function.  Exits 1 if a run fails or the n_rhs differ.
"""

import csv
import glob
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRAWS = ((950, 0), (951, 1), (42, 2), (7001, 0))
# a column no larger than this times the trajectory scale is roundoff
ROUNDOFF = 1e-12

# runs the jobs of one checkout: argv = src, jobs file, results file; each
# run's result is its exit code and its count of added_mass calls
RUNNER = """
import json, os, sys
src, jobs, codes_path = sys.argv[1:]
sys.path.insert(0, src)
import bubbledyn
from bubbledyn import cli, potential
if not os.path.abspath(bubbledyn.__file__).startswith(src + os.sep):
    sys.exit(f"bubbledyn imported from {bubbledyn.__file__}, not from {src}")
plain, calls = potential.added_mass, [0]


def counted(*args, **kwargs):
    calls[0] += 1
    return plain(*args, **kwargs)


potential.added_mass = counted
codes = {}
with open(jobs) as fh:
    for name, scenario, out, args in json.load(fh):
        calls[0] = 0
        try:
            code = cli.main(["run", "--scenario", scenario, "--out", out, *args])
        except Exception as exc:  # one failed run does not stop the others
            code = repr(exc)
        codes[name] = [code, calls[0]]
with open(codes_path, "w") as fh:
    json.dump(codes, fh)
"""


def scenarios(tmp):
    """(name, scenario path, run arguments) of every run, the workload
    draws written into ``tmp``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    # registered before it runs: its dataclasses look their module up
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = []
    for name, workload in workloads.WORKLOADS.items():
        for seed, rep in DRAWS:
            path = os.path.join(tmp, f"{name}-{seed}-{rep}.json")
            with open(path, "w") as fh:
                json.dump(workloads.generate(name, seed, rep), fh)
            runs.append((f"{name} ({seed}, {rep})", path, list(workload.run_args)))
    for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        runs.append((name, path, ["--residual-cadence", "3"]))
    # two_bubble_cavity in walls whose own blocks are not the unit sphere's
    # scaled by a power of two: one moved off the origin and shrunk, and the
    # L1 icosphere of radius 4 read from an OFF file
    with open(os.path.join(ROOT, "scenarios", "two_bubble_cavity.json")) as fh:
        cavity = json.load(fh)
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from bubbledyn.shapes import reference_icosphere
    verts, faces = reference_icosphere(1)
    off = os.path.join(tmp, "wall-l1-r4.off")
    with open(off, "w") as fh:
        fh.write(f"OFF\n{len(verts)} {len(faces)} 0\n")
        fh.writelines(" ".join(repr(float(x)) for x in 4.0 * v) + "\n" for v in verts)
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in faces)
    walls = {"off-centre": {"type": "cavity_sphere", "center": [0.3, -0.2, 0.1], "radius": 3.6},
             "off-file": {"type": "cavity_mesh", "path": off}}
    for label, domain in walls.items():
        path = os.path.join(tmp, f"two_bubble_cavity-{label}.json")
        with open(path, "w") as fh:
            json.dump({**cavity, "domain": domain}, fh)
        runs.append((f"two_bubble_cavity {label}", path, ["--residual-cadence", "3"]))
    return runs


def start(checkout, runs, tmp, tag):
    """Start the interpreter that runs ``runs`` from ``checkout``: the
    process, its exit-codes file and each run's output directory."""
    src = os.path.join(os.path.abspath(checkout), "src")
    outs = [os.path.join(tmp, tag, str(k)) for k in range(len(runs))]
    jobs, codes = os.path.join(tmp, f"{tag}-jobs.json"), os.path.join(tmp, f"{tag}-codes.json")
    with open(jobs, "w") as fh:
        json.dump([(name, path, out, args) for (name, path, args), out in zip(runs, outs)], fh)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-c", RUNNER, src, jobs, codes], env=env,
                            cwd=tmp, stdout=subprocess.DEVNULL)
    return proc, codes, outs


def read(out):
    """The bytes of trajectory.csv and diagnostics.json without
    stats.wall_time."""
    with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
        trajectory = fh.read()
    with open(os.path.join(out, "diagnostics.json")) as fh:
        diagnostics = json.load(fh)
    diagnostics["stats"].pop("wall_time", None)
    return trajectory, diagnostics


def difference(csv_a, csv_b):
    """The largest column-relative difference of two trajectories, with its
    column: max |a - b| / max(|a|, |b|) over the rows of each column.  A
    column that is roundoff on both sides, every |value| at most
    ROUNDOFF times the trajectory scale (the largest |value| of the bubble
    parameter columns b<i>_<name>, not their rates b<i>_v<name>), is
    divided by that scale instead: one that is zero by symmetry would
    otherwise read O(1) from its last bits."""
    rows_a, rows_b = (list(csv.reader(c.decode().splitlines())) for c in (csv_a, csv_b))
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return f"trajectories differ in shape: {len(rows_a)} and {len(rows_b)} rows"
    columns = {}
    for k, column in enumerate(rows_a[0]):
        a = [float(r[k]) if r[k] else math.nan for r in rows_a[1:]]
        b = [float(r[k]) if r[k] else math.nan for r in rows_b[1:]]
        if [math.isnan(x) for x in a] != [math.isnan(y) for y in b]:
            return f"column {column} sampled at different rows"
        pairs = [(x, y) for x, y in zip(a, b) if not math.isnan(x)]
        columns[column] = (max((max(abs(x), abs(y)) for x, y in pairs), default=0.0),
                           max((abs(x - y) for x, y in pairs), default=0.0))
    trajectory = max((size for column, (size, _) in columns.items()
                      if re.fullmatch(r"b\d+_[^v]\w*", column)), default=0.0)
    worst, where = 0.0, None
    for column, (size, diff) in columns.items():
        scale = trajectory if size <= ROUNDOFF * trajectory else size
        rel = diff / scale if scale > 0.0 else 0.0
        if rel > worst or where is None:
            worst, where = rel, column
    return f"largest column-relative difference {worst:.3e} ({where})"


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    checkouts = (argv[1], argv[2] if len(argv) > 2 else ROOT)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        runs = scenarios(tmp)
        started = [start(c, runs, tmp, tag) for c, tag in zip(checkouts, ("parent", "change"))]
        results = []
        for proc, codes, outs in started:
            proc.wait()
            try:
                with open(codes) as fh:
                    results.append((json.load(fh), outs))
            except FileNotFoundError:
                sys.exit(f"the interpreter for {checkouts[len(results)]} exited "
                         f"{proc.returncode} before running every scenario")
        (codes_a, outs_a), (codes_b, outs_b) = results
        for k, (name, _, _) in enumerate(runs):
            (code_a, mass_a), (code_b, mass_b) = codes_a[name], codes_b[name]
            if code_a != 0 or code_b != 0:
                print(f"{name:32s} FAILED: exit {code_a} / {code_b}")
                ok = False
                continue
            (csv_a, diag_a), (csv_b, diag_b) = read(outs_a[k]), read(outs_b[k])
            n_a, n_b = diag_a["stats"]["n_rhs"], diag_b["stats"]["n_rhs"]
            same_diag = (json.dumps(diag_a, sort_keys=True) == json.dumps(diag_b, sort_keys=True))
            if csv_a == csv_b:
                verdict = "identical" if same_diag else "trajectory identical, diagnostics differ"
            else:
                verdict = difference(csv_a, csv_b)
            print(f"{name:32s} {verdict}; n_rhs {n_a:g} / {n_b:g}; "
                  f"added_mass {mass_a} / {mass_b}")
            ok = ok and n_a == n_b
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
