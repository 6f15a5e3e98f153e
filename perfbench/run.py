"""bubbledyn benchmark: time to solution and per-layer cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from its
``src``).  Every repetition is a fresh interpreter (child.py) that pays
imports and any cache fill as a user's ``bubbledyn run`` does; the
workloads are one solver process at a time, a closed loop with one client.
Repetitions use inputs drawn from (seed, repetition index).

--trace 0  repeats until S seconds have passed (at least three
           repetitions) and reports the end-to-end metrics as medians over
           the repetitions.
--trace 1  runs repetition 0 three times: untraced, traced, and traced with
           OPENBLAS_NUM_THREADS=1, and reports the per-layer metrics of the
           traced run, the tracing overhead against the untraced one, and
           the single-threaded-BLAS RHS median.

Children run with BUBBLEDYN_THREADS, OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS removed from their environment (library defaults), except
where stated.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed run or
correctness gate is printed and makes the exit code nonzero.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
# no new repetition starts after this many seconds, whatever --seconds says
START_BUDGET_S = 100.0
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BUBBLEDYN_THREADS")


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(args, rep, rep_dir, traced=False, blas1=False):
    """One repetition; returns the child's result dict, or None on failure."""
    os.makedirs(rep_dir)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if blas1:
        env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep), "--dir", rep_dir]
    if traced:
        cmd.append("--trace")
    log_path = os.path.join(rep_dir, "child.log")
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = os.path.join(rep_dir, "result.json")
    if rc == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_main"] - t_spawn
        print(f"rep {rep}: setup_s {result['setup_s']:.4f}  run_s {result['run_s']:.4f}  "
              f"n_rhs {result.get('n_rhs')}  peak_rss_mb {result['peak_rss_mb']:.1f}")
        for check, value, limit, ok in result["gates"]:
            if not ok:
                print(f"GATE FAILED rep {rep}: {check} = {value} (limit {limit})")
        return result
    with open(log_path) as fh:
        tail = fh.read()[-2000:]
    print(f"RUN FAILED rep {rep} (exit {rc}):\n{tail}")
    return None


def end_to_end(results):
    ok = [r for r in results if r is not None and r["rc"] == 0]
    if not ok:
        return {}
    med = statistics.median
    return {
        "setup_s": (med(r["setup_s"] for r in ok), "s"),
        "run_s": (med(r["run_s"] for r in ok), "s"),
        "rhs_per_s": (med(r["n_rhs"] / r["run_s"] for r in ok), "1/s"),
        "n_rhs": (med(r["n_rhs"] for r in ok), "count"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in ok), "MB"),
    }


def per_layer(plain, traced, blas1):
    if plain is None or any(r is None or "layers" not in r for r in (traced, blas1)):
        return {}
    layers = dict(traced["layers"])
    layers["trace.overhead"] = (traced["run_s"] / plain["run_s"] - 1.0, "ratio")
    layers["dynamics.rhs.ms_p50.blas1"] = blas1["layers"]["dynamics.rhs.ms_p50"]
    return layers


def report(args, results, metrics):
    """Human-readable lines; the JSON result line follows them."""
    done = [r for r in results if r is not None]
    failed = sum(1 for r in results if r is None or not r["ok"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(results)} runs, {failed} failed, failed_frac {failed / len(results):.3g}")
    if done:
        env = dict(done[0]["environment"], git_commit=git_commit())
        print("environment: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for key in ("traj_dev_rel", "energy_drift_rel", "volume_drift_rel"):
        values = [r["accuracy"][key] for r in done if key in r["accuracy"]]
        if values:
            print(f"  {key:<40} {max(values):.3e} ratio (max of {len(values)})")
    if done and "calls_by_site" in done[-1]:
        print("calls_by_site: " + json.dumps(done[-1]["calls_by_site"], sort_keys=True))
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "bubbledyn", "cli.py")):
        print(f"error: no bubbledyn sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    try:
        if args.trace:
            plain = run_child(args, 0, os.path.join(work, "plain"))
            traced = run_child(args, 0, os.path.join(work, "traced"), traced=True)
            blas1 = run_child(args, 0, os.path.join(work, "blas1"), traced=True, blas1=True)
            results = [plain, traced, blas1]
            metrics = per_layer(plain, traced, blas1)
        else:
            results = []
            start = time.monotonic()
            while True:
                elapsed = time.monotonic() - start
                if results and (elapsed >= START_BUDGET_S
                                or (len(results) >= MIN_REPS and elapsed >= args.seconds)):
                    break
                result = run_child(args, len(results), os.path.join(work, f"rep{len(results)}"))
                results.append(result)
                if result is None:
                    break
            metrics = end_to_end(results)
        failed = report(args, results, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it, or it is already gone
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(results),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
