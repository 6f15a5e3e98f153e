"""One benchmark repetition in a fresh interpreter.

Imports bubbledyn from this checkout's ``src``, generates the workload's
scenario, runs ``bubbledyn.cli.main(["run", ...])`` in-process, then checks
the written outputs and writes ``result.json`` into ``--dir``.  With
``--trace`` the run is traced (see tracing.py) and the per-layer metrics
are added to the result.

The parent (run.py) notes the time just before it starts this process;
``t_main`` below, on the same system-wide monotonic clock, closes the
set-up interval.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BUBBLEDYN_THREADS")


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            **{k: os.environ.get(k) for k in THREAD_VARS}}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import bubbledyn
    from bubbledyn import cli
    if not os.path.abspath(bubbledyn.__file__).startswith(SRC + os.sep):
        sys.exit(f"bubbledyn imported from {bubbledyn.__file__}, not from {SRC}")
    import checks
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    doc = workloads.generate(args.workload, args.seed, args.rep)
    scenario_path = os.path.join(args.dir, "scenario.json")
    with open(scenario_path, "w") as fh:
        json.dump(doc, fh)
    out_dir = os.path.join(args.dir, "out")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    recording = (warnings.catch_warnings(record=True) if tracer
                 else contextlib.nullcontext([]))
    with recording as caught:
        if tracer:
            warnings.simplefilter("always")
        t_main = time.monotonic()
        rc = cli.main(["run", "--scenario", scenario_path, "--out", out_dir,
                       *workload.run_args])
        run_s = time.monotonic() - t_main
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rc": rc, "t_main": t_main, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "accuracy": {}, "gates": [("exit_code", rc, 0, rc == 0)]}
    if rc == 0:
        with open(os.path.join(out_dir, "diagnostics.json")) as fh:
            stats = json.load(fh)["stats"]
        result["n_rhs"] = int(stats["n_rhs"])
        result["n_steps"] = int(stats["n_steps"])
        result["accuracy"], gates = checks.check_run(args.workload, doc, out_dir,
                                                     workload.energy_ceiling)
        result["gates"] += gates
        if tracer:
            one_sided = sum("one-sided difference" in str(w.message) for w in caught)
            result["layers"] = tracing.layer_metrics(tracer.spans, run_s,
                                                     result["n_steps"], one_sided)
            result["calls_by_site"] = tracing.calls_by_site(tracer.spans)
    result["ok"] = all(g[3] for g in result["gates"])
    result["environment"] = environment()
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
