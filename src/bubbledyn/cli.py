"""Command-line interface: scenario runs, preflight checks and mesh
convergence studies.

Verbs:
    bubbledyn run         --scenario s.json [--out DIR] [--residual-cadence N]
    bubbledyn check       --scenario s.json
    bubbledyn convergence --scenario s.json --levels 1,2,3 [--out DIR]

``run`` writes trajectory.csv and diagnostics.json into the output
directory.  Scenario parse or validation failures exit nonzero with a
field-anchored message; runtime events (collision, shape degeneracy) exit
zero and are recorded in the diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import _lapack
from . import dynamics as dyn
from . import gas as gas_mod
from .errors import BubbleDynError
from .scenario import MAX_OUTPUT_ROWS, ScenarioError, parse_scenario, scenario_to_dict
from .shapes import (MAX_MESH_LEVEL, SLOTS, SphereParams, check_admissible, measures,
                     pack_params)


def _fmt(x) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def _bubble_columns(scenario):
    """Per bubble its parameters (pack_params order) and then their rates."""
    cols = []
    for i, spec in enumerate(scenario.bubbles):
        params = ["cx", "cy", "cz"] + (["r"] if isinstance(spec.shape, SphereParams)
                                       else [f"s{k + 1}{l + 1}" for k, l in SLOTS])
        cols += [f"b{i}_{c}" for c in params + ["v" + c for c in params]]
    return cols


def write_trajectory_csv(path, scenario, traj):
    header = (["t"] + _bubble_columns(scenario)
              + ["energy_kinetic", "energy_potential", "energy_total",
                 "impulse_x", "impulse_y", "impulse_z", "boundary_residual"])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k, state in enumerate(traj.states):
            q, qd = state.packed()
            row = [_fmt(traj.times[k])]
            for sl in state.config.slices():
                row += [_fmt(v) for v in q[sl]]
                row += [_fmt(v) for v in qd[sl]]
            row += [_fmt(traj.kinetic[k]), _fmt(traj.potential[k]),
                    _fmt(traj.total_energy[k])]
            if traj.impulse is not None:
                row += [_fmt(v) for v in traj.impulse[k]]
            else:
                row += ["", "", ""]
            resid = traj.boundary_residuals[k]
            row.append("" if np.isnan(resid) else _fmt(resid))
            fh.write(",".join(row) + "\n")


def _gram_diagnostics(A):
    """The diagnostics of the start state's added mass ``A``, which
    integrate hands over (its ``start``): no added mass of its own."""
    return {
        "gram_condition": A.condition,
        "gram_eigenvalues": [float(e) for e in A.eigenvalues],
        "gram_reciprocity_defect": A.asymmetry,
        "collocation_condition": A.collocation_condition,
    }


def write_diagnostics_json(path, scenario, traj, extra):
    doc = {
        "termination": traj.termination,
        "stats": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                  for k, v in traj.stats.items()},
        "scenario": scenario_to_dict(scenario),
        **extra,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _make_out_dir(path):
    """Create the output directory ``path``; a ScenarioError anchored at
    --out where it cannot be created (a file in the way, no permission)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out: cannot create the output directory ({exc})") from exc


def cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    if args.residual_cadence is not None:
        if args.residual_cadence < 0:
            raise ScenarioError(f"--residual-cadence: must be >= 0, "
                                f"got {args.residual_cadence}")
        scenario = dataclasses.replace(scenario,
                                       residual_cadence=args.residual_cadence)
    try:
        dyn.check_start(scenario)
    except BubbleDynError as exc:
        # a start fault is the scenario's: refused before any output or assembly
        raise ScenarioError(f"bubbles: {exc}") from exc
    _make_out_dir(args.out)
    extra = {}
    traj = dyn.integrate(scenario, start=lambda A: extra.update(_gram_diagnostics(A)))
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), scenario, traj)
    write_diagnostics_json(os.path.join(args.out, "diagnostics.json"),
                           scenario, traj, extra)
    print(f"run finished: {traj.termination} at t={traj.stats['t_final']:.6g} "
          f"({traj.stats['n_steps']} steps, {traj.stats['n_rhs']} rhs evaluations)")
    print(f"wrote {os.path.join(args.out, 'trajectory.csv')} and diagnostics.json")
    return 0


def cmd_check(args) -> int:
    scenario = parse_scenario(args.scenario)
    config = scenario.configuration()
    print(f"scenario: {args.scenario}")
    print(f"bubbles: {config.n_bubbles}, domain "
          f"{'bounded' if config.bounded else 'unbounded'}, "
          f"mesh level {scenario.mesh_level}")

    report = check_admissible(config, scenario.admissibility_level)
    if report.ok:
        print(f"admissibility: ok (minimum gap {report.min_gap:.6g})")
    else:
        for v in report.violations:
            print(f"admissibility: VIOLATION {v.kind} pair={v.pair} gap={v.gap:.6g}")
    margin = dyn.collision_margin(scenario, config)
    if np.isfinite(margin):
        print(f"collision margin: {'ok' if margin > 0 else 'VIOLATION'} (smallest gap "
              f"less threshold {margin:.6g}; a run must start above 0)")

    if config.bounded:
        flux, ok = dyn.volume_flux(config, scenario.initial_state().packed()[1])
        if ok:
            print("cavity volume constraint: satisfied")
        else:
            print(f"cavity volume constraint: VIOLATED (net volume flux {flux:.6g}; "
                  "initial velocities must keep the total bubble volume fixed)")

    periods = []
    for i, spec in enumerate(scenario.bubbles):
        p_b = gas_mod.bubble_pressure(spec.gas, measures(spec.shape).volume)
        if scenario.p_infinity > 0:
            periods.append(dyn.minnaert_period(scenario, spec.gas))
            r_eq = gas_mod.equilibrium_radius(spec.gas, scenario.p_infinity)
            at_eq = abs(p_b - scenario.p_infinity) < 1e-9 * scenario.p_infinity
            print(f"bubble {i}: pressure {p_b:.6g}"
                  + (" (at equilibrium)" if at_eq else
                     f" (equilibrium radius {r_eq:.6g})")
                  + f", Minnaert period {periods[-1]:.6g}")
        else:
            print(f"bubble {i}: pressure {p_b:.6g} (no far-field pressure; "
                  "no Minnaert estimate)")
    if periods:
        print(f"recommended output_dt: {min(periods) / 50:.6g} "
              f"(scenario has {scenario.output_dt:.6g})")
    return 0


def cmd_convergence(args) -> int:
    scenario = parse_scenario(args.scenario)
    levels = sorted(set(args.levels))
    if len(levels) == 1:
        print("warning: single level given; no convergence order can be estimated")
    if args.out:
        _make_out_dir(args.out)
    rows = []
    for level in levels:
        # a cadence longer than any run samples the residual at row 0 alone,
        # the start state, whose added mass the run hands to the start hook
        s = dataclasses.replace(scenario, mesh_level=level, residual_cadence=MAX_OUTPUT_ROWS,
                                wall_level=None if scenario.wall_level is None
                                else max(scenario.wall_level, level))
        diag = []
        traj = dyn.integrate(s, start=lambda A: diag.append(np.diag(A.matrix).copy()))
        rows.append({"level": level,
                     "added_mass_diag": diag[0],
                     "endpoint": pack_params(traj.states[-1].config),
                     "t_final": traj.stats["t_final"],
                     "residual": traj.boundary_residuals[0]})
    finest = rows[-1]
    print(f"{'level':>5} {'A_diag[0]':>14} {'A_diag[-1]':>14} "
          f"{'endpoint delta':>15} {'residual':>12} {'order':>7}")
    deltas = []
    for row in rows:
        delta = (np.nan if row is finest or row["t_final"] != finest["t_final"]
                 else float(np.max(np.abs(row["endpoint"] - finest["endpoint"]))
                            / max(1.0, np.max(np.abs(finest["endpoint"])))))
        deltas.append(delta)
        order = ""
        if len(deltas) >= 2 and np.isfinite(deltas[-2]) and np.isfinite(delta) \
                and delta > 0:
            order = f"{np.log2(deltas[-2] / delta):7.2f}"
        print(f"{row['level']:>5} {row['added_mass_diag'][0]:>14.8f} "
              f"{row['added_mass_diag'][-1]:>14.8f} "
              f"{'' if np.isnan(delta) else f'{delta:15.3e}':>15} "
              f"{row['residual']:>12.3e} {order:>7}")
    if args.out:
        path = os.path.join(args.out, "convergence.json")
        with open(path, "w") as fh:
            json.dump([{**r, "added_mass_diag": list(map(float, r["added_mass_diag"])),
                        "endpoint": list(map(float, r["endpoint"]))}
                       for r in rows], fh, indent=2)
        print(f"wrote {path}")
    return 0


def _parse_levels(text):
    try:
        levels = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        levels = []
    if not levels or not all(0 <= lv <= MAX_MESH_LEVEL for lv in levels):
        raise argparse.ArgumentTypeError(
            f"bad levels list {text!r}; expected levels in [0, {MAX_MESH_LEVEL}], "
            "e.g. 1,2,3")
    return levels


def build_parser():
    ap = argparse.ArgumentParser(prog="bubbledyn",
                                 description="Reduced-order bubble dynamics "
                                             "(potential-flow BEM + shape ODEs)")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate a scenario, write CSV + JSON")
    run.add_argument("--scenario", required=True)
    run.add_argument("--out", default=".")
    run.add_argument("--residual-cadence", type=int, default=None,
                     help="sample the boundary residual every N output rows")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="validate and preflight a scenario")
    check.add_argument("--scenario", required=True)
    check.set_defaults(func=cmd_check)

    conv = sub.add_parser("convergence", help="mesh refinement study")
    conv.add_argument("--scenario", required=True)
    conv.add_argument("--levels", type=_parse_levels, required=True)
    conv.add_argument("--out", default=None)
    conv.set_defaults(func=cmd_convergence)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _lapack.single_thread():
            return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except BubbleDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
