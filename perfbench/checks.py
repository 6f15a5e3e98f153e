"""Correctness gate: checks a finished `bubbledyn run` from its written
outputs (trajectory.csv, diagnostics.json) against the oracles.

Every workload: termination `completed`, one CSV row per output time, and
total-energy drift under the workload's ceiling.  sphere_l2 adds the
closed-form single-bubble model (acceptance criterion 3, < 1%);
cavity_pair_l1 adds the volume invariant r1^3 + r2^3 (criterion 7,
< 1e-10 relative).
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from bubbledyn.gas import BubbleGasState, GasLaw, equilibrium_radius
from bubbledyn.reference import SingleBubbleState, integrate_single

TRAJ_DEV_LIMIT = 0.01
VOLUME_DRIFT_LIMIT = 1e-10


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) if r[key] else np.nan for r in rows])
            for key in rows[0]}


def _traj_dev_rel(doc, cols):
    """Max over output rows of |r - r_ref| / r_ref and max|c - c_ref| / r_eq
    against `reference.integrate_single`, as in acceptance criterion 3."""
    b = doc["bubbles"][0]
    gas = BubbleGasState(mass=b["mass"], law=GasLaw(K=b["gas"]["K"], gamma=b["gas"]["gamma"]))
    p_inf, rho = doc["liquid"]["p_infinity"], doc["liquid"]["density"]
    state0 = SingleBubbleState(c=np.array(b["shape"]["center"]),
                               c_dot=np.array(b["velocity"]["center"]),
                               r=b["shape"]["radius"], r_dot=b["velocity"]["radius"])
    ref = integrate_single(state0, gas, p_inf, rho, doc["surface_tension"],
                           t_end=doc["time"]["t_end"], rtol=1e-11, atol=1e-13)
    y = ref.sol(cols["t"])
    err_r = np.abs(cols["b0_r"] - y[3]) / y[3]
    c = np.stack([cols["b0_cx"], cols["b0_cy"], cols["b0_cz"]])
    err_c = np.abs(c - y[:3]).max(axis=0) / equilibrium_radius(gas, p_inf)
    return float(max(err_r.max(), err_c.max()))


def check_run(name, doc, out_dir, energy_ceiling):
    """Accuracy metrics and gate results of one run.

    Returns (metrics, gates): metrics maps name -> value; gates is a list
    of (check, value, limit, ok)."""
    with open(os.path.join(out_dir, "diagnostics.json")) as fh:
        diag = json.load(fh)
    cols = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    t_end, output_dt = doc["time"]["t_end"], doc["time"]["output_dt"]
    want_rows = round(t_end / output_dt) + 1
    E = cols["energy_total"]
    metrics = {"energy_drift_rel": float(np.max(np.abs(E - E[0])) / abs(E[0]))}
    gates = [("termination", diag["termination"], "completed",
              diag["termination"] == "completed"),
             ("csv_rows", len(E), want_rows, len(E) == want_rows),
             ("energy_drift_rel", metrics["energy_drift_rel"], energy_ceiling,
              metrics["energy_drift_rel"] < energy_ceiling)]
    if name == "sphere_l2":
        metrics["traj_dev_rel"] = _traj_dev_rel(doc, cols)
        gates.append(("traj_dev_rel", metrics["traj_dev_rel"], TRAJ_DEV_LIMIT,
                      metrics["traj_dev_rel"] < TRAJ_DEV_LIMIT))
    if name == "cavity_pair_l1":
        v = cols["b0_r"] ** 3 + cols["b1_r"] ** 3
        metrics["volume_drift_rel"] = float(np.max(np.abs(v - v[0])) / v[0])
        gates.append(("volume_drift_rel", metrics["volume_drift_rel"], VOLUME_DRIFT_LIMIT,
                      metrics["volume_drift_rel"] < VOLUME_DRIFT_LIMIT))
    return metrics, gates
