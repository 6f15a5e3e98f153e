"""Span tracing of bubbledyn from outside its source.

`install` rebinds module attributes: every name under which a bubbledyn
module holds one of the traced functions (``from .shapes import
check_admissible`` in dynamics and cli, the defining module itself for
calls made through a module global or a local import) gets its own
wrapper, tagged with that module as the call site.  Two callables are
wrapped differently: the RHS that `dynamics.integrate` hands to
`solve_ivp`, and the LU routines `potential` reaches through its
``scipy.linalg`` alias.

Each wrapper records a span with name, site, parent, start and end;
`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (defining module, attribute, span name)
TARGETS = (
    ("bubbledyn.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("bubbledyn.cli", "_gram_diagnostics", "cli.gram_diagnostics"),
    ("bubbledyn.cli", "write_trajectory_csv", "cli.write"),
    ("bubbledyn.cli", "write_diagnostics_json", "cli.write"),
    ("bubbledyn.dynamics", "integrate", "dynamics.integrate"),
    ("bubbledyn.dynamics", "_ahat_jacobian", "dynamics.fd_jacobian"),
    ("bubbledyn.dynamics", "energies", "dynamics.energies"),
    ("bubbledyn.dynamics", "boundary_residual", "dynamics.boundary_residual"),
    ("bubbledyn.potential", "added_mass", "potential.added_mass"),
    ("bubbledyn.potential", "added_mass_jacobian", "potential.added_mass_jacobian"),
    ("bubbledyn.potential", "configuration_meshes", "potential.configuration_meshes"),
    ("bubbledyn.potential", "solve_neumann", "potential.solve_neumann"),
    ("bubbledyn.potential", "surface_gradient", "potential.surface_gradient"),
    ("bubbledyn.potential", "boundary_potential_at", "potential.boundary_potential_at"),
    ("bubbledyn.shapes", "check_admissible", "shapes.check_admissible"),
    ("bubbledyn.shapes", "surface_mesh", "shapes.surface_mesh"),
    ("bubbledyn.shapes", "wall_mesh", "shapes.wall_mesh"),
    ("bubbledyn.shapes", "config_from_params", "shapes.config_from_params"),
    ("bubbledyn.shapes", "volume_gradient", "shapes.volume_gradient"),
    ("bubbledyn.shapes", "volume_hessian", "shapes.volume_hessian"),
    ("bubbledyn.gas", "potential_energy", "gas.potential_energy"),
)


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()

    def open(self, name, site, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = {"id": next(self._ids), "name": name, "site": site,
                "parent": stack[-1]["id"] if stack else None,
                "main": threading.get_ident() == self._main,
                "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name, site, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, site, **(attrs(args) if attrs else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def wrap_solve_ivp(self, solve_ivp):
        """Time solve_ivp and every call of the RHS it is given, flagging
        returns that contain NaN (the integrator's poisoned steps)."""
        def traced_solve_ivp(fun, *args, **kwargs):
            def rhs(t, y):
                span = self.open("dynamics.rhs", "dynamics", poisoned=False)
                try:
                    out = fun(t, y)
                    span["poisoned"] = bool(np.isnan(out).any())
                    return out
                finally:
                    self.close(span)
            span = self.open("dynamics.solve_ivp", "dynamics")
            try:
                return solve_ivp(rhs, *args, **kwargs)
            finally:
                self.close(span)
        return traced_solve_ivp


class _LinalgProxy:
    """Stands in for `potential`'s ``scipy.linalg`` alias with traced
    lu_factor / lu_solve; every other attribute is the real one."""

    def __init__(self, real, tracer):
        self._real = real
        self.lu_factor = tracer.wrap(real.lu_factor, "potential.lu_factor", "potential",
                                     attrs=lambda args: {"n": int(args[0].shape[0])})
        self.lu_solve = tracer.wrap(real.lu_solve, "potential.lu_solve", "potential")

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer):
    """Rebind every bubbledyn-module name that holds a traced function."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "bubbledyn" or n.startswith("bubbledyn.")]
    for modname, attr, name in TARGETS:
        orig = getattr(sys.modules[modname], attr)
        for mod in modules:
            site = mod.__name__.rpartition(".")[2]
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, tracer.wrap(orig, name, site))
    dyn = sys.modules["bubbledyn.dynamics"]
    dyn.solve_ivp = tracer.wrap_solve_ivp(dyn.solve_ivp)
    pot = sys.modules["bubbledyn.potential"]
    pot.sla = _LinalgProxy(pot.sla, tracer)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Spans:
    def __init__(self, spans):
        self.byid = {s["id"]: s for s in spans}
        self.byname = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.byname[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def under(self, span, name):
        pid = span["parent"]
        while pid is not None:
            parent = self.byid[pid]
            if parent["name"] == name:
                return True
            pid = parent["parent"]
        return False

    def select(self, name, within=None):
        """Outermost spans of ``name``, optionally only those under ``within``."""
        return [s for s in self.byname[name] if not self.under(s, name)
                and (within is None or self.under(s, within))]

    def calls(self, name, within=None):
        return len(self.select(name, within))

    def seconds(self, name, within=None):
        return sum(s["end"] - s["start"] for s in self.select(name, within))

    def self_seconds(self, name):
        return sum(s["end"] - s["start"]
                   - _covered([(c["start"], c["end"]) for c in self.children[s["id"]]])
                   for s in self.select(name))


def layer_metrics(spans, run_s, n_steps, one_sided_fd):
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    t = _Spans(spans)
    rhs = t.select("dynamics.rhs")
    n_rhs = max(len(rhs), 1)
    rhs_ms = np.array([1e3 * (s["end"] - s["start"]) for s in rhs] or [np.nan])
    rhs_s = t.seconds("dynamics.rhs")
    lu = t.select("potential.lu_factor")
    lu_s = t.seconds("potential.lu_factor")
    rhs_lu = [s for s in lu if t.under(s, "potential.added_mass")
              and t.under(s, "dynamics.rhs")]
    roots = [s for s in spans if s["parent"] is None and s["main"]]
    m = {
        "dynamics.rhs.calls": (len(rhs), "count"),
        "dynamics.rhs.ms_p50": (float(np.percentile(rhs_ms, 50)), "ms"),
        "dynamics.rhs.ms_p90": (float(np.percentile(rhs_ms, 90)), "ms"),
        "dynamics.rhs.poisoned": (sum(s["poisoned"] for s in rhs), "count"),
        "dynamics.steps": (int(n_steps), "count"),
        "dynamics.stepper.s": (t.seconds("dynamics.solve_ivp") - rhs_s, "s"),
        "dynamics.sampling.s": (t.seconds("dynamics.integrate")
                                - t.seconds("dynamics.solve_ivp"), "s"),
        "dynamics.fd_jacobian.s": (t.seconds("dynamics.fd_jacobian"), "s"),
        "dynamics.fd_jacobian.share": (
            t.seconds("dynamics.fd_jacobian", within="dynamics.rhs") / max(rhs_s, 1e-300),
            "ratio"),
        "potential.added_mass.per_rhs": (
            t.calls("potential.added_mass", within="dynamics.rhs") / n_rhs, "count"),
        "potential.added_mass.self_s": (t.self_seconds("potential.added_mass"), "s"),
        "potential.lu_factor.gflops_computed": (
            sum(2.0 / 3.0 * s["n"] ** 3 for s in lu) / max(lu_s, 1e-300) / 1e9, "GFLOP/s"),
        "potential.panel_pairs.per_rhs": (sum(s["n"] ** 2 for s in rhs_lu) / n_rhs, "count"),
        "potential.one_sided_fd": (int(one_sided_fd), "count"),
        "trace.coverage": (sum(s["end"] - s["start"] for s in roots) / run_s, "ratio"),
    }
    for name in ("dynamics.energies", "dynamics.boundary_residual", "potential.added_mass",
                 "potential.lu_factor", "potential.lu_solve", "potential.solve_neumann",
                 "shapes.check_admissible", "shapes.surface_mesh", "gas.potential_energy"):
        m[f"{name}.calls"] = (t.calls(name), "count")
        m[f"{name}.s"] = (t.seconds(name), "s")
    for name in ("potential.configuration_meshes", "potential.surface_gradient",
                 "potential.boundary_potential_at", "scenario.parse_scenario", "cli.write"):
        m[f"{name}.s"] = (t.seconds(name), "s")
    # only the cavity's constrained path calls it: a count, not a time that
    # reads zero on the unbounded workloads
    m["shapes.volume_hessian.calls"] = (t.calls("shapes.volume_hessian"), "count")
    return m


def calls_by_site(spans):
    """Call counts per (span name, site), as 'name@site' -> count."""
    return dict(Counter(f"{s['name']}@{s['site']}" for s in spans))
