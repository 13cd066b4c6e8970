"""In-memory span tracing of edgespec's layers, installed from outside.

Nothing under ``src/`` is changed.  ``Tracer.install`` replaces each public
function of a layer module with a recording wrapper in every edgespec
namespace that binds it, i.e. where the importing module looks the name up
(module-level ``from .x import f`` as well as lazy imports inside functions,
which read the defining module's attribute).  ``Tracer.remove`` restores the
originals, so untraced passes run the unmodified program.

A span is recorded only when a call crosses a layer boundary: a call made
while the innermost open span belongs to the same layer runs unrecorded, so
``bessel_i -> log_bessel_ik`` is one bessel span and layer busy times are
never double counted.  Each span carries its name, layer, start, end, parent
span id, workload and run id, plus call-shape counts taken at the wrapper.
"""

import functools
import inspect
import json
import statistics
import time

import numpy as np

LAYERS = ("bessel", "kernels", "grids", "model", "parametrix", "clifford",
          "scales")
SUITES = ("bessel", "schur", "model", "parametrix", "gb", "scales", "witt")

# Branch regions of log_bessel_ik, fixed here so that a change which moves a
# threshold in the program shows up as different busy times per region
# rather than as different region definitions.
LARGE_NU = 250.0
SMALL_X = 2.0
MID_X = 10.0
REGIONS = ("small_x", "mid_x", "large_x", "large_nu")

# _diagonal_cell_integrals evaluates each node against 16 Gauss points per
# cell; a kernel-matrix call with len(ys) == 16 * len(xs) is that pass.
DIAG_SUB_NODES = 16


def _bessel_attrs(nu, x, *_args, **_kwargs):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    counts = dict.fromkeys(REGIONS, 0)
    if float(nu) >= LARGE_NU:
        counts["large_nu"] = int(xs.size)
    else:
        counts["small_x"] = int(np.count_nonzero(xs <= SMALL_X))
        counts["mid_x"] = int(np.count_nonzero((xs > SMALL_X) & (xs <= MID_X)))
        counts["large_x"] = int(np.count_nonzero(xs > MID_X))
    return {"args": int(xs.size), "regions": counts}


def _matrix_attrs(_kernel, _action, xs, ys, *_args, **_kwargs):
    nx, ny = int(np.size(xs)), int(np.size(ys))
    return {"entries": nx * ny, "cols": ny,
            "diag": nx > 1 and ny == DIAG_SUB_NODES * nx}


def _sweep_attrs(spectrum, betas, *_args, **_kwargs):
    return {"cells": len(spectrum.nu_values()) * len(betas)}


def _modes_attrs(u, nus, *_args, **_kwargs):
    return {"modes": len(nus) * u.n_y}


def _attrs_for(layer, name, fn):
    if layer == "bessel":
        params = list(inspect.signature(fn).parameters)[:2]
        return _bessel_attrs if params == ["nu", "x"] else None
    if name == "kernels.weighted_kernel_matrix":
        return _matrix_attrs
    if name == "model.uniform_bound_sweep":
        return _sweep_attrs
    if name in ("parametrix.mapping_bounds", "parametrix.parametrix_apply"):
        return _modes_attrs
    return None


class Tracer:
    """Records spans of the edgespec layers for one benchmark run."""

    def __init__(self, es, workload, run_id):
        self.es = es
        self.workload = workload
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._origin = time.perf_counter()

    def _wrap(self, fn, name, layer, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1]["layer"] == layer:
                return fn(*args, **kwargs)
            span = {"id": tracer._next_id, "name": name, "layer": layer,
                    "parent": stack[-1]["id"] if stack else None,
                    "workload": tracer.workload, "run": tracer.run_id}
            tracer._next_id += 1
            if attrs is not None:
                span.update(attrs(*args, **kwargs))
            stack.append(span)
            span["start"] = time.perf_counter() - tracer._origin
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - tracer._origin
                stack.pop()
                tracer.spans.append(span)

        return wrapper

    def _patch(self, namespace, attr, replacement):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def install(self):
        es = self.es
        modules = [getattr(es, m) for m in LAYERS] + [es.cli]
        for layer in LAYERS:
            mod = getattr(es, layer)
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(fn, name, layer,
                                     _attrs_for(layer, name, fn))
                for ns in modules:
                    if getattr(ns, attr, None) is fn:
                        self._patch(ns, attr, wrapper)
        # scipy's LU as parametrix looks it up; its own layer, so the calls
        # are recorded inside parametrix spans
        for attr in ("lu_factor", "lu_solve"):
            fn = getattr(es.parametrix, attr)
            self._patch(es.parametrix, attr,
                        self._wrap(fn, f"parametrix.{attr}", "lapack", None))
        # cli: run_suite looks its suites up in _SUITE_FUNCS; emit is called
        # by the benchmark through the module attribute
        suites = es.cli._SUITE_FUNCS
        for suite in SUITES:
            fn = suites[suite]
            self._patches.append((suites, suite, fn))
            suites[suite] = self._wrap(fn, f"cli.suite.{suite}", "cli", None)
        self._patch(es.cli, "emit",
                    self._wrap(es.cli.emit, "cli.emit", "cli", None))

    def remove(self):
        for ns, attr, original in reversed(self._patches):
            if isinstance(ns, dict):
                ns[attr] = original
            else:
                setattr(ns, attr, original)
        self._patches.clear()

    def mark(self):
        """Index of the next span; spans[mark():] belong to the next pass."""
        return len(self.spans)

    def write(self, path, env):
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _self_times(spans):
    """Span duration minus the time covered by its direct child spans."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
            for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (the spans it recorded)."""
    by_id = {s["id"]: s for s in spans}
    self_t = _self_times(spans)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def under(s, name):
        while s["parent"] is not None:
            s = by_id.get(s["parent"])
            if s is None:
                return False
            if s["name"] == name:
                return True
        return False

    m = {}
    bessel = [s for s in spans if s["layer"] == "bessel"]
    m["bessel.calls"] = len(bessel)
    m["bessel.args"] = sum(s.get("args", 0) for s in bessel)
    m["bessel.busy_s"] = sum(dur(s) for s in bessel)
    for region in REGIONS:
        m[f"bessel.{region}.args"] = sum(s["regions"][region]
                                         for s in bessel if "regions" in s)
        # calls whose arguments all lie in this one region
        m[f"bessel.{region}.busy_s"] = sum(
            dur(s) for s in bessel
            if "regions" in s and s["args"] and s["regions"][region] == s["args"])

    mats = named("kernels.weighted_kernel_matrix")
    diag = [s for s in mats if s["diag"]]
    m["kernels.matrix.calls"] = len(mats)
    m["kernels.matrix.entries"] = sum(s["entries"] for s in mats)
    m["kernels.matrix.busy_s"] = sum(dur(s) for s in mats)
    m["kernels.matrix.self_s"] = sum(self_t[s["id"]] for s in mats)
    m["kernels.diag.entries"] = sum(s["entries"] for s in diag)
    m["kernels.diag.busy_s"] = sum(dur(s) for s in diag)
    # one entry per column is kept: node i against its own cell's points
    kept = sum(s["cols"] for s in diag)
    m["kernels.diag.useful_ratio"] = (kept / m["kernels.diag.entries"]
                                      if diag else 0.0)

    nys = named("grids.nystrom_assemble")
    m["kernels.bessel_calls_per_assembly"] = (
        sum(1 for s in bessel if under(s, "grids.nystrom_assemble")) / len(nys)
        if nys else 0.0)
    m["grids.nystrom.calls"] = len(nys)
    m["grids.nystrom.busy_s"] = sum(dur(s) for s in nys)
    m["grids.nystrom.self_s"] = sum(self_t[s["id"]] for s in nys)
    for key, name in (("operator_norm", "grids.operator_norm"),
                      ("fd_assemble", "grids.fd_assemble_model")):
        spans_k = named(name)
        m[f"grids.{key}.calls"] = len(spans_k)
        m[f"grids.{key}.busy_s"] = sum(dur(s) for s in spans_k)

    m["model.solve_scalar.busy_s"] = sum(dur(s) for s in
                                         named("model.solve_scalar"))
    m["model.sweep.cells"] = sum(s["cells"] for s in
                                 named("model.uniform_bound_sweep"))

    mb = named("parametrix.mapping_bounds")
    m["parametrix.mapping_bounds.calls"] = len(mb)
    m["parametrix.mapping_bounds.busy_s"] = sum(dur(s) for s in mb)
    m["parametrix.modes"] = sum(s.get("modes", 0) for s in spans)
    lu = named("parametrix.lu_factor")
    m["parametrix.lu_factor.calls"] = len(lu)
    m["parametrix.lu_factor.busy_s"] = sum(dur(s) for s in lu)
    m["parametrix.lu_solve.calls"] = len(named("parametrix.lu_solve"))

    m["clifford.commutator_report.busy_s"] = sum(
        dur(s) for s in named("clifford.commutator_report"))
    m["scales.busy_s"] = sum(dur(s) for s in spans if s["layer"] == "scales")
    for suite in SUITES:
        m[f"cli.suite.{suite}.busy_s"] = sum(dur(s) for s in
                                             named(f"cli.suite.{suite}"))
    m["cli.emit.busy_s"] = sum(dur(s) for s in named("cli.emit"))
    return m


def median_metrics(per_pass):
    """Median over passes of each metric (counts repeat exactly)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
