"""Per-layer tracing of ndspin from outside the package.

A :class:`Tracer` replaces the public functions of the nine ndspin modules
(and the two coil-assembly methods the trajectory layer calls) with
wrappers, wherever the package binds them, and restores them on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

* A call that crosses into a layer from another layer (or from the
  benchmark) opens a span.  Spans are kept in memory while ``keep_spans``
  is set (round 0 of a traced run) and written out by :meth:`write_spans`.
* A layer's self time is the duration of its spans minus the time covered
  by their child spans, accumulated as the spans close.
* Calls inside one layer open no span; they are only counted, and timed
  where a metric needs their time.  Hot leaf calls (``delta_phi_rate``,
  ``complete_elliptic_KE``) are counted only; ``tables.fmt``, called once
  per CSV cell and needed by no metric, is left alone.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "config", "tables", "core", "coherent", "decoupling",
          "protocol", "coils", "trajectory")

#: Hot leaf functions no metric needs (one call per CSV cell): not wrapped.
_UNWRAPPED = {("tables", "fmt")}

#: Leaf functions that are counted, never spanned or timed.
_COUNT_ONLY = {
    ("protocol", "delta_phi_rate"): "protocol.rate_evals",
    ("coils", "complete_elliptic_KE"): "coils.ke_calls",
}

#: Calls counted (and timed, under "<key>_t") for the per-layer metrics.
_COUNTED = {
    ("protocol", "protocol_duration"): "protocol.cells",
    ("protocol", "delta_phi_bd"): "protocol.sweep_calls",
    ("coils", "assembly_field"): "coils.field_calls",
    ("coils", "loop_field"): "coils.field_calls",
    ("coils", "field_jacobian"): "coils.jacobian_fd_calls",
    ("coils", "CoilAssembly.jacobian_at"): "coils.jacobian_calls",
    ("trajectory", "integrate"): "trajectory.integrate_calls",
    ("decoupling", "build_dd_trace"): "decoupling.trace_builds",
    ("core", "derive_oscillator"): "core.derive_calls",
    ("config", "parse_config"): "config.parse_calls",
}

#: Per-layer metric names with their units, in report order.
METRICS = (
    ("protocol.cells", "count"), ("protocol.sweep_calls", "count"),
    ("protocol.rate_evals", "count"), ("protocol.sweep_s", "s"),
    ("protocol.cell_us", "us"), ("protocol.self_s", "s"),
    ("coils.field_calls", "count"), ("coils.jacobian_calls", "count"),
    ("coils.jacobian_fd_calls", "count"), ("coils.ke_calls", "count"),
    ("coils.jacobian_series_us", "us"), ("coils.jacobian_fd_us", "us"),
    ("coils.self_s", "s"),
    ("trajectory.integrate_calls", "count"),
    ("trajectory.solver_restarts", "count"), ("trajectory.rhs_evals", "count"),
    ("trajectory.rhs_per_segment", "count"), ("trajectory.self_s", "s"),
    ("decoupling.trace_builds", "count"), ("decoupling.segments", "count"),
    ("decoupling.self_s", "s"),
    ("coherent.calls", "count"), ("coherent.self_s", "s"),
    ("core.derive_calls", "count"), ("core.self_s", "s"),
    ("tables.rows", "count"), ("tables.bytes", "B"), ("tables.write_s", "s"),
    ("config.parse_calls", "count"), ("config.parse_s", "s"),
    ("cli.verb_s", "s"), ("cli.self_s", "s"),
)


class Tracer:
    """Counters, timers and spans for one traced process."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.stack: list[list] = []  # [layer, child time, span id]
        self.spans: list[tuple] = []
        self.keep_spans = False
        self.op = -1
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, layer: str, name: str, fn, count_key=None,
                 timed_key=None, boundary_timed_key=None, post=None):
        tr = self
        counts = self.counts
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_key is not None:
                counts[count_key] += 1
            boundary = not stack or stack[-1][0] != layer
            t0 = perf()
            if boundary:
                tr._next_id += 1
                frame = [layer, 0.0, tr._next_id]
                parent = stack[-1][2] if stack else 0
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    t1 = perf()
                    dur = t1 - t0
                    counts[layer + ".self_s"] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    if tr.keep_spans:
                        tr.spans.append((frame[2], parent, tr.op, name, t0, t1))
                if boundary_timed_key is not None:
                    counts[boundary_timed_key] += dur
            else:
                result = fn(*args, **kwargs)
                t1 = perf()
            if timed_key is not None:
                counts[timed_key] += t1 - t0
            if post is not None:
                post(counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, layer: str, name: str, fn):
        if (layer, name) in _COUNT_ONLY:
            return self._counted(_COUNT_ONLY[(layer, name)], fn)
        key = _COUNTED.get((layer, name))
        timed = key + "_t" if key else None
        post = None
        boundary_timed = None
        if layer == "coherent":
            key, timed = "coherent.calls", None
        elif layer == "tables":
            timed, post = "tables.write_s", _table_post
        elif layer == "config":
            timed, boundary_timed = None, "config.parse_s"
        elif layer == "cli" and name.startswith("cmd_"):
            timed = "cli.verb_s"
        elif (layer, name) == ("decoupling", "build_dd_trace"):
            post = _dd_post
        elif (layer, name) == ("coils", "CoilAssembly.jacobian_at"):
            return self._jacobian_at(fn)
        return self._spanned(layer, name, fn, key, timed, boundary_timed, post)

    def _jacobian_at(self, fn):
        """jacobian_at, with its time split by the branch it took: a call
        that reached ``field_jacobian`` is the finite-difference branch."""
        counts = self.counts
        inner = self._spanned("coils", "CoilAssembly.jacobian_at", fn,
                              "coils.jacobian_calls")
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fd_before = counts["coils.jacobian_fd_calls"]
            t0 = perf()
            result = inner(*args, **kwargs)
            dt = perf() - t0
            if counts["coils.jacobian_fd_calls"] == fd_before:
                counts["coils.jacobian_series_calls"] += 1
                counts["coils.jacobian_series_t"] += dt
            return result

        return wrapper

    def _solver(self, fn):
        """scipy's solve_ivp as bound in ndspin.trajectory: one call is one
        restart segment; its ``nfev`` is the segment's RHS evaluations."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counts["trajectory.solver_restarts"] += 1
            counts["trajectory.rhs_evals"] += sol.nfev
            return sol

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "Tracer":
        modules = {name: sys.modules[f"ndspin.{name}"] for name in LAYERS}
        package_mods = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == "ndspin" or n.startswith("ndspin."))]
        for layer, mod in modules.items():
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (layer, name) in _UNWRAPPED):
                    continue
                wrapper = self._wrap(layer, name, obj)
                for pm in package_mods:
                    for attr, val in list(vars(pm).items()):
                        if val is obj:
                            self._patch_attr(pm, attr, wrapper)
        coils = modules["coils"]
        for meth in ("field_at", "jacobian_at"):
            fn = coils.CoilAssembly.__dict__[meth]
            self._patch_attr(coils.CoilAssembly, meth,
                             self._wrap("coils", f"CoilAssembly.{meth}", fn))
        traj = modules["trajectory"]
        self._patch_attr(traj, "solve_ivp", self._solver(traj.solve_ivp))
        commands = modules["cli"]._COMMANDS
        for verb, fn in list(commands.items()):
            self._patches.append((commands, verb, fn, True))
            commands[verb] = self._wrap("cli", fn.__name__, fn)
        return self

    def _patch_attr(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        return dict(self.counts)

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span_id", "parent_id", "op", "name", "start_s", "end_s"))
            for sid, parent, op, name, t0, t1 in self.spans:
                w.writerow((sid, parent, op, name, repr(t0), repr(t1)))


def _table_post(counts, args, kwargs, result) -> None:
    """Bytes of every table file; rows of CSV tables (the CLI passes lists)."""
    path = kwargs.get("path", args[0] if args else None)
    counts["tables.bytes"] += os.path.getsize(path)
    rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
    if isinstance(rows, (list, tuple)):
        counts["tables.rows"] += len(rows)


def _dd_post(counts, args, kwargs, result) -> None:
    counts["decoupling.segments"] += len(result.lambdas)


def per_layer(delta: dict) -> dict:
    """Per-layer metric values from counter and timer increments."""
    def g(key):
        return float(delta.get(key, 0.0))

    def mean_us(total_key, count_key):
        n = g(count_key)
        return 1e6 * g(total_key) / n if n else 0.0

    restarts = g("trajectory.solver_restarts")
    values = {
        "protocol.sweep_s": g("protocol.sweep_calls_t"),
        "protocol.cell_us": mean_us("protocol.cells_t", "protocol.cells"),
        "coils.jacobian_series_us": mean_us("coils.jacobian_series_t",
                                            "coils.jacobian_series_calls"),
        "coils.jacobian_fd_us": mean_us("coils.jacobian_fd_calls_t",
                                        "coils.jacobian_fd_calls"),
        "trajectory.rhs_per_segment": g("trajectory.rhs_evals") / restarts
        if restarts else 0.0,
    }
    return {name: values.get(name, g(name)) for name, _unit in METRICS}
