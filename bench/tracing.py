"""Span tracing installed from outside the program.

The tracer wraps every public function of the layers below at each module
attribute through which callers reach it (``gicbounds.genie.
optimize_constraint1`` and ``gicbounds.region.optimize_constraint1`` alike),
plus the cached ``RateRegion.boundary`` property, whose first access does
the envelope computation.  Spans (name, start, end, parent, op id) are kept
in compact arrays in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

from .metrics import median, percentile

LAYERS = ("cli", "config", "channel", "genie", "capacity", "multiuser", "region", "svg")


class Tracer:
    """Span recorder.  Records only while installed, so output checks made
    between operations leave no spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.extra: dict[int, object] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object, object]] | None = None

    def _wrap(self, qualname: str, fn):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        observe = OBSERVERS.get(qualname)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            end.append(math.nan)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                self.extra[idx] = observe(args, result)
            return result

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every public function of
        the layers, at every gicbounds module attribute that refers to it,
        and for RateRegion.boundary."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gicbounds.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    # A span around a generator function would close before
                    # the generator body runs; its callees get their own.
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        plan = []
        for modname, mod in list(sys.modules.items()):
            if modname != "gicbounds" and not modname.startswith("gicbounds."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    plan.append((mod, attr, obj, wrappers[obj]))
        rate_region = importlib.import_module("gicbounds.region").RateRegion
        prop = rate_region.__dict__["boundary"]
        traced = functools.cached_property(self._wrap("region.boundary", prop.func))
        traced.__set_name__(rate_region, "boundary")
        plan.append((rate_region, "boundary", prop, traced))
        return plan

    def install(self) -> None:
        """Put the wrappers in place (built on the first call)."""
        if self._installed is None:
            self._installed = self._plan()
        for owner, attr, _, wrapper in self._installed:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original, _ in self._installed or ():
            setattr(owner, attr, original)

    def spans(self):
        """(name, start, end, parent, op id) tuples in order of start."""
        return [
            (self.names[n], s, e, p, o)
            for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)
        ]

    def write(self, path) -> None:
        """Write every span to ``path`` as a compressed NumPy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover.  Spans must be listed in order of start; overlapping
    children are counted once and children are clipped to their parent."""
    covered = [0.0] * len(start)
    reach = [-math.inf] * len(start)
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [e - s - c for s, e, c in zip(start, end, covered)]


def active_lines(outer, tol: float = 1e-9) -> dict[str, tuple[int, int]]:
    """Per family ("mu", "eta"): (lines computed, lines touching the final
    boundary within ``tol``) for an outer RateRegion."""
    counts = {"mu": [0, 0], "eta": [0, 0]}
    boundary = outer.boundary
    for line in outer.lines:
        family = counts["mu" if line.kind.value == "MU" else "eta"]
        family[0] += 1
        if any(abs(line.value - p.r1 - line.weight * p.r2) <= tol for p in boundary):
            family[1] += 1
    return {k: (v[0], v[1]) for k, v in counts.items()}


# name -> f(args, result): a value kept per span in ``Tracer.extra``.
OBSERVERS = {
    "multiuser.find_rho": lambda args, result: args[0].m,
    "region.build_outer_region": lambda args, result: result,
}

# (name, unit, better) of every per-layer metric, in the order printed.
PER_LAYER = [
    ("genie.optimize_constraint1.calls", "count", "lower"),
    ("genie.optimize_constraint1.total_s", "s", "lower"),
    ("genie.optimize_constraint1.p50_s", "s", "lower"),
    ("genie.optimize_constraint1.p90_s", "s", "lower"),
    ("genie.optimize_constraint1.op_share", "ratio", "lower"),
    ("genie.eval_constraint2.calls", "count", "lower"),
    ("genie.eval_constraint2.total_s", "s", "lower"),
    ("genie.eval_constraint3.calls", "count", "lower"),
    ("genie.eval_constraint3.total_s", "s", "lower"),
    ("region.build_outer_region.self_s", "s", "lower"),
    ("region.build_inner_region.total_s", "s", "lower"),
    ("region.boundary.total_s", "s", "lower"),
    ("cli.boundary_csv.total_s", "s", "lower"),
    ("svg.region_svg.total_s", "s", "lower"),
    ("region.mu_active_ratio", "ratio", "higher"),
    ("region.eta_active_ratio", "ratio", "higher"),
    ("capacity.noisy_certificate.calls", "count", "lower"),
    ("capacity.noisy_certificate.total_s", "s", "lower"),
    ("capacity.classify.calls", "count", "lower"),
    ("capacity.classify.total_s", "s", "lower"),
    ("multiuser.find_rho.calls", "count", "lower"),
    ("multiuser.find_rho.total_s", "s", "lower"),
    ("multiuser.find_rho.m2.p50_s", "s", "lower"),
    ("multiuser.find_rho.m4.p50_s", "s", "lower"),
    ("multiuser.find_rho.m12.p50_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("config.load_channel_config.calls", "count", "lower"),
    ("config.load_channel_config.total_s", "s", "lower"),
    ("channel.tdm_fdm_sum_rate.calls", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_values(tracer: Tracer, op_time_s: float, extra: dict) -> dict[str, float]:
    """Per-layer metric values from the recorded spans.

    ``op_time_s`` is the summed duration of the traced operations; ``extra``
    holds the values measured outside the spans (the setup.* and trace.*
    metrics).  Layers a workload never reaches read 0.
    """
    durations: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    find_rho_by_m: dict[int, list[float]] = {}
    lines = {"mu": [0, 0], "eta": [0, 0]}
    for i, (nid, s, e) in enumerate(zip(tracer.name, tracer.start, tracer.end)):
        name = tracer.names[nid]
        durations.setdefault(name, []).append(e - s)
        self_sum[name] = self_sum.get(name, 0.0) + selfs[i]
        if name == "multiuser.find_rho":
            find_rho_by_m.setdefault(tracer.extra[i], []).append(e - s)
        elif name == "region.build_outer_region":
            for family, (made, active) in active_lines(tracer.extra[i]).items():
                lines[family][0] += made
                lines[family][1] += active

    def calls(name):
        return float(len(durations.get(name, ())))

    def total(name):
        return float(sum(durations.get(name, ())))

    opt = "genie.optimize_constraint1"
    values = {
        f"{opt}.calls": calls(opt),
        f"{opt}.total_s": total(opt),
        f"{opt}.p50_s": median(durations.get(opt, [])),
        f"{opt}.p90_s": percentile(durations.get(opt, []), 90.0),
        f"{opt}.op_share": total(opt) / op_time_s if op_time_s else 0.0,
        "region.build_outer_region.self_s": self_sum.get("region.build_outer_region", 0.0),
        "region.mu_active_ratio": lines["mu"][1] / lines["mu"][0] if lines["mu"][0] else 0.0,
        "region.eta_active_ratio": lines["eta"][1] / lines["eta"][0] if lines["eta"][0] else 0.0,
        "cli.main.self_s": self_sum.get("cli.main", 0.0),
        "channel.tdm_fdm_sum_rate.calls": calls("channel.tdm_fdm_sum_rate"),
    }
    for m in (2, 4, 12):
        values[f"multiuser.find_rho.m{m}.p50_s"] = median(find_rho_by_m.get(m, []))
    for name in (
        "genie.eval_constraint2",
        "genie.eval_constraint3",
        "capacity.noisy_certificate",
        "capacity.classify",
        "multiuser.find_rho",
        "config.load_channel_config",
    ):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.total_s"] = total(name)
    for name in (
        "region.build_inner_region",
        "region.boundary",
        "cli.boundary_csv",
        "svg.region_svg",
    ):
        values[f"{name}.total_s"] = total(name)
    values.update(extra)
    return {name: values[name] for name, _, _ in PER_LAYER}
