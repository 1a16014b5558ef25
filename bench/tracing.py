"""In-memory span tracer that wraps the public functions of ``wtd``.

Every public function is wrapped at its defining module (``wtd.decomp.ql``)
and at each name another module imported it under (``wtd.secrecy.
gsvd_triangular``, ``wtd.scheme.qr``, ``wtd.ql``), so calls between modules
and inside one module are both recorded.  A span is ``(name, layer, start,
end, parent)`` plus a few attributes read from the arguments; spans stay in
memory and are written out once, after the traced region.  Only the thread
that installed the tracer records spans: the simulators' worker threads
call no public function, and a span from another thread would overlap its
parent and break the self-time sum.
"""

import functools
import inspect
import json
import os
import threading
import time
from contextlib import contextmanager

LAYERS = ("bench", "cli", "decomp", "secrecy", "scheme.plan", "scheme.sim")

_SIM_KINDS = {
    "simulate_sic": "sic",
    "simulate_leakage": "leakage",
    "simulate_dpc": "dpc",
    "simulate_broadcast": "broadcast",
}


def layer_of(module_name, func_name):
    short = module_name.rsplit(".", 1)[-1]
    if short == "scheme":
        return "scheme.sim" if func_name.startswith("simulate_") else "scheme.plan"
    return short


def _columns(value):
    shape = getattr(value, "shape", ())
    return int(shape[1]) if len(shape) == 2 else None


def _sim_attrs(name, bound):
    a = bound.arguments
    kind = _SIM_KINDS[name]
    if kind == "sic" and not a.get("genie", True):
        kind = "sic_nogenie"
    if kind == "broadcast":
        plan = a["plan"]
        rows = (a["h_b"].shape[0] * (plan.lb > 0) + a["h_c"].shape[0] * (plan.lc > 0))
        h = a["h_b"]
    else:
        h = a["h_e"] if kind == "leakage" else a["h_b"]
        rows = h.shape[0]
    return {
        "kind": kind,
        "samples": int(a["samples"]),
        "threads": os.environ.get("WTD_THREADS", ""),
        # Real normal draws per sample: two per complex symbol or noise entry,
        # one symbol per transmit dimension and one noise entry per receive
        # antenna of every receiver the simulator drives.
        "normals": 2 * (h.shape[1] + rows),
        "key": (kind, int(a["samples"]), int(a["seed"]), h.shape),
    }


class Tracer:
    """Collects spans for the calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._owner = None
        self._restore = []

    def _record(self, name, layer, attrs_fn, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            self.spans[index] = (name, layer, start, end, parent, attrs)

    @contextmanager
    def span(self, name, layer="bench"):
        """Span around a block of benchmark code."""
        if threading.get_ident() != self._owner:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, layer, start, end, parent, None)

    def _wrap(self, fn, layer):
        name = fn.__name__
        attrs_fn = None
        if name in _SIM_KINDS:
            signature = inspect.signature(fn)

            def attrs_fn(args, kwargs, _result):
                return _sim_attrs(name, signature.bind(*args, **kwargs))
        elif name == "power_constrained_capacity":
            def attrs_fn(args, _kwargs, result):
                return {"n": _columns(args[0]),
                        "evaluations": getattr(result, "evaluations", 0)}
        elif layer in ("decomp", "secrecy"):
            def attrs_fn(args, _kwargs, _result):
                return {"n": _columns(args[0])} if args else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            return self._record(name, layer, attrs_fn, fn, args, kwargs)

        return traced

    def install(self, package, modules):
        """Wrap the public functions of ``modules``, and every alias of them."""
        self._owner = threading.get_ident()
        wrapped = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer_of(module.__name__, name)))
        for module in (package, *modules):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapped[id(obj)][1])

    def uninstall(self):
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore = []
        self._owner = None

    def dump(self, path):
        """Write every span as ``[name, layer, start, end, parent]``."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], s[2] - origin, s[3] - origin, s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans):
    """Per-layer counts, self times and per-call costs from one trace.

    ``_wall_s`` is the traced wall time: the summed duration of the spans
    without a parent, which the layers' self times must add up to.
    """
    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s[1] == layer)
    for layer in ("cli", "decomp", "secrecy", "scheme.plan"):
        out[f"{layer}.calls"] = sum(1 for s in spans if s[1] == layer)
    out["_wall_s"] = sum(s[3] - s[2] for s in spans if s[4] < 0)

    def mean_us(name, n=None):
        durations = [s[3] - s[2] for s in spans
                     if s[0] == name and (n is None or (s[5] or {}).get("n") == n)]
        return 1e6 * sum(durations) / len(durations) if durations else None

    for fn in ("gsvd_triangular", "gsv_values", "qr", "ql", "gmd"):
        for n in (2, 4, 8):
            out[f"decomp.us_per_call.{fn}.n{n}"] = mean_us(fn, n)
    for fn in ("secrecy_capacity_cov", "channel_gsv", "broadcast_region"):
        for n in (2, 4, 8):
            out[f"secrecy.us_per_call.{fn}.n{n}"] = mean_us(fn, n)
    for fn in ("build_sic_plan", "build_wiretap_plan", "build_dpc_plan",
               "build_broadcast_plan"):
        out[f"scheme.plan.us_per_call.{fn}"] = mean_us(fn)

    capacity_calls = 0
    nested = 0
    for s in spans:
        if s[0] == "secrecy_capacity_cov":
            capacity_calls += 1
        elif s[1] == "decomp":
            parent = s[4]
            while parent >= 0 and spans[parent][0] != "secrecy_capacity_cov":
                parent = spans[parent][4]
            nested += parent >= 0
    out["decomp.calls_per_capacity"] = nested / capacity_calls if capacity_calls else None

    searches = [s for s in spans if s[0] == "power_constrained_capacity"]
    search_time = sum(s[3] - s[2] for s in searches)
    out["secrecy.power_search.evals_per_s"] = (
        sum(s[5]["evaluations"] for s in searches) / search_time if search_time else None)

    sims = [s for s in spans if s[1] == "scheme.sim"]
    single = [s for s in sims if s[5]["threads"] == "1"]
    for kind in ("sic", "sic_nogenie", "leakage", "dpc", "broadcast"):
        picked = [s for s in single if s[5]["kind"] == kind]
        samples = sum(s[5]["samples"] for s in picked)
        out[f"scheme.sim.ns_per_sample.{kind}"] = (
            1e9 * sum(s[3] - s[2] for s in picked) / samples if samples else None)
    single_time = sum(s[3] - s[2] for s in single)
    out["scheme.sim.normals_per_s"] = (
        sum(s[5]["samples"] * s[5]["normals"] for s in single) / single_time
        if single_time else None)

    by_key = {}
    for s in sims:
        by_key.setdefault(s[5]["key"], {}).setdefault(s[5]["threads"], []).append(s[3] - s[2])
    paired = [v for v in by_key.values() if "1" in v and "2" in v]
    one = sum(sum(v["1"]) / len(v["1"]) for v in paired)
    two = sum(sum(v["2"]) / len(v["2"]) for v in paired)
    out["scheme.sim.thread_speedup"] = one / two if two else None
    return out


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if ".us_per_call." in metric:
        return "us"
    if ".ns_per_sample." in metric:
        return "ns"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".calls") or metric.endswith("calls_per_capacity"):
        return "count"
    return "ratio"
