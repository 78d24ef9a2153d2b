"""Span tracing of shapegain's public functions, applied from outside.

The tracer replaces each traced function at every module binding it is
reachable through (``shapegain.sweep.train`` as well as
``shapegain.training.train`` and the package re-export), so calls made
inside the package are seen too; nothing under ``src/`` is modified.
``uninstall`` puts the original objects back, so untraced passes run the
unmodified program.

A span is ``(span_id, parent_id, name, start, end)``. Spans are kept in
memory and written out once, when the run ends. Self time is a span's
duration minus the durations of its direct children; the benchmark is
single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function); the span name is "<module>.<function>"
TARGETS = (
    ("constellation", "uniform_qam"),
    ("constellation", "moments"),
    ("constellation", "save_constellation"),
    ("constellation", "load_constellation"),
    ("channel", "awgn_sample"),
    ("channel", "optimal_launch_power"),
    ("demapper", "llr_exact"),
    ("demapper", "per_bit_gmi_mc"),
    ("demapper", "gmi_oracle_quadrature"),
    ("training", "train"),
    ("training", "forward_loss"),
    ("training", "backward"),
    ("training", "adam_step"),
    ("rate_adapt", "best_plan"),
    ("rate_adapt", "assemble_labels"),
    ("rate_adapt", "extract_data_bits"),
    ("rate_adapt", "save_plan"),
    ("rate_adapt", "load_plan"),
    ("lut", "export_lut"),
    ("lut", "parse_lut"),
    ("sweep", "load_run_config"),
    ("sweep", "run_sweep"),
    ("sweep", "evaluate_grid_point"),
    ("cli", "main"),
)

MODULES = ("constellation", "channel", "demapper", "training", "rate_adapt",
           "lut", "sweep", "cli")

# forward_loss/backward spans are split by the type of this argument
MODE_ARG = {"forward_loss": "demapper", "backward": "demapper"}
MODES = ("gaussian", "mlp")

# counts kept as the largest value of one call rather than a sum
MAX_COUNTS = {"temp_bytes"}


def span_names() -> list:
    names = []
    for module, fn in TARGETS:
        if fn in MODE_ARG:
            names.extend(f"{module}.{fn}.{mode}" for mode in MODES)
        else:
            names.append(f"{module}.{fn}")
    return names


def _mode(demapper) -> str:
    name = type(demapper).__name__.lower()
    return name[:-len("demapper")] if name.endswith("demapper") else name


# Computed kernel counts, from the call's arguments. Each returns a dict of
# count name -> value for one call.
def _count_forward_loss(a):
    return {"lik_evals": int(np.size(a["labels"])) * a["params"].raw.shape[0]}


def _count_llr_exact(a):
    s = int(np.size(a["y"]))
    m_points = a["c"].size
    # one float64 (S, M) array: the unit the per-point metric materialises
    return {"samples": s, "lik_evals": s * m_points, "temp_bytes": 8 * s * m_points}


def _count_awgn(a):
    return {"draws": int(np.size(a["x"]))}


def _count_gmi_mc(a):
    m_points = a["c"].size
    return {"samples": -(-int(a["n_samples"]) // m_points) * m_points}


def _count_framing(a):
    return {"bits": int(np.size(a["data_bits"]))}


# keyed by span name, so the Gaussian/MLP split applies to counts as well
COUNTERS = {
    "training.forward_loss.gaussian": _count_forward_loss,
    "demapper.llr_exact": _count_llr_exact,
    "channel.awgn_sample": _count_awgn,
    "demapper.per_bit_gmi_mc": _count_gmi_mc,
    "rate_adapt.assemble_labels": _count_framing,
}


def _argument_getter(fn):
    """Map (args, kwargs) to {parameter name: value} without a full bind."""
    names = list(inspect.signature(fn).parameters)

    def get(args, kwargs):
        out = dict(zip(names, args))
        out.update(kwargs)
        return out

    return get


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "shapegain"
                                           or name.startswith("shapegain."))]
        for module, fn in TARGETS:
            original = getattr(sys.modules.get(f"shapegain.{module}"), fn, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module}.{fn}", fn, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take(self) -> tuple:
        """Return and reset (spans, counts) recorded since the last take."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    def _wrap(self, name, fn_name, original):
        get_args = _argument_getter(original)
        mode_arg = MODE_ARG.get(fn_name)
        counted = mode_arg is not None or name in COUNTERS
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name
            a = get_args(args, kwargs) if counted else None
            if mode_arg:
                label = f"{name}.{_mode(a[mode_arg])}"
            counter = COUNTERS.get(label)
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            outcome = "uncaught"
            start = clock()
            try:
                result = original(*args, **kwargs)
                outcome = f"exit_{result}" if name == "cli.main" else "ok"
                return result
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, parent, label, start, end))
                if name == "cli.main":
                    self.counts[(label, outcome)] += 1
                if counter is not None and outcome != "uncaught":
                    for key, value in counter(a).items():
                        if key in MAX_COUNTS:
                            self.counts[(label, key)] = max(
                                self.counts[(label, key)], value)
                        else:
                            self.counts[(label, key)] += value

        return wrapper


def self_times(spans) -> dict:
    """{span name: (calls, self seconds, inclusive seconds, [durations])}."""
    child_time = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent:
            child_time[parent] += end - start
    out = {}
    for sid, _parent, name, start, end in spans:
        dur = end - start
        calls, self_s, incl, durs = out.get(name, (0, 0.0, 0.0, []))
        durs.append(dur)
        out[name] = (calls + 1, self_s + dur - child_time[sid], incl + dur, durs)
    return out


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(traced_passes) -> dict:
    """Per-layer figures from traced passes.

    traced_passes is a list of (wall_s, spans, counts), one per traced pass.
    Calls and counts are per pass (and must repeat exactly from pass to
    pass); self times are medians over passes; call-duration percentiles
    pool every traced pass.
    """
    per_pass = [(wall, self_times(spans), counts) for wall, spans, counts in traced_passes]
    names = span_names()
    rows = {}
    for name in names:
        calls = [t.get(name, (0,))[0] for _w, t, _c in per_pass]
        self_s = [t[name][1] if name in t else 0.0 for _w, t, _c in per_pass]
        incl = [t[name][2] if name in t else 0.0 for _w, t, _c in per_pass]
        pct = [100.0 * s / w for s, (w, _t, _c) in zip(self_s, per_pass)]
        incl_pct = [100.0 * s / w for s, (w, _t, _c) in zip(incl, per_pass)]
        durs = [d for _w, t, _c in per_pass if name in t for d in t[name][3]]
        rows[name] = {
            "calls": calls[0],
            "calls_repeat": len(set(calls)) == 1,
            "self_s": statistics.median(self_s),
            "incl_s": statistics.median(incl),
            "self_pct": statistics.median(pct),
            "incl_pct": statistics.median(incl_pct),
            "durations": durs,
        }
    modules = {}
    for module in MODULES:
        pct = [100.0 * sum(v[1] for k, v in t.items() if module_of(k) == module) / w
               for w, t, _c in per_pass]
        modules[module] = statistics.median(pct)
    other = [100.0 - 100.0 * sum(v[1] for v in t.values()) / w for w, t, _c in per_pass]
    modules["other"] = statistics.median(other)
    counts = {}
    repeat = True
    keys = set().union(*(c.keys() for _w, _t, c in per_pass)) if per_pass else set()
    for key in keys:
        values = [c.get(key, 0) for _w, _t, c in per_pass]
        repeat &= len(set(values)) == 1
        counts[key] = values[0]
    return {"rows": rows, "modules": modules, "counts": counts,
            "counts_repeat": repeat and all(r["calls_repeat"] for r in rows.values())}


def percentile_ms(durations, q: float) -> float:
    return 1000.0 * float(np.percentile(np.asarray(durations), q))


def write_spans(path, traced_passes) -> None:
    """Write every recorded span as one JSON line."""
    with open(path, "w") as fh:
        for index, (_wall, spans, _counts) in enumerate(traced_passes):
            for sid, parent, name, start, end in spans:
                fh.write(json.dumps({"pass": index, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


# Per-layer metrics reported by a traced run: (name, unit, better).
# Self times are given as a share of the traced pass's wall time, so a
# layer a workload never enters reads 0 % rather than a constant 0 s;
# absolute self times are kept for the layers every workload enters.
ALWAYS_ENTERED = ("demapper.llr_exact", "demapper.per_bit_gmi_mc",
                  "channel.awgn_sample")
KERNEL_COUNTS = (
    ("training.forward_loss.gaussian", "lik_evals", "count", "lower"),
    ("demapper.llr_exact", "samples", "count", "lower"),
    ("demapper.llr_exact", "lik_evals", "count", "lower"),
    ("demapper.llr_exact", "temp_bytes", "bytes", "lower"),
    ("demapper.per_bit_gmi_mc", "samples", "count", "lower"),
    ("channel.awgn_sample", "draws", "count", "lower"),
    ("rate_adapt.assemble_labels", "bits", "count", "higher"),
    ("cli.main", "exit_0", "count", "higher"),
    ("cli.main", "exit_1", "count", "higher"),
    ("cli.main", "exit_2", "count", "higher"),
    ("cli.main", "exit_3", "count", "higher"),
    ("cli.main", "uncaught", "count", "lower"),
)


def per_layer_spec() -> list:
    spec = []
    for name in span_names():
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_pct", "%", "lower"))
    spec.extend((f"{name}.self_s", "s", "lower") for name in ALWAYS_ENTERED)
    spec.extend((f"{span}.{key}", unit, better)
                for span, key, unit, better in KERNEL_COUNTS)
    spec.append(("demapper.per_bit_gmi_mc.samples_per_s", "1/s", "higher"))
    spec.extend((f"{module}.self_pct", "%", "lower") for module in (*MODULES, "other"))
    spec.append(("trace.overhead_s", "s", "lower"))
    spec.append(("trace.overhead_pct", "%", "lower"))
    return spec


def per_layer_metrics(summary: dict, overhead_s: float, overhead_pct: float) -> dict:
    """Values for every per_layer_spec() name, from summarize()'s output."""
    rows, counts = summary["rows"], summary["counts"]
    values = {}
    for name, row in rows.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_pct"] = row["self_pct"]
    for name in ALWAYS_ENTERED:
        values[f"{name}.self_s"] = rows[name]["self_s"]
    for span, key, _unit, _better in KERNEL_COUNTS:
        values[f"{span}.{key}"] = counts.get((span, key), 0)
    mc = rows["demapper.per_bit_gmi_mc"]
    values["demapper.per_bit_gmi_mc.samples_per_s"] = (
        counts.get(("demapper.per_bit_gmi_mc", "samples"), 0) / mc["incl_s"]
        if mc["incl_s"] > 0 else 0.0)
    for module, pct in summary["modules"].items():
        values[f"{module}.self_pct"] = pct
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in per_layer_spec()}
