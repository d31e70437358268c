"""Spans around qsd's layer boundaries, recorded from outside the package.

In a traced pass the benchmark rebinds each listed public function, in its
own module, in the qsd namespace and in every qsd module that imported it by
name (qsd.cli, qsd.serialize, ...), to a wrapper that records a span: name,
start, end, parent span and the instance being worked on.  Spans stay in
memory until the pass ends.  Nothing under src/ changes.

Core's numeric primitives (hermitian_part, psd_sqrt_pinv, trace_norm, ...)
run inside the solver's iteration and other layers' loops; they are left
unwrapped so that a layer's self time keeps its own arithmetic and the
wrappers add little.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

TRACED = {
    "core": ("make_ensemble",),
    "solver": ("solve", "kkt_check", "certificate_from_povm"),
    "helstrom": ("helstrom",),
    "bounds": ("lower_bound", "best_cyclic_bound"),
    "oracle": ("oracle_grid",),
    "nosignaling": (
        "steering_structure",
        "decompositions_from_structure",
        "norm_identity_check",
        "proposition_bound_check",
        "slackness_check",
        "detector_nosignaling_check",
    ),
    "steering": ("purify", "make_decomposition", "ghjw_povm", "steered_states", "simulate_protocol"),
    "serialize": (
        "parse_instance",
        "parse_report",
        "dump_json",
        "instance_hash",
        "ensemble_to_doc",
        "encode_matrix",
        "decode_matrix",
    ),
    "cli": ("main",),
}


def _solve_attrs(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "max_residual": result.report.max_residual(),  # primal residual included
    }


# Counts read at the boundary, where the work happens.
ATTRS = {
    "solver.solve": _solve_attrs,
    "solver.kkt_check": lambda args, kwargs, result: {"max_residual": result.max_residual()},
    "steering.simulate_protocol": lambda args, kwargs, result: {
        "shots": int(result.counts.sum()),
    },
    "serialize.dump_json": lambda args, kwargs, result: {"bytes": len(result.encode())},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    instance: str
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; instance labels the work that following spans belong to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "cli.main" and args and args[0]:
                label = f"cli.{args[0][0]}"  # named after the subcommand: cli.solve, ...
            index = len(self.spans)
            span = Span(label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance)
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def write(self, path, pass_index: int) -> None:
        """Append this pass's spans to path as JSON lines."""
        with open(path, "a", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {"pass": pass_index, "id": index, "name": span.name, "start": span.start,
                          "end": span.end, "parent": span.parent, "instance": span.instance}
                if span.attrs:
                    record["attrs"] = span.attrs
                handle.write(json.dumps(record) + "\n")


@contextmanager
def traced(tracer: Tracer):
    """Rebind every listed function to tracer's wrapper; restore on exit."""
    wrappers = {}
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"qsd.{module_name}")
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{module_name}.{name}", fn))
    modules = [module for key, module in sys.modules.items() if key == "qsd" or key.startswith("qsd.")]
    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, entry[1])
    try:
        yield tracer
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


# Inclusive span time per metric: the sum of the durations of these spans.
SECONDS = {
    "solver.solve_s": ("solver.solve",),
    "solver.kkt_check_s": ("solver.kkt_check",),
    "solver.certificate_s": ("solver.certificate_from_povm",),
    "nosignaling.structure_s": ("nosignaling.steering_structure",),
    "nosignaling.decompositions_s": ("nosignaling.decompositions_from_structure",),
    "nosignaling.checks_s": (
        "nosignaling.norm_identity_check",
        "nosignaling.proposition_bound_check",
        "nosignaling.slackness_check",
        "nosignaling.detector_nosignaling_check",
    ),
    "steering.purify_s": ("steering.purify",),
    "steering.ghjw_s": ("steering.ghjw_povm",),
    "steering.simulate_s": ("steering.simulate_protocol",),
    "bounds.lower_bound_s": ("bounds.lower_bound",),
    "bounds.best_cyclic_s": ("bounds.best_cyclic_bound",),
    "helstrom.helstrom_s": ("helstrom.helstrom",),
    "oracle.oracle_grid_s": ("oracle.oracle_grid",),
    "serialize.parse_instance_s": ("serialize.parse_instance",),
    "serialize.dump_json_s": ("serialize.dump_json",),
    "serialize.instance_hash_s": ("serialize.instance_hash",),
}


def layer_metrics(spans: list[Span], per_instance: bool) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Only layers the pass entered are reported.  A span's self time is its
    duration minus that of its direct children; per_instance adds the solver
    figures of each instance (the ladder's points).
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    self_seconds = [span.seconds - child for span, child in zip(spans, child_seconds)]

    totals: dict[str, float] = {}
    own_seconds: dict[str, float] = {}  # per module, and per CLI subcommand
    for span, own in zip(spans, self_seconds):
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        keys = [span.name.split(".")[0]] + ([span.name] if span.name.startswith("cli.") else [])
        for key in keys:
            own_seconds[key] = own_seconds.get(key, 0.0) + own

    out = {}
    for metric, names in SECONDS.items():
        if any(name in totals for name in names):
            out[metric] = (sum(totals.get(name, 0.0) for name in names), "s")
    for key, seconds in sorted(own_seconds.items()):
        out[f"{key}.self_s"] = (seconds, "s")

    solves = [(span, own) for span, own in zip(spans, self_seconds) if span.name == "solver.solve" and span.attrs]
    if solves:
        iterations = [span.attrs["iterations"] for span, _ in solves]
        solve_self = sum(own for _, own in solves)
        out["solver.iterations"] = (sum(iterations), "count")
        out["solver.iterations_p50"] = (float(_median(iterations)), "count")
        out["solver.iterations_max"] = (max(iterations), "count")
        out["solver.us_per_iter"] = (solve_self / max(sum(iterations), 1) * 1e6, "us")
        out["solver.converged_frac"] = (sum(span.attrs["converged"] for span, _ in solves) / len(solves), "ratio")
        residuals = [span.attrs["max_residual"] for span in spans if span.attrs and "max_residual" in span.attrs]
        out["solver.max_kkt_residual"] = (max(residuals), "1")
        if per_instance:
            for instance in dict.fromkeys(span.instance for span, _ in solves):
                mine = [(span, own) for span, own in solves if span.instance == instance]
                count = sum(span.attrs["iterations"] for span, _ in mine)
                out[f"solver.iterations.{instance}"] = (count, "count")
                out[f"solver.us_per_iter.{instance}"] = (sum(own for _, own in mine) / max(count, 1) * 1e6, "us")

    shots = sum(span.attrs["shots"] for span in spans if span.name == "steering.simulate_protocol" and span.attrs)
    if shots:
        out["steering.shots_per_s"] = (shots / totals["steering.simulate_protocol"], "1/s")
    reports = [
        span.attrs["bytes"]
        for span in spans
        if span.name == "serialize.dump_json" and span.attrs
        and (span.parent < 0 or spans[span.parent].name != "serialize.instance_hash")
    ]
    if reports:
        out["serialize.report_bytes"] = (sum(reports), "count")
    return out


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
