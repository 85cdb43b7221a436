"""Spans around the calls into canto's layers, recorded from outside.

The benchmark changes nothing under src/, so a layer is timed by
rebinding its public functions: every module-level name in canto's
modules that refers to a traced function (and every value of a
module-level dict such as scheduler.ALLOCATORS) is pointed at a wrapper
that records a span. Methods are wrapped on their class.

A span is (name, parent span, start, end). Spans stay in memory, in
flat arrays, until reduce() folds each pass into a call tree of counts,
total time and self time; self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

ALLOCATOR_NAMES = ("binary", "random", "greedy", "greedy-ml", "gcd")
CLI_COMMANDS = ("run", "simulate", "verify", "capacity", "report")


def rebind(original, replacement) -> None:
    """Point every binding of `original` in canto's modules at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "canto" or name.startswith("canto.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = replacement


class Tracer:
    """In-memory span recorder plus the simulated facts seen by hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[tuple[int, int]] = []  # (span index, name id)
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.pass_bounds: list[list[int]] = []
        self.facts: list[Counter] = []
        self.absent: list[str] = []

    # ------------------------------------------------------------ recording

    def begin_pass(self) -> None:
        self.pass_bounds.append([len(self.span_start), len(self.span_start)])
        self.facts.append(Counter())

    def end_pass(self) -> None:
        self.pass_bounds[-1][1] = len(self.span_start)

    def note(self, key: str, value: float) -> None:
        self.facts[-1][key] += value

    def wrap(self, name: str, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._open
            # re-entry (parse_trace(path) calls parse_trace(fh)) is one span
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append((idx, nid))
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function; a target that no longer exists is
        recorded in `absent` and its metrics are left out."""
        for module_name, attr, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if isinstance(owner, dict):
                fn = owner.get(leaf)
            else:
                fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(span)
                continue
            wrapper = self.wrap(span, fn, hook)
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
            else:
                rebind(fn, wrapper)

    # ------------------------------------------------------------ reduction

    def reduce(self) -> list[dict]:
        """Per pass: the call tree {(span, parent span): (calls, total_s,
        self_s)}, with "" as the parent of a root span, and the facts the
        hooks noted."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        k = len(self.names)
        out = []
        for (lo, hi), facts in zip(self.pass_bounds, self.facts):
            n, d = names[lo:hi], dur[lo:hi]
            nested = parents[lo:hi] >= 0
            p = np.where(nested, parents[lo:hi] - lo, 0)
            child = np.bincount(p[nested], weights=d[nested], minlength=len(d))
            parent_name = np.where(nested, n[p], k)
            keys, inverse = np.unique(n * (k + 1) + parent_name, return_inverse=True)
            calls = np.bincount(inverse)
            total = np.bincount(inverse, weights=d)
            own = np.bincount(inverse, weights=d - child)
            tree = {}
            for j, key in enumerate(keys.tolist()):
                span, parent = divmod(key, k + 1)
                tree[(self.names[span], self.names[parent] if parent < k else "")] = (
                    int(calls[j]), float(total[j]), float(own[j]))
            out.append({"tree": tree, "facts": dict(facts)})
        return out


# ---------------------------------------------------------------- targets

def _on_simulate(tracer, args, trace):
    from canto.bus_sim import busload
    tracer.note("frames", len(trace))
    tracer.note("busload_pct", busload(trace))


def _on_export(tracer, args, result):
    tracer.note("trace_bytes", os.path.getsize(args[1]))


def _on_parse_trace(tracer, args, trace):
    tracer.note("parsed_frames", len(trace))


def _on_verify(tracer, args, verdict):
    tracer.note("verdict." + (verdict.reason or "accept"), 1)


def _on_matrix(tracer, args, matrix):
    # a real count of 1 in a row of under 1e6 samples is above 1e-6 of the
    # row maximum; a smoothing-only entry is about 1e-9 of it
    smoothing_only = matrix < matrix.max(axis=1, keepdims=True) * 1e-6
    tracer.note("matrix_zero_share", float(smoothing_only.mean()))


def _on_blahut_arimoto(tracer, args, result):
    capacity, iterations = result
    tracer.note("capacity_bits", capacity)
    tracer.note("ba_iterations", iterations)


# (module, attribute, span name, hook) for every traced call
TARGETS = (
    *[("canto.cli", f"cmd_{c}", f"cli.{c}", None) for c in CLI_COMMANDS],
    ("canto.scheduler", "build_schedule", "scheduler.build_schedule", None),
    ("canto.scheduler", "schedule_quality", "scheduler.schedule_quality", None),
    *[("canto.scheduler", f"ALLOCATORS.{alg}", f"scheduler.alloc.{alg}", None)
      for alg in ALLOCATOR_NAMES],
    ("canto.bus_sim", "simulate", "bus_sim.simulate", _on_simulate),
    ("canto.frame_model", "frame_stuff_bits", "frame_model.stuff_bits", None),
    ("canto.clock_model", "ClockModel.local_to_bus_time", "clock_model.local_to_bus_time",
     None),
    ("canto.incanta", "covert_delay", "incanta.covert_delay", None),
    ("canto.incanta", "Verifier.verify", "incanta.verify", _on_verify),
    ("canto.analysis", "mc_adversary_rate", "analysis.mc_adversary_rate", None),
    ("canto.analysis", "extract_channel_matrix", "analysis.extract_channel_matrix",
     _on_matrix),
    ("canto.analysis", "blahut_arimoto", "analysis.blahut_arimoto", _on_blahut_arimoto),
    ("canto.analysis", "histogram", "analysis.histogram", None),
    ("canto.trace_io", "parse_experiment_config", "trace_io.parse_experiment_config", None),
    ("canto.trace_io", "export_trace", "trace_io.export_trace", _on_export),
    ("canto.trace_io", "parse_trace", "trace_io.parse_trace", _on_parse_trace),
)
