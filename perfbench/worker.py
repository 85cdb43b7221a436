"""One workload in one single-threaded process, as a closed loop of passes.

Started by run.py with the checkout's src/ on PYTHONPATH. It imports
canto and parses the generated config (set-up), prints the monotonic
time at which it is ready, and unless --setup-only runs a fixed number
of passes one at a time, timing the reference computation of
refspeed.py before the first step and after each step. The last line of
its output is one JSON object with the pass times, the reference times,
failure counts, output digests and, with --trace 1, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import refspeed
from tracer import ALLOCATOR_NAMES, CLI_COMMANDS, Tracer, rebind


def _parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--ref-repeats", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Runner:
    """Runs passes, gates each one and keeps the counts."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # outputs judged wrong
        self.first_digests: dict | None = None
        self.record: dict | None = None

    def run_passes(self, count: int, tracer=None,
                   ref_repeats: int = 1) -> tuple[list[float], list[float]]:
        """`count` passes; their times, and the times of the reference
        computation, run `ref_repeats` times before the first step and
        after each step."""
        times, reference = [], []
        reference += [refspeed.reference_once() for _ in range(ref_repeats)]
        with open(os.devnull, "w") as devnull:
            for _ in range(count):
                if tracer is not None:
                    tracer.begin_pass()
                elapsed = 0.0
                code, problems = 0, None
                for step in self.workload.steps():
                    start = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(devnull):
                            code = step()
                    except Exception as exc:  # a pass that raises is a failed pass
                        code, problems = None, [f"pass raised {type(exc).__name__}: {exc}"]
                    elapsed += time.perf_counter() - start
                    reference += [refspeed.reference_once() for _ in range(ref_repeats)]
                    if code != 0:
                        break
                if tracer is not None:
                    tracer.end_pass()
                self._judge(code, problems)
                times.append(elapsed)
        return times, reference

    def _judge(self, code, problems) -> None:
        w = self.workload
        if problems is None:
            try:
                problems = w.check()
                digests = w.digests()
            except Exception as exc:  # outputs of a broken pass can be anything
                problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
            else:
                if self.first_digests is None:
                    self.first_digests = digests
                    self.record = w.record()
                elif digests != self.first_digests:
                    problems.append(f"outputs differ from the first pass: {digests}")
            if code not in w.judged_exits:
                problems.append(f"exit code {code}")
        self.attempted += 1
        if code != 0 or problems:
            self.failed += 1
        self.problems += problems


def alloc_peak_mb(runner: Runner) -> float:
    """One pass with tracemalloc on during bus_sim.simulate only; its peak."""
    from canto import bus_sim

    original = bus_sim.simulate
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    rebind(original, measured)
    try:
        runner.run_passes(1)
    finally:
        rebind(measured, original)
    return max(peaks, default=0) / 2 ** 20


def _layer_values(tree: dict, facts: dict, absent: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    def calls(span):
        return sum(v[0] for (s, _), v in tree.items() if s == span)

    def total(span):
        return sum(v[1] for (s, _), v in tree.items() if s == span)

    def own(span):
        return sum(v[2] for (s, _), v in tree.items() if s == span)

    def ratio(a, b):
        return a / b if b else 0.0

    spans: dict[str, tuple] = {
        "scheduler.build_schedule_s": (total, "scheduler.build_schedule"),
        "scheduler.schedule_quality_s": (total, "scheduler.schedule_quality"),
        "bus_sim.simulate_s": (total, "bus_sim.simulate"),
        "bus_sim.self_s": (own, "bus_sim.simulate"),
        "frame_model.stuff_bits.calls": (calls, "frame_model.stuff_bits"),
        "frame_model.stuff_bits_s": (total, "frame_model.stuff_bits"),
        "clock_model.local_to_bus_time.calls": (calls, "clock_model.local_to_bus_time"),
        "clock_model.local_to_bus_time_s": (total, "clock_model.local_to_bus_time"),
        "incanta.covert_delay.calls": (calls, "incanta.covert_delay"),
        "incanta.covert_delay_s": (total, "incanta.covert_delay"),
        "incanta.verify.calls": (calls, "incanta.verify"),
        "incanta.verify_s": (total, "incanta.verify"),
        "analysis.mc_adversary_rate.calls": (calls, "analysis.mc_adversary_rate"),
        "analysis.mc_adversary_rate_s": (total, "analysis.mc_adversary_rate"),
        "analysis.extract_channel_matrix_s": (total, "analysis.extract_channel_matrix"),
        "analysis.blahut_arimoto_s": (total, "analysis.blahut_arimoto"),
        "analysis.histogram_s": (total, "analysis.histogram"),
        "trace_io.parse_experiment_config_s": (total, "trace_io.parse_experiment_config"),
        "trace_io.export_trace_s": (total, "trace_io.export_trace"),
        "trace_io.parse_trace_s": (total, "trace_io.parse_trace"),
    }
    for alg in ALLOCATOR_NAMES:
        spans[f"scheduler.alloc_s.{alg}"] = (total, f"scheduler.alloc.{alg}")
    for command in CLI_COMMANDS:
        spans[f"cli.cmd_s.{command}"] = (total, f"cli.{command}")
        spans[f"cli.self_s.{command}"] = (own, f"cli.{command}")
    out = {name: float(fn(span)) for name, (fn, span) in spans.items() if span not in absent}

    frames = facts.get("frames", 0)
    derived = {
        "bus_sim.frames": ("bus_sim.simulate", frames),
        "bus_sim.frames_per_s": ("bus_sim.simulate",
                                 ratio(frames, total("bus_sim.simulate"))),
        "bus_sim.busload_pct": ("bus_sim.simulate", facts.get("busload_pct", 0.0)),
        "frame_model.stuff_bits.from_trace_io.calls": (
            "frame_model.stuff_bits",
            tree.get(("frame_model.stuff_bits", "trace_io.parse_trace"), (0,))[0]),
        "incanta.covert_delay.per_frame": (
            "incanta.covert_delay", ratio(calls("incanta.covert_delay"), frames)),
        "analysis.ba_iterations": ("analysis.blahut_arimoto",
                                   facts.get("ba_iterations", 0)),
        "analysis.ba_ms_per_iter": (
            "analysis.blahut_arimoto",
            ratio(1000.0 * total("analysis.blahut_arimoto"), facts.get("ba_iterations", 0))),
        "analysis.capacity_bits": ("analysis.blahut_arimoto",
                                   facts.get("capacity_bits", 0.0)),
        "analysis.matrix_zero_share": ("analysis.extract_channel_matrix",
                                       facts.get("matrix_zero_share", 0.0)),
        "trace_io.parse_trace.frames": ("trace_io.parse_trace",
                                        facts.get("parsed_frames", 0)),
        "trace_io.trace_bytes": ("trace_io.export_trace", facts.get("trace_bytes", 0)),
    }
    for reason in ("accept", "timing", "replay", "first"):
        derived[f"incanta.verdicts.{reason}"] = ("incanta.verify",
                                                 facts.get(f"verdict.{reason}", 0))
    out.update({name: float(value) for name, (span, value) in derived.items()
                if span not in absent})
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    import numpy
    import canto
    from workloads import WORKLOADS

    src = Path.cwd() / "src"
    if src not in Path(canto.__file__).resolve().parents:
        print(f"canto was imported from {canto.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](Path(args.work), Path(args.config))
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    runner = Runner(workload)
    untraced = max(1, args.passes // 2) if args.trace else args.passes
    result["pass_s"], result["reference_s"] = runner.run_passes(
        untraced, ref_repeats=args.ref_repeats)
    if args.trace:
        layers = {"bus_sim.alloc_peak_mb": alloc_peak_mb(runner) if workload.simulates
                  else 0.0}
        tracer = Tracer()
        tracer.install()
        traced, traced_reference = runner.run_passes(untraced, tracer, args.ref_repeats)
        passes = tracer.reduce()
        per_pass = [_layer_values(p["tree"], p["facts"], set(tracer.absent)) for p in passes]
        layers.update({name: statistics.median(m[name] for m in per_pass)
                       for name in per_pass[0]})
        q = (runner.record or {}).get("q_per_ms", {})
        for alg in ALLOCATOR_NAMES:
            layers[f"scheduler.q_per_ms.{alg}"] = float(q.get(alg, 0.0))
        layers["tracing_overhead_s"] = (
            refspeed.at_reference_speed(statistics.mean(traced), traced_reference)
            - refspeed.at_reference_speed(statistics.mean(result["pass_s"]),
                                          result["reference_s"]))
        result.update(layers=layers, absent=tracer.absent, spans=_fold(passes))
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems[:20], digests=runner.first_digests,
                  record=runner.record, numpy=numpy.__version__,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))
    return 0


def _fold(passes: list[dict]) -> list[dict]:
    """Call trees of all traced passes summed into one span table."""
    table: dict = {}
    for p in passes:
        for key, (c, t, o) in p["tree"].items():
            row = table.setdefault(key, [0, 0.0, 0.0])
            row[0] += c
            row[1] += t
            row[2] += o
    return [{"span": s, "parent": parent, "calls": c, "total_s": t, "self_s": o}
            for (s, parent), (c, t, o) in sorted(table.items())]


if __name__ == "__main__":
    sys.exit(main())
