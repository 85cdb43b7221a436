"""Experiment driver: allocate schedules, simulate the bus, verify covert
authentication, score adversaries, and emit tables and plot data.

Every subcommand is a list of stages run by `_execute`, which then writes
its outputs and a manifest (input hashes, seed, version and its other
arguments) so any artifact can be re-derived from configuration, seed and
arguments. Exit codes: 0 success, 1 check failure, 2 usage, 3 I/O, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import canto
from canto import analysis, bus_sim, trace_io
from canto.incanta import adversary_advantage, decode, ecu_success
from canto.scheduler import (ALLOCATORS, OversubscribedError, Schedule, build_schedule,
                             check_complete, schedule_quality)
from canto.trace_io import TraceFormatError

# malformed or degenerate input: exit 3 with the message, never 4
INPUT_ERRORS = (OSError, TraceFormatError, bus_sim.OversubscribedBusError, bus_sim.TimeLimitError,
                OversubscribedError)

RHO_SET = (2.0, 3.0, 4.0, 5.0)
FRAME_SET = (1, 2, 3, 4, 6)
AUTOSAR_LEVEL = 2.0 ** -24
# the fewest delay bits whose alphabet is wider than every window of RHO_SET
MIN_LEVEL_BITS = int(2 * max(RHO_SET)).bit_length()


class CheckFailure(Exception):
    """--check threshold violated."""


class StageError(Exception):
    """A command failed; the cause is chained, and in `run` the message names the stage."""


def derive_seed(base: int, label: str) -> int:
    digest = hashlib.sha256(f"{base}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def write_manifest(out: Path, args, seed: int, inputs: dict[str, str | Path | None]) -> None:
    manifest = {
        "command": args.command,
        # every other argument but the seed and the paths, whose inputs are hashed
        "arguments": {k: v for k, v in vars(args).items() if k not in (
            "command", "seed", "config", "out", "schedule", "trace", "indir")},
        "seed": seed,
        "version": canto.__version__,
        "inputs": {name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                   for name, p in sorted(inputs.items()) if p is not None},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- runner

def _execute(args, stages, needs=None) -> int:
    """Run one command. Refuse a bad `--tolerance` or `--bin-width`; parse `--config`,
    check it (`needs` names what needs its `[covert]`) and resolve the seed; then run
    `stages`, (name, stage) pairs, on one context of `args`, `config`, `seed`, `stdout`
    and earlier results. A stage writes nothing: it returns its results and its files
    (name: text, or a writer of the path). Only after the last stage or a `CheckFailure`
    are `--out` and the files made, so no command writes before its last refusal; then
    the manifest (not after a failed check) and `stdout`. An error is a `StageError`
    naming its stage, if it has a name."""
    for flag in ("tolerance", "bin_width"):
        if not 0 < getattr(args, flag, 1.0) < math.inf:  # NaN fails too
            raise TraceFormatError(f"--{flag.replace('_', '-')} {getattr(args, flag):g}: "
                                   "must be positive and finite")
    name, files, failure = stages[0][0], [], None
    try:
        config = trace_io.parse_experiment_config(args.config)
        if needs is not None and config.covert is None:
            raise TraceFormatError(f"{needs} needs a [covert] section")
        if args.seed is not None and args.seed < 0:
            raise TraceFormatError(f"--seed: seed {args.seed} must be nonnegative")
        ctx = SimpleNamespace(args=args, config=config, stdout="", inputs={},
                              seed=config.seed if args.seed is None else args.seed)
        try:
            for name, stage in stages:
                results, stage_files = stage(ctx)
                vars(ctx).update(results)
                files += [(name, *file) for file in stage_files.items()]
        except CheckFailure as exc:  # the files are still written
            failure = exc
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, file, content in files:
            if callable(content):
                content(out / file)
            else:
                (out / file).write_text(content, newline="\n")
        if failure is None:
            write_manifest(out, args, ctx.seed, {**ctx.inputs, **{
                k: getattr(args, k, None) for k in ("config", "schedule", "trace")}})
    except Exception as exc:
        raise StageError(f"{name}: {exc}" if name else str(exc)) from exc
    print(ctx.stdout, end="")
    if failure is not None:
        raise failure
    return 0


def _command(*stages, needs=None):
    """A standalone command: `_execute` over `stages`, whose errors name no stage."""
    return lambda args: _execute(args, [("", stage) for stage in stages], needs)


# ---------------------------------------------------------------- stages

def _schedule(ctx):
    """The `--schedule` file, else the allocator (`allocate --algorithm`, else
    `[allocator] algorithm`) with `[allocator]`'s keys when that section names
    it, else the config's offsets. A value the allocator refuses exits 3."""
    args, config, section = ctx.args, ctx.config, ctx.config.allocator
    algorithm = getattr(args, "algorithm", None) or section.get("algorithm")
    if getattr(args, "schedule", None):
        sched = trace_io.read_schedule(args.schedule)
    elif algorithm is None:
        sched = Schedule(tuple(config.frame_specs()))
    else:
        options, where = {}, f"--algorithm {algorithm}"
        if section.get("algorithm") == algorithm:
            options = {k: v for k, v in section.items() if k != "algorithm"}
            where = "[allocator] " + ", ".join(f"{k} = {v}" for k, v in section.items())
        try:
            sched = build_schedule(config.frame_specs(), algorithm, seed=ctx.seed, **options)
        except ValueError as exc:
            raise TraceFormatError(f"{where}: {exc}") from exc
    return {"schedule": sched}, {"schedule.txt": functools.partial(trace_io.write_schedule, sched)}


def _allocation_report(ctx):
    quality = schedule_quality(ctx.schedule)
    report = (
        "algorithm,complete,q_factor,min_ifs_ms,max_ifs_ms\n"
        f"{ctx.args.algorithm},{int(quality.complete)},{quality.q_per_ms:.4f},"
        f"{quality.min_ifs_us / 1000:.6g},{quality.max_ifs_us / 1000:.6g}\n")
    return {"stdout": report}, {"allocation_report.csv": report}


def _simulate(ctx):
    trace = bus_sim.simulate(ctx.config.to_bus_config(ctx.schedule, seed=ctx.seed))
    return {"trace": trace}, {"trace.csv": functools.partial(trace_io.export_trace, trace)}


def _busload(ctx):
    frames, busload = len(ctx.trace), bus_sim.busload(ctx.trace)
    return ({"stdout": f"{frames} frames, busload {busload:.1f}%\n"},
            {"busload.txt": f"busload_percent={busload:.3f}\nframes={frames}\n"})


def _decoded(ctx):
    """The receiver front end of `verify` and `capacity`: the parsed trace and
    its `decode`. Under `--no-compensate` a frame arrives at its end, so each
    frame's wire time (the file stores none) is added to its bus time."""
    args, config = ctx.args, ctx.config
    trace = trace_io.parse_trace(args.trace)
    if args.no_compensate:
        trace.bus_ticks += config.wire_ticks(trace.ids, trace.id_index, trace.payloads,
                                             trace.payload_len)
    try:
        decoded = decode(trace, config.covert, config.receiver)
    except KeyError as exc:
        raise TraceFormatError(f"{args.trace}: {exc.args[0]}") from exc
    return {"trace": trace, "decoded": decoded}, {}


def _verify_summary(ctx):
    trace, decoded = ctx.trace, ctx.decoded
    scored = decoded.ref >= 0
    windows = decoded.window[decoded.window >= 0]
    if not scored.any() or not windows.size:
        raise TraceFormatError(f"{ctx.args.trace}: no scored frames or no window verdict (an "
                               "ID needs two frames to be scored and frames_required="
                               f"{ctx.config.receiver.frames_required} for a window)")
    rate = 100.0 * np.count_nonzero(decoded.accepted[scored]) / np.count_nonzero(scored)
    auth = 100.0 * np.count_nonzero(windows) / windows.size
    summary = (f"frames={len(trace)}\nscored={np.count_nonzero(scored)}\n"
               f"accept_rate_percent={rate:.4f}\n"
               f"window_auth_rate_percent={auth:.4f}\n")
    return {"stdout": summary}, {
        "verdicts.csv": functools.partial(trace_io.write_verdicts, trace, decoded),
        "verify_summary.txt": summary}


def _verify_run(ctx):
    """`verify` on the trace that trace.csv holds; its errors are verdicts.csv's."""
    decoded = decode(ctx.trace, ctx.config.covert, ctx.config.receiver)
    return ({"errors": decoded.error_us[~np.isnan(decoded.error_us)]},
            {"verdicts.csv": functools.partial(trace_io.write_verdicts, ctx.trace, decoded)})


def _attack_csv(column: str, rates, level: int) -> str:
    """attack.csv: one row per ((rho, frames), adversary rate) pair, the rate
    under `column`, then the paper's unclipped (2*rho/2^l)^k."""
    return f"rho_us,frames,{column},adv_rate_analytic\n" + "".join(
        f"{rho:g},{k},{rate:.8g},{adversary_advantage(rho, level, k):.8g}\n"
        for (rho, k), rate in rates)


def _check_attack_flags(ctx):
    args, level = ctx.args, ctx.config.covert.level_bits
    for rho in args.rho:
        if not 0 <= 2 * rho < 1 << level:  # NaN fails too
            raise TraceFormatError(f"--rho {rho:g}: the tolerance must be nonnegative and "
                                   f"under half the delay alphabet (2^{level} us)")
    for flag, values in (("--frames", args.frames), ("--trials", [args.trials])):
        for value in values:
            if value < 1:
                raise TraceFormatError(f"{flag} {value}: must be >= 1")
            if flag == "--frames" and value > analysis.MC_DRAWS:  # a window fills a chunk
                raise TraceFormatError(f"{flag} {value}: must be <= {analysis.MC_DRAWS}")
    for flag, values in (("--rho", args.rho), ("--frames", args.frames)):  # 5 and 5.0 are one
        if repeated := [value for value, n in Counter(values).items() if n > 1]:
            raise TraceFormatError(f"{flag} {repeated[0]:g}: given more than once")
    return {}, {}


def _mc_rates(ctx):
    args, level = ctx.args, ctx.config.covert.level_bits
    rates = [((rho, k), analysis.mc_adversary_rate(rho, level, k, args.trials,
                                                   derive_seed(ctx.seed, f"attack:{rho}:{k}")))
             for rho in args.rho for k in args.frames]
    return ({"stdout": f"attack rates for rho={args.rho} frames={args.frames} "
                       f"({args.trials} trials each) -> {Path(args.out) / 'attack.csv'}\n"},
            {"attack.csv": _attack_csv("adv_rate_mc", rates, level)})


def _exact_rates(ctx):
    level = ctx.config.covert.level_bits
    adv = {(rho, k): analysis.exact_adversary_rate(rho, level, k)
           for rho in RHO_SET for k in FRAME_SET}
    return {"adv": adv}, {"attack.csv": _attack_csv("adv_rate_exact", adv.items(), level)}


def _capacity(ctx):
    tolerance = ctx.args.tolerance
    try:
        matrix = analysis.extract_channel_matrix(ctx.trace, ctx.decoded,
                                                 ctx.config.covert.level_bits)
    except ValueError as exc:
        raise TraceFormatError(f"{ctx.args.trace}: {exc.args[0]}") from exc
    try:
        capacity, iterations = analysis.blahut_arimoto(matrix, tolerance=tolerance)
    except analysis.CapacityError as exc:
        raise TraceFormatError(f"--tolerance {tolerance:g}: {exc}") from exc
    report = (f"capacity_bits={capacity:.6f}\niterations={iterations}\n"
              f"alphabet={matrix.shape[0]}\ntolerance_bits={tolerance:g}\n")
    return {"stdout": report}, {"capacity_report.txt": report}


def _check_report_covert(ctx):
    """The success table and the 2^-24 crossing need every tolerance they
    score to leave part of the delay alphabet outside its window."""
    covert, rho = ctx.config.covert, ctx.config.receiver.tolerance_us
    if covert.level_bits < MIN_LEVEL_BITS:
        raise TraceFormatError(
            f"[covert] level_bits {covert.level_bits}: the success table's tolerances up to "
            f"{max(RHO_SET):g} us need level_bits >= {MIN_LEVEL_BITS}")
    if 2 * rho >= 1 << covert.level_bits:
        raise TraceFormatError(f"[covert] tolerance_us {rho:g}: the acceptance window covers "
                               f"the whole delay alphabet (2^{covert.level_bits} us)")
    return {}, {}


def _read_csv(path: Path, width: int, convert) -> list:
    """`convert(fields)` for each line after the header of a CSV file whose
    lines have `width` fields; a bad line exits 3, naming the file and line."""
    rows = []
    with open(path) as fh:
        if not fh.readline():
            raise TraceFormatError(f"{path}: empty, with no header line")
        for lineno, line in enumerate(fh, 2):
            fields = line.rstrip("\n").split(",")
            try:
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                rows.append(convert(fields))
            except ValueError as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def _number(text: str, what: str, low: float = -math.inf, high: float = math.inf) -> float:
    """`text` as a finite number from `low` to `high`, else a ValueError: it is not `what`."""
    value = float(text)
    if not (math.isfinite(value) and low <= value <= high):
        raise ValueError(f"{text} is not {what}")
    return value


def _attack_row(fields) -> tuple:
    """((rho, frames), rate) of an attack.csv line: a key that names no success
    table cell would leave the analytic rate in place, so it is refused."""
    rho, frames = _number(fields[0], "a finite rho_us >= 0", 0), int(fields[1])
    if frames < 1:
        raise ValueError(f"{fields[1]} is not a frames value >= 1")
    if rho not in RHO_SET or frames not in FRAME_SET:
        cells = f"rho_us {', '.join(map('{:g}'.format, RHO_SET))}; frames {str(FRAME_SET)[1:-1]}"
        raise ValueError(f"rho_us {rho:g}, frames {frames} is no success table cell ({cells})")
    return (rho, frames), _number(fields[2], "an adversary rate in [0, 1]", 0, 1)


def _report_inputs(ctx):
    """`report`'s inputs in `--in`; a capacity_report.txt there is copied."""
    indir = Path(ctx.args.indir)
    if Path(ctx.args.out).resolve() == indir.resolve():
        raise TraceFormatError(f"--out and --in are both {indir}: the report would replace "
                               "the manifest of the command that wrote its inputs")
    verdicts, attack, trace, capacity = (indir / f for f in (
        "verdicts.csv", "attack.csv", "trace.csv", "capacity_report.txt"))
    missing = [str(p) for p in (verdicts, attack) if not p.exists()]
    if missing:
        raise FileNotFoundError(f"missing report inputs: {', '.join(missing)}")
    errors = np.array([e for e in _read_csv(
        verdicts, 5, lambda f: _number(f[3], "a finite error_us") if f[3] else None)
        if e is not None])  # None: an unscored frame, its error_us empty
    adv, line_of = {}, {}
    for lineno, (key, rate) in enumerate(_read_csv(attack, 4, _attack_row), 2):
        first = line_of.setdefault(key, lineno)  # every line after the header is a row
        if first != lineno:
            raise TraceFormatError(f"{attack}: line {lineno}: rho_us {key[0]:g}, frames "
                                   f"{key[1]} is also on line {first}")
        adv[key] = rate
    inputs = {p.name: p for p in (verdicts, attack, trace, capacity) if p.exists()}
    return ({"trace": trace_io.parse_trace(trace) if trace.exists() else None,
             "errors": errors, "adv": adv, "inputs": inputs},
            {capacity.name: capacity.read_text()} if capacity.exists() else {})


def _histogram(values, width: float, unit: str, what: str):
    """A writer of `analysis.histogram`'s CSV; too many bins exit 3, naming `what`."""
    try:
        starts, counts = analysis.histogram(values, width)
    except ValueError as exc:
        raise TraceFormatError(f"{what}: {exc}") from exc

    def write(path: Path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(f"bin_start_{unit},count\n")
            fh.writelines(f"{s:.6g},{int(c)}\n" for s, c in zip(starts, counts))
    return write


def _report(ctx):
    """The report stage of `report` and `run`: tables and figure CSVs from the
    adversary rates by (rho, frames) `adv`, the `trace` (None: no trace) and the
    scored `errors` as verdicts.csv holds them."""
    errors, adv, width = ctx.errors, ctx.adv, ctx.args.bin_width
    indir = Path(getattr(ctx.args, "indir", ctx.args.out))  # `run` reads its own outputs
    level, tolerance = ctx.config.covert.level_bits, ctx.config.receiver.tolerance_us
    if errors.size == 0:
        raise TraceFormatError(f"{indir / 'verdicts.csv'}: no scored frames")
    files = {"fig_deviation_histogram.csv": _histogram(errors, width, "us",
                                                       f"--bin-width {width:g}")}
    if ctx.trace is not None:
        files["fig_interframe_histogram.csv"] = _histogram(
            np.diff(ctx.trace.bus_ticks) / 1e5, 0.05, "ms",
            f"{indir / 'trace.csv'}: inter-frame gaps")
    table = "rho_us,frames,ecu_rate,adv_rate\n"
    for rho in RHO_SET:
        p = float(np.mean(np.abs(errors) <= rho))
        for k in FRAME_SET:
            rate = adv[rho, k] if (rho, k) in adv else adversary_advantage(rho, level, k)
            table += f"{rho:g},{k},{ecu_success(p, k):.8g},{rate:.8g}\n"
    rates = [adversary_advantage(tolerance, level, k) for k in range(1, 9)]
    crossing = next((k for k, rate in enumerate(rates, 1) if rate < AUTOSAR_LEVEL), None)
    summary = f"autosar_crossing_frames={crossing}\nscored_frames={errors.size}\n"
    return {"stdout": summary}, {
        **files, "success_table.csv": table, "report_summary.txt": summary,
        "fig_adversary_success.csv": f"frames,adv_rate_rho{tolerance:g},autosar_24bit\n"
        + "".join(f"{k},{rate:.8g},{AUTOSAR_LEVEL:.8g}\n" for k, rate in enumerate(rates, 1))}


def _check_run(ctx):
    """Under `--check`, the paper-vector thresholds; a miss exits 1."""
    def check(condition: bool, message: str) -> None:
        if not condition:
            raise CheckFailure(message)
    if ctx.args.check:
        check(check_complete(ctx.schedule), "schedule is not collision-free")
        rho, level = ctx.config.receiver.tolerance_us, ctx.config.covert.level_bits
        accept, rate = float(np.mean(np.abs(ctx.errors) <= rho)), ctx.adv[5.0, 1]
        check(accept == 1.0, f"genuine acceptance at rho={rho} is {100 * accept:.3f}% (want 100%)")
        check(abs(rate - 0.039) < 0.0011,
              f"adversary rate at rho=5 is {100 * rate:.3f}% (want 3.9 +- 0.1)")
        ks = [k for k in range(1, 9) if adversary_advantage(5.0, level, k) < AUTOSAR_LEVEL]
        check(ks and ks[0] == 6, f"AUTOSAR crossing at k={ks[:1]} (want 6)")
    return {"stdout": f"{ctx.stdout}pipeline complete -> {Path(ctx.args.out)}\n"}, {}


# ---------------------------------------------------------------- commands

cmd_allocate = _command(_schedule, _allocation_report)
cmd_simulate = _command(_schedule, _simulate, _busload)
cmd_verify = _command(_decoded, _verify_summary, needs="verification")
cmd_attack = _command(_check_attack_flags, _mc_rates, needs="attack scoring")
cmd_capacity = _command(_decoded, _capacity, needs="capacity extraction")
cmd_report = _command(_check_report_covert, _report_inputs, _report, needs="report")


def cmd_run(args) -> int:
    return _execute(args, [
        ("configure", _check_report_covert),
        ("simulate" if args.schedule else "allocate", _schedule), ("simulate", _simulate),
        ("verify", _verify_run), ("attack", _exact_rates), ("report", _report),
        ("check", _check_run)], needs="run")


# `main` dispatches here, not through its parser (built once): a rebound command runs
COMMANDS = {"allocate": cmd_allocate, "simulate": cmd_simulate, "verify": cmd_verify,
            "attack": cmd_attack, "capacity": cmd_capacity, "report": cmd_report, "run": cmd_run}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canto",
        description="CAN frame-scheduling and time-covert authentication laboratory")
    parser.add_argument("--seed", type=int, default=None,
                        help="the run seed (default: the config's [bus] seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        return p

    p = command("allocate", "compute offsets for a period vector")
    p.add_argument("--algorithm", required=True, choices=sorted(ALLOCATORS))

    p = command("simulate", "run the bus and export a trace")
    p.add_argument("--schedule", default=None)

    p = command("verify", "covert-verify a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--no-compensate", action="store_true",
                   help="verify on raw end-of-frame times (no frame-length compensation)")

    p = command("attack", "Monte Carlo adversary acceptance rates")
    p.add_argument("--rho", type=float, nargs="+", default=list(RHO_SET))
    p.add_argument("--frames", type=int, nargs="+", default=list(FRAME_SET))
    p.add_argument("--trials", type=int, default=1_000_000)

    p = command("capacity", "channel matrix and Blahut-Arimoto capacity")
    p.add_argument("--trace", required=True)
    p.add_argument("--tolerance", type=float, default=1e-4, help="capacity bound gap, bits")
    p.add_argument("--no-compensate", action="store_true")

    p = command("report", "tables and figure CSVs from verify/attack outputs")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--bin-width", type=float, default=1.0)

    p = command("run", "full pipeline: allocate, simulate, verify, attack, report")
    p.add_argument("--schedule", default=None)
    p.add_argument("--bin-width", type=float, default=1.0)
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless the paper-vector thresholds hold")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a stage's error is judged by its cause
        cause = exc.__cause__ if isinstance(exc, StageError) else exc
        if isinstance(cause, INPUT_ERRORS):
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
