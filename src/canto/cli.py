"""Experiment driver: allocate schedules, simulate the bus, verify covert
authentication, score adversaries, and emit tables and plot data.

Every subcommand writes a manifest (input hashes, seed, version and its
other arguments) next to its outputs so any artifact can be re-derived
from configuration, seed and arguments. Exit codes: 0 success, 1 check
failure, 2 usage, 3 I/O, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

import canto
from canto import analysis, bus_sim, trace_io
from canto.incanta import adversary_advantage, decode, ecu_success
from canto.scheduler import (ALLOCATORS, OversubscribedError, Schedule, build_schedule,
                             check_complete, schedule_quality)
from canto.trace_io import TraceFormatError

# malformed or degenerate input: exit 3 with the message, never 4
INPUT_ERRORS = (OSError, TraceFormatError, bus_sim.OversubscribedBusError, OversubscribedError)

RHO_SET = (2.0, 3.0, 4.0, 5.0)
FRAME_SET = (1, 2, 3, 4, 6)
AUTOSAR_LEVEL = 2.0 ** -24
# the fewest delay bits whose alphabet is wider than every window of RHO_SET
MIN_LEVEL_BITS = int(2 * max(RHO_SET)).bit_length()


class CheckFailure(Exception):
    """--check threshold violated."""


class StageError(Exception):
    """A `run` stage failed; the message names the stage, the cause is chained."""


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


def _resolve_seed(args, config) -> int:
    """`--seed`, else the config's `[bus] seed`."""
    if args.seed is None:
        return config.seed
    if args.seed < 0:
        raise TraceFormatError(f"--seed: seed {args.seed} must be nonnegative")
    return args.seed


def _require_positive(flag: str, value: float) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        raise TraceFormatError(f"{flag} {value:g}: must be positive and finite")


def _schedule_from(args, config, seed: int) -> Schedule:
    """The `--schedule` file, else the allocator (`allocate --algorithm`, else
    `[allocator] algorithm`) with `[allocator]`'s keys when that section names
    it, else the config's offsets. A key the allocator does not take exits 3."""
    if getattr(args, "schedule", None):
        return trace_io.read_schedule(args.schedule)
    section = config.allocator
    algorithm = getattr(args, "algorithm", None) or section.get("algorithm")
    if algorithm is None:
        return Schedule(tuple(config.frame_specs()))
    if algorithm not in ALLOCATORS:
        raise TraceFormatError(f"[allocator] algorithm = {algorithm}: unknown algorithm")
    options, where = {}, f"--algorithm {algorithm}"
    if section.get("algorithm") == algorithm:
        options = {k: v for k, v in section.items() if k != "algorithm"}
        where = "[allocator] " + ", ".join(f"{k} = {v}" for k, v in section.items())
    accepted = inspect.signature(ALLOCATORS[algorithm]).parameters
    for key, value in options.items():
        if key not in accepted:
            raise TraceFormatError(f"[allocator] {key} = {value}: algorithm {algorithm} "
                                   f"does not take {key}")
    try:
        return build_schedule(config.frame_specs(), algorithm, seed=seed, **options)
    except ValueError as exc:
        raise TraceFormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------- allocate

def cmd_allocate(args) -> int:
    config = trace_io.parse_experiment_config(args.config)
    seed = _resolve_seed(args, config)
    sched = _schedule_from(args, config, seed)
    quality = schedule_quality(sched)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_io.write_schedule(sched, out / "schedule.txt")
    report = (
        "algorithm,complete,q_factor,min_ifs_ms,max_ifs_ms\n"
        f"{args.algorithm},{int(quality.complete)},{quality.q_per_ms:.4f},"
        f"{quality.min_ifs_us / 1000:.6g},{quality.max_ifs_us / 1000:.6g}\n")
    (out / "allocation_report.csv").write_text(report)
    write_manifest(out, args, seed, {"config": args.config})
    print(report, end="")
    return 0


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    config = trace_io.parse_experiment_config(args.config)
    seed = _resolve_seed(args, config)
    sched = _schedule_from(args, config, seed)
    bus = config.to_bus_config(sched, seed=seed)
    trace = bus_sim.simulate(bus)
    busload = bus_sim.busload(trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_io.export_trace(trace, out / "trace.csv")
    trace_io.write_schedule(sched, out / "schedule.txt")
    (out / "busload.txt").write_text(f"busload_percent={busload:.3f}\nframes={len(trace)}\n")
    write_manifest(out, args, seed, {"config": args.config, "schedule": args.schedule})
    print(f"{len(trace)} frames, busload {busload:.1f}%")
    return 0


# ---------------------------------------------------------------- verify

def _periods(config) -> dict:
    """Each configured ID's period: a receiver knows these, not the offsets."""
    return {f.id: f.period_us for f in config.frame_specs()}


def _trace_inputs(args, needs: str):
    """The receiver front end of `verify` and `capacity`: seed, the config's
    `[covert]`, parsed trace and its `decode`. Under `--no-compensate` the
    frames are priced (the file stores no wire times) and the decoder takes
    frame ends as arrivals."""
    config = trace_io.parse_experiment_config(args.config)
    if config.covert is None:
        raise TraceFormatError(f"{needs} needs a [covert] section")
    seed = _resolve_seed(args, config)
    trace = trace_io.parse_trace(args.trace)
    if args.no_compensate:
        trace.tx_time_us = config.wire_times_us(trace.ids, trace.id_index, trace.payloads,
                                                trace.payload_len)
    try:
        decoded = decode(trace, config.covert, _periods(config), compensate=not args.no_compensate)
    except KeyError as exc:
        raise TraceFormatError(f"{args.trace}: {exc.args[0]}") from exc
    return seed, config.covert, trace, decoded


def cmd_verify(args) -> int:
    seed, covert, trace, decoded = _trace_inputs(args, "verification")
    scored = decoded.reason != "first"
    windows = decoded.window[decoded.window >= 0]
    if not scored.any() or not windows.size:
        raise TraceFormatError(f"{args.trace}: no scored frames or no window verdict (an ID "
                               "needs two frames to be scored and frames_required="
                               f"{covert.frames_required} for a window)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_io.write_verdicts(trace, decoded, out / "verdicts.csv")
    rate = 100.0 * np.count_nonzero(decoded.accepted[scored]) / np.count_nonzero(scored)
    auth = 100.0 * np.count_nonzero(windows) / windows.size
    summary = (f"frames={len(trace)}\nscored={np.count_nonzero(scored)}\n"
               f"accept_rate_percent={rate:.4f}\n"
               f"window_auth_rate_percent={auth:.4f}\n")
    (out / "verify_summary.txt").write_text(summary)
    write_manifest(out, args, seed, {"config": args.config, "trace": args.trace})
    print(summary, end="")
    return 0


# ---------------------------------------------------------------- attack

def _write_attack(out: Path, column: str, rates, level: int) -> None:
    """Write attack.csv: one row per ((rho, frames), adversary rate) pair,
    the rate under `column`, then the paper's unclipped (2*rho/2^l)^k."""
    with open(out / "attack.csv", "w", newline="\n") as fh:
        fh.write(f"rho_us,frames,{column},adv_rate_analytic\n")
        for (rho, k), rate in rates:
            fh.write(f"{rho:g},{k},{rate:.8g},{adversary_advantage(rho, level, k):.8g}\n")


def cmd_attack(args) -> int:
    config = trace_io.parse_experiment_config(args.config)
    if config.covert is None:
        raise TraceFormatError("attack scoring needs a [covert] section")
    level = config.covert.level_bits
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
    seed = _resolve_seed(args, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rates = [((rho, k), analysis.mc_adversary_rate(rho, level, k, args.trials,
                                                   derive_seed(seed, f"attack:{rho}:{k}")))
             for rho in args.rho for k in args.frames]
    _write_attack(out, "adv_rate_mc", rates, level)
    write_manifest(out, args, seed, {"config": args.config})
    print(f"attack rates for rho={args.rho} frames={args.frames} "
          f"({args.trials} trials each) -> {out / 'attack.csv'}")
    return 0


# ---------------------------------------------------------------- capacity

def cmd_capacity(args) -> int:
    _require_positive("--tolerance", args.tolerance)
    seed, covert, trace, decoded = _trace_inputs(args, "capacity extraction")
    try:
        matrix = analysis.extract_channel_matrix(trace, decoded, covert.level_bits)
    except ValueError as exc:
        raise TraceFormatError(f"{args.trace}: {exc.args[0]}") from exc
    try:
        capacity, iterations = analysis.blahut_arimoto(matrix, tolerance=args.tolerance)
    except analysis.CapacityError as exc:
        raise TraceFormatError(f"--tolerance {args.tolerance:g}: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = (f"capacity_bits={capacity:.6f}\niterations={iterations}\n"
              f"alphabet={matrix.shape[0]}\ntolerance_bits={args.tolerance:g}\n")
    (out / "capacity_report.txt").write_text(report)
    write_manifest(out, args, seed, {"config": args.config, "trace": args.trace})
    print(report, end="")
    return 0


# ---------------------------------------------------------------- report

def _check_report_covert(covert) -> None:
    """The success table and the 2^-24 crossing need every tolerance they
    score to leave part of the delay alphabet outside its window."""
    if covert.level_bits < MIN_LEVEL_BITS:
        raise TraceFormatError(
            f"[covert] level_bits {covert.level_bits}: the success table's tolerances up to "
            f"{max(RHO_SET):g} us need level_bits >= {MIN_LEVEL_BITS}")
    if 2 * covert.tolerance_us >= covert.window_us:
        raise TraceFormatError(f"[covert] tolerance_us {covert.tolerance_us:g}: the acceptance "
                               f"window covers the whole delay alphabet (2^{covert.level_bits} us)")


def _histogram(values, width: float, what: str):
    """`analysis.histogram`; too many bins exit 3, naming `what`."""
    try:
        return analysis.histogram(values, width)
    except ValueError as exc:
        raise TraceFormatError(f"{what}: {exc}") from exc


def _report(indir: Path, out: Path, covert, bin_width: float, bus_times, errors,
            adv: dict[tuple[float, int], float]) -> None:
    """Tables and figure CSVs from the adversary rates by (rho, frames), bus
    times (None: no trace) and the scored errors as verdicts.csv holds them;
    `covert` passed `_check_report_covert`."""
    level, tolerance = covert.level_bits, covert.tolerance_us
    if errors.size == 0:
        raise TraceFormatError(f"{indir / 'verdicts.csv'}: no scored frames")
    deviations = _histogram(errors, bin_width, f"--bin-width {bin_width:g}")
    gaps = None if bus_times is None else _histogram(
        np.diff(bus_times) / 1000.0, 0.05, f"{indir / 'trace.csv'}: inter-frame gaps")
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "success_table.csv", "w", newline="\n") as fh:
        fh.write("rho_us,frames,ecu_rate,adv_rate\n")
        for rho in RHO_SET:
            p = float(np.mean(np.abs(errors) <= rho))
            for k in FRAME_SET:
                rate = adv[rho, k] if (rho, k) in adv else adversary_advantage(rho, level, k)
                fh.write(f"{rho:g},{k},{ecu_success(p, k):.8g},{rate:.8g}\n")

    crossing = None
    with open(out / "fig_adversary_success.csv", "w", newline="\n") as fh:
        fh.write(f"frames,adv_rate_rho{tolerance:g},autosar_24bit\n")
        for k in range(1, 9):
            rate = adversary_advantage(tolerance, level, k)
            if crossing is None and rate < AUTOSAR_LEVEL:
                crossing = k
            fh.write(f"{k},{rate:.8g},{AUTOSAR_LEVEL:.8g}\n")

    for name, unit, histogram in (("deviation", "us", deviations), ("interframe", "ms", gaps)):
        if histogram is not None:
            with open(out / f"fig_{name}_histogram.csv", "w", newline="\n") as fh:
                fh.write(f"bin_start_{unit},count\n")
                for s, c in zip(*histogram):
                    fh.write(f"{s:.6g},{int(c)}\n")

    capacity_src = indir / "capacity_report.txt"
    if capacity_src.exists():
        (out / "capacity_report.txt").write_text(capacity_src.read_text())

    summary = f"autosar_crossing_frames={crossing}\nscored_frames={errors.size}\n"
    (out / "report_summary.txt").write_text(summary)
    print(summary, end="")


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


def cmd_report(args) -> int:
    _require_positive("--bin-width", args.bin_width)
    config = trace_io.parse_experiment_config(args.config)
    seed = _resolve_seed(args, config)
    if config.covert is None:
        raise TraceFormatError("report needs a [covert] section")
    _check_report_covert(config.covert)
    indir = Path(args.indir)
    if Path(args.out).resolve() == indir.resolve():
        raise TraceFormatError(f"--out and --in are both {indir}: the report would replace "
                               "the manifest of the command that wrote its inputs")
    verdicts, attack, trace_path = (indir / f for f in ("verdicts.csv", "attack.csv", "trace.csv"))
    missing = [str(p) for p in (verdicts, attack) if not p.exists()]
    if missing:
        raise FileNotFoundError(f"missing report inputs: {', '.join(missing)}")
    bus_times = trace_io.parse_trace(trace_path).bus_time_us if trace_path.exists() else None
    errors = np.array([e for e in _read_csv(verdicts, 5, lambda f: float(f[3]) if f[3] else None)
                       if e is not None])  # None: an unscored frame, its error_us empty
    adv = dict(_read_csv(attack, 4, lambda f: ((float(f[0]), int(f[1])), float(f[2]))))
    _report(indir, Path(args.out), config.covert, args.bin_width, bus_times, errors, adv)
    inputs = {p.name: p for p in (verdicts, attack, trace_path, indir / "capacity_report.txt")
              if p.exists()}
    write_manifest(Path(args.out), args, seed, {"config": args.config, **inputs})
    return 0


# ---------------------------------------------------------------- run

def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def cmd_run(args) -> int:
    _require_positive("--bin-width", args.bin_width)
    out = Path(args.out)
    stage = "configure"
    try:
        config = trace_io.parse_experiment_config(args.config)
        seed = _resolve_seed(args, config)
        if config.covert is not None:
            _check_report_covert(config.covert)
        writes = []  # (stage, writer), run after the report, which refuses before it writes

        stage = "simulate" if args.schedule else "allocate"
        sched = _schedule_from(args, config, seed)
        writes.append((stage, lambda: trace_io.write_schedule(sched, out / "schedule.txt")))

        stage = "simulate"
        bus = config.to_bus_config(sched, seed=seed)
        trace = bus_sim.simulate(bus)
        writes.append((stage, lambda: trace_io.export_trace(trace, out / "trace.csv")))

        stage = "verify"
        if config.covert is not None:
            decoded = decode(trace, config.covert, _periods(config))
            writes.append((stage, lambda: trace_io.write_verdicts(trace, decoded,
                                                                  out / "verdicts.csv")))
            errors = decoded.error_us[~np.isnan(decoded.error_us)]

            stage = "attack"
            level = config.covert.level_bits
            adv = {(rho, k): analysis.exact_adversary_rate(rho, level, k)
                   for rho in RHO_SET for k in FRAME_SET}
            writes.append((stage, lambda: _write_attack(out, "adv_rate_exact", adv.items(), level)))

            stage = "report"
            _report(out, out, config.covert, args.bin_width,
                    np.rint(trace.bus_time_us * 10) / 10.0,  # the tenths of trace.csv
                    trace_io.rounded4(errors),  # as in the file
                    adv)
        out.mkdir(parents=True, exist_ok=True)
        for stage, write in writes:
            write()

        if args.check:
            stage = "check"
            _check(check_complete(sched), "allocated schedule is not collision-free")
            _check(config.covert is not None, "--check needs a covert channel to score")
            rho = config.covert.tolerance_us
            accept = float(np.mean(np.abs(errors) <= rho))
            _check(accept == 1.0,
                   f"genuine acceptance at rho={rho} is {100 * accept:.3f}% (want 100%)")
            rate = adv[5.0, 1]
            _check(abs(rate - 0.039) < 0.0011,
                   f"adversary rate at rho=5 is {100 * rate:.3f}% (want 3.9 +- 0.1)")
            ks = [k for k in range(1, 9)
                  if adversary_advantage(5.0, level, k) < AUTOSAR_LEVEL]
            _check(ks and ks[0] == 6, f"AUTOSAR crossing at k={ks[:1]} (want 6)")
        write_manifest(out, args, seed, {"config": args.config, "schedule": args.schedule})
    except CheckFailure:
        raise
    except Exception as exc:
        raise StageError(f"{stage}: {exc}") from exc
    print(f"pipeline complete -> {out}")
    return 0


# ---------------------------------------------------------------- main

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
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StageError as exc:
        if isinstance(exc.__cause__, INPUT_ERRORS):
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
