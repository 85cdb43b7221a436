"""The three benchmark workloads: one timed pass each, and its gate.

A workload is built from generated config files (setup), runs one pass
at a time through canto's CLI or public API, and afterwards checks the
pass's outputs and digests them. A pass is a list of steps (one per
CLI command), each a call that returns an exit code; the runner times
the host's speed between steps. Calls go through module attributes
(cli.main, scheduler.build_schedule) so the tracer's rebinding sees them.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from pathlib import Path

from canto import cli, scheduler, trace_io

from tracer import ALLOCATOR_NAMES

# q (1/ms) of the deterministic allocators on configs/paper_vector.ini
# (ifs_us = 600), as computed by the seed commit of canto.
SEED_Q_PER_MS = {
    "binary": 2.314782608695652,
    "greedy": 2.171497584541063,
    "greedy-ml": 1.5227053140096618,
    "gcd": 1.5748321726582597,
}
CAPACITY_BAND = (4.9, 0.3)  # acceptance criterion 5, bits per frame
MC_SIGMAS = 5.0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _key_values(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().split())


def verdict_counts(path: Path) -> Counter:
    """Verifier verdicts by reason, read back from verdicts.csv."""
    counts = Counter()
    with open(path) as fh:
        next(fh)
        for line in fh:
            error, word = line.rstrip("\n").split(",")[3:]
            if word == "accept":
                counts["accept" if error else "first"] += 1
            else:
                counts["timing" if error else "replay"] += 1
    return counts


def mc_window_rate(rho: float, level_bits: int, frames: int) -> float:
    """Exact pass rate of analysis.mc_adversary_rate's trial: xi uniform over
    the integers below 2^l, the guess uniform over [0, 2^l), so the
    acceptance interval is clipped at both ends of the window."""
    window = 1 << level_bits
    covered = sum(min(xi + rho, window) - max(xi - rho, 0) for xi in range(window))
    return (covered / window / window) ** frames


def expected_frames(schedule_path: Path, duration_us: float) -> int:
    """Releases k*period + offset below the duration, summed over IDs."""
    return sum(math.ceil((duration_us - f.offset_us) / f.period_us)
               for f in trace_io.read_schedule(schedule_path).frames)


class PaperRun:
    """`canto run --check` on the paper's 40-ID vector."""

    simulates = True
    # `--check` exits 1 on a threshold miss; the outputs are then still
    # written and judged below, while the pass counts as failed.
    judged_exits = (0, 1)
    trials = 200_000  # `canto run` default

    def __init__(self, work: Path, config: Path):
        self.config_path = config
        self.config = trace_io.parse_experiment_config(config)
        self.out = work / "paper_run"

    def steps(self) -> list:
        return [lambda: cli.main(["run", "--config", str(self.config_path),
                                  "--out", str(self.out), "--check"])]

    def digests(self) -> dict[str, str]:
        return {name: _digest(self.out / name)
                for name in ("trace.csv", "verdicts.csv", "schedule.txt", "attack.csv")}

    def check(self) -> list[str]:
        problems = []
        schedule = self.out / "schedule.txt"
        if not scheduler.check_complete(trace_io.read_schedule(schedule)):
            problems.append("allocated schedule has coincident timestamps")
        frames = _rows(self.out / "trace.csv")
        want = expected_frames(schedule, self.config.duration_us)
        if frames != want:
            problems.append(f"trace has {frames} frames, config releases {want}")
        verdicts = verdict_counts(self.out / "verdicts.csv")
        if verdicts["timing"] or verdicts["replay"] or sum(verdicts.values()) != frames:
            problems.append(f"genuine frames not all accepted: {dict(verdicts)}")
        problems += self._check_attack()
        summary = _key_values(self.out / "report_summary.txt")
        if summary.get("autosar_crossing_frames") != "6":
            problems.append(f"AUTOSAR crossing {summary.get('autosar_crossing_frames')} != 6")
        return problems

    def _check_attack(self) -> list[str]:
        level = self.config.covert.level_bits
        problems = []
        rows = (self.out / "attack.csv").read_text().split()[1:]
        if len(rows) != len(cli.RHO_SET) * len(cli.FRAME_SET):
            problems.append(f"attack.csv has {len(rows)} rows")
        for row in rows:
            rho, k, mc, analytic = (float(x) for x in row.split(","))
            want = (2 * rho / (1 << level)) ** k
            if not math.isclose(analytic, want, rel_tol=1e-6):
                problems.append(f"analytic rate at rho={rho:g} k={k:g} is {analytic}, "
                                f"want {want}")
            # the program's own --check band is about 2.5 sigma; this gate
            # judges the Monte Carlo output with a binomial 5-sigma band
            p = mc_window_rate(rho, level, int(k))
            sigma = math.sqrt(p * (1 - p) / self.trials)
            if abs(mc - p) > MC_SIGMAS * sigma + 1.0 / self.trials:
                problems.append(f"Monte Carlo rate at rho={rho:g} k={k:g} is {mc}, "
                                f"beyond {MC_SIGMAS:g} sigma of {p:.6g}")
        return problems

    def record(self) -> dict:
        return {"frames": _rows(self.out / "trace.csv"),
                "verdicts": dict(verdict_counts(self.out / "verdicts.csv"))}


class CapacityTrace:
    """`canto simulate`, `canto verify`, `canto capacity` on one long trace."""

    simulates = True
    judged_exits = (0,)

    def __init__(self, work: Path, config: Path):
        self.config_path = config
        self.config = trace_io.parse_experiment_config(config)
        self.out = work / "capacity_trace"

    def steps(self) -> list:
        config, out = str(self.config_path), str(self.out)
        trace = str(self.out / "trace.csv")
        return [lambda argv=argv: cli.main(argv) for argv in (
            ["simulate", "--config", config, "--out", out],
            ["verify", "--config", config, "--trace", trace, "--out", out],
            ["capacity", "--config", config, "--trace", trace, "--out", out])]

    def digests(self) -> dict[str, str]:
        return {name: _digest(self.out / name) for name in
                ("trace.csv", "verdicts.csv", "schedule.txt", "capacity_report.txt")}

    def check(self) -> list[str]:
        problems = []
        frames = _rows(self.out / "trace.csv")
        want = expected_frames(self.out / "schedule.txt", self.config.duration_us)
        if frames != want:
            problems.append(f"trace has {frames} frames, config releases {want}")
        verdicts = verdict_counts(self.out / "verdicts.csv")
        if verdicts["timing"] or verdicts["replay"] or sum(verdicts.values()) != frames:
            problems.append(f"verify did not accept every frame: {dict(verdicts)}")
        report = _key_values(self.out / "capacity_report.txt")
        centre, width = CAPACITY_BAND
        if abs(float(report["capacity_bits"]) - centre) > width:
            problems.append(f"capacity {report['capacity_bits']} bits outside "
                            f"{centre} +- {width}")
        return problems

    def record(self) -> dict:
        report = _key_values(self.out / "capacity_report.txt")
        busload = _key_values(self.out / "busload.txt")
        return {"frames": int(busload["frames"]),
                "busload_pct": float(busload["busload_percent"]),
                "verdicts": dict(verdict_counts(self.out / "verdicts.csv")),
                "capacity_bits": float(report["capacity_bits"]),
                "ba_iterations": int(report["iterations"])}


class AllocateTable:
    """build_schedule and schedule_quality for all five allocators."""

    simulates = False
    judged_exits = (0,)

    def __init__(self, work: Path, config: Path):
        self.config = trace_io.parse_experiment_config(config)
        self.specs = self.config.frame_specs()
        self.ifs_us = self.config.allocator["ifs_us"]
        self.schedules = {}
        self.quality = {}

    def steps(self) -> list:
        return [self._allocate_all]

    def _allocate_all(self) -> int:
        for alg in ALLOCATOR_NAMES:
            sched = scheduler.build_schedule(self.specs, alg, ifs_us=self.ifs_us,
                                             seed=self.config.seed)
            self.schedules[alg] = sched
            self.quality[alg] = scheduler.schedule_quality(sched)
        return 0

    def digests(self) -> dict[str, str]:
        return {f"offsets.{alg}": hashlib.sha256(
                    repr([f.offset_us for f in sched.frames]).encode()).hexdigest()[:16]
                for alg, sched in self.schedules.items()}

    def check(self) -> list[str]:
        problems = [f"{alg} schedule is incomplete"
                    for alg, q in self.quality.items() if not q.complete]
        for alg, want in SEED_Q_PER_MS.items():
            got = self.quality[alg].q_per_ms
            if not math.isclose(got, want, rel_tol=1e-12):
                problems.append(f"{alg} q={got!r} 1/ms, seed commit gives {want!r}")
        return problems

    def record(self) -> dict:
        return {"q_per_ms": {alg: q.q_per_ms for alg, q in self.quality.items()}}


WORKLOADS = {"paper_run": PaperRun, "capacity_trace": CapacityTrace,
             "allocate_table": AllocateTable}
