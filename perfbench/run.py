"""canto benchmark: one workload, end-to-end metrics or per-layer metrics.

Run from the root of a canto checkout:

    python3 perfbench/run.py --workload paper_run --seed 1 --seconds 24 --trace 0

It writes the workload's config (a checked-in configs/*.ini with the
seed, and for capacity_trace a longer duration, substituted) under
.perfbench/, starts the workload's set-up alone several times to time
set-up, then runs the workload in one single-threaded worker process as
a closed loop: one pass at a time, each pass gated for correctness. The
number of passes is fixed by the workload and --seconds (about
--seconds of work at reference speed), so a seed always gives the same
passes. Times are rescaled to reference speed (refspeed.py), because
the host's speed drifts by up to a factor of two.
With --trace 0 it reports pass_s, peak_rss_mb and setup_s; with
--trace 1 it reports the per-layer metrics of a traced half-run and the
tracing overhead against the untraced half. Units come from
BENCHMARK.json. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import refspeed  # noqa: E402

# (source config, [bus] keys to substitute besides the seed)
CONFIGS = {
    "paper_run": ("paper_vector.ini", {}),
    # 64000 frames of one 10 ms ID: about 250 samples per channel-matrix row
    "capacity_trace": ("capacity_scenario.ini", {"duration_us": "640000000"}),
    "allocate_table": ("paper_vector.ini", {}),
}
# (seconds per pass at reference speed, reference timings per gap): a run
# of --seconds S makes S / (seconds per pass) passes, at least MIN_PASSES
PASS_PLAN = {
    "paper_run": (0.5, 2),
    "capacity_trace": (4.0, 6),
    "allocate_table": (0.75, 2),
}
MIN_PASSES = 3
SETUP_STARTS = 9       # set-up is timed this many times per run; the median counts
RUN_LIMIT_S = 170.0    # the whole run, set-up starts included
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The checkout or a worker cannot produce a result."""


def write_config(root: Path, work: Path, workload: str, seed: int) -> Path:
    source, overrides = CONFIGS[workload]
    text = (root / "configs" / source).read_text()
    for key, value in {"seed": str(seed), **overrides}.items():
        text, n = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        if n != 1:
            raise BenchError(f"configs/{source}: expected one '{key} =' line, found {n}")
    path = work / f"{workload}.ini"
    path.write_text(text)
    return path


def start_worker(root: Path, argv: list[str], timeout: float,
                 reference: list[float]) -> tuple[float, dict]:
    """Run worker.py to completion, timing the reference computation just
    before and after it into `reference`; (its set-up time, its JSON result)."""
    env = {k: v for k, v in os.environ.items() if k != "CANTO_SEED"}
    env.update(SINGLE_THREAD, PYTHONPATH=str(root / "src"))
    reference.append(refspeed.reference_once())
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=root,
                              env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker still running after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    reference.append(refspeed.reference_once())
    return result["ready"] - started, result


def source_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "canto").rglob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "canto" / "__init__.py").is_file() \
            or not (root / "configs").is_dir():
        print("error: run from the root of a canto checkout (src/canto and configs/ "
              "not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    try:
        config = write_config(root, work, args.workload, args.seed)
        common = ["--workload", args.workload, "--config", str(config), "--work", str(work)]
        setups, setup_reference = [], []
        for _ in range(SETUP_STARTS - 1):
            setup, _ = start_worker(root, common + ["--setup-only"], 60.0, setup_reference)
            setups.append(setup)
        pass_s, ref_repeats = PASS_PLAN[args.workload]
        passes = max(MIN_PASSES, round(args.seconds / pass_s))
        budget = RUN_LIMIT_S - (time.monotonic() - t_start)
        setup, res = start_worker(
            root, common + ["--passes", str(passes), "--ref-repeats", str(ref_repeats),
                            "--trace", str(args.trace)], budget, setup_reference)
        setups.append(setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    wall = res["pass_s"]
    pass_s = refspeed.at_reference_speed(statistics.mean(wall), res["reference_s"])
    if args.trace:
        values = res["layers"]
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(res["spans"], indent=1) + "\n")
    else:
        values = {"pass_s": pass_s,
                  "peak_rss_mb": res["maxrss_kb"] / 1024.0,
                  # starting a process is partly kernel work, which the
                  # host's busy phases slow less than canto's passes
                  "setup_s": refspeed.at_reference_speed(statistics.median(setups),
                                                         setup_reference, power=1.0)}
    # the allocator metrics of allocate_table are measured, but that
    # workload is not in BENCHMARK.json; they are printed, not reported
    unlisted = {name: values[name] for name in sorted(set(values) - set(units))}
    if unlisted and not args.trace:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unlisted)}",
              file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one worker process, "
          f"one pass at a time, {len(wall)} timed passes")
    q1, q2, q3 = quartiles(wall)
    print(f"  wall_s       {q2:.4f} s  (as measured; median; quartiles {q1:.4f} .. {q3:.4f}; "
          f"mean {statistics.mean(wall):.4f}; n={len(wall)})")
    print(f"  pass_s       {pass_s:.4f} s  (mean at reference speed; the reference "
          f"computation took {statistics.mean(res['reference_s']):.4f} s on average, "
          f"{refspeed.REFERENCE_S} s at reference speed; power "
          f"{refspeed.SLOWDOWN_POWER})")
    if not args.trace:
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        print(f"  setup_s      {values['setup_s']:.4f} s  (median of {len(setups)} starts, "
              f"{statistics.median(setups):.4f} s as measured, at reference speed)")
    print(f"  fail_ratio   {failed / attempted:.4f}  ({failed} of {attempted} passes failed)")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    if unlisted:
        print("unlisted " + json.dumps(unlisted))
    if res.get("absent"):
        print(f"  absent (binding gone): {', '.join(res['absent'])}")
    print("record " + json.dumps({"digests": res["digests"], "results": res["record"]},
                                 sort_keys=True))
    print("env " + json.dumps({
        "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": os.cpu_count(), "cpu_pinning": "none",
        "loadavg_before": load_before, "loadavg_after": load_after,
        "src_canto_lines": source_lines(root)}))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in wanted if name in values}
    print(json.dumps({"correct": not res["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
