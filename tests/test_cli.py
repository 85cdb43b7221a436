"""CLI subcommands, exit codes, and pipeline determinism."""

import argparse
import hashlib
import json
import math
import re
import shlex
import warnings
from decimal import Decimal
from pathlib import Path

import pytest

from canto import bus_sim, cli, incanta, scheduler
from canto.cli import COMMANDS, FRAME_SET, RHO_SET, build_parser, main
from canto.frame_model import CanId
from canto.scheduler import ALLOCATORS
from canto.trace_io import TRACE_HEADER, VERDICT_HEADER

ROOT = Path(__file__).resolve().parent.parent
PAPER = "configs/paper_vector.ini"
CAPACITY = "configs/capacity_scenario.ini"

SMALL = """
[bus]
bitrate = 500000
duration_us = 400000
seed = 3

[covert]
key_hex = 000102030405060708090A0B0C0D0E0F
level_bits = 8
tolerance_us = 5
frames_required = 6

[allocator]
algorithm = gcd
ifs_us = 600

[node.one]
jitter = steps
frames = 0x100:10000:8 0x101:10000:8 0x102:20000:8
"""


CAPACITY_SCENARIO = """
[bus]
bitrate = 500000
duration_us = 400000000
seed = 5
stuffing = none

[covert]
key_hex = 000102030405060708090A0B0C0D0E0F

[node.sender]
jitter = uniform:2.5
frames = 0x100:10000:8
"""


OVERSUBSCRIBED = """
[bus]
bitrate = 10000
duration_us = 20000

[node.a]
frames = 0x10:1000:8 0x11:1000:8 0x12:1000:8
"""

# six periods whose lcm, about 1.0e29 us, holds about 6e25 instants: numpy refuses
# to list them without allocating, so no case that reads this comes near memory
LONG_HYPERPERIOD = """
[bus]
duration_us = 40000

[node.one]
frames = 0x100:10000.1:8 0x101:10000.3:8 0x102:10000.7:8 0x103:10000.9:8 0x104:10001.1:8
    0x105:10001.3:8
"""


# 10000.1 and 10000.3 us are 1000010 and 1000030 ticks of 10 ns, with a gcd of 10 ticks
ODD_PAIR = """
[bus]
duration_us = 200000

[node.a]
frames = 0x100:10000.1:8 0x101:10000.3:8
"""

# 6e18 and 9e18 ticks fit int64, but their lcm of 1.8e19 ticks does not
PAIR_PAST_INT64 = """
[bus]
duration_us = 2e17

[node.a]
frames = 0x100:60000000000000000:8 0x101:90000000000000000:8
"""


def primes_above(n: int, count: int) -> list[int]:
    found = []
    while len(found) < count:
        n += 1
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            found.append(n)
    return found


# 64 periods, the first 64 primes above 100000 tenths of a us: their lcm, about
# 1e320 tenths, is past the largest float
PRIMES_64 = primes_above(100000, 64)
HYPERPERIOD_64 = "[bus]\nduration_us = 40000\n\n[node.one]\nframes = " + " ".join(
    f"0x{0x100 + k:X}:{p / 10}:8" for k, p in enumerate(PRIMES_64)) + "\n"
LCM_64 = format(Decimal(math.prod(PRIMES_64)) / 10, ".15g")


def small(old, new):
    assert old in SMALL
    return SMALL.replace(old, new)


def allocator(keys):
    """SMALL with `keys` as its [allocator] section."""
    return small("algorithm = gcd\nifs_us = 600", keys)


NO_COVERT = small("[covert]\nkey_hex = 000102030405060708090A0B0C0D0E0F\nlevel_bits = 8\n"
                  "tolerance_us = 5\nframes_required = 6\n\n", "")
# a [covert] section for a config that has none
COVERT = "[covert]\nkey_hex = 000102030405060708090A0B0C0D0E0F\n\n"
LEVEL_BITS_3 = small("level_bits = 8", "level_bits = 3").replace("tolerance_us = 5",
                                                                 "tolerance_us = 1")


# malformed or degenerate input, by name: (global options and command, config
# text, files by flag, more arguments, what the exit-3 message must name)
MALFORMED = {
    "duration-short": ("simulate", small("400000", "15000"), {}, [],
                       "[bus]: duration_us 15000"),
    "duration-inf": ("simulate", small("400000", "inf"), {}, [], "[bus]: duration_us inf"),
    # about 10^21 releases of one 10 ms frame: numpy refuses them without allocating
    "duration-1e25": ("simulate", CAPACITY_SCENARIO.replace("400000000", "1e25"), {}, [],
                      "[bus]: duration_us 1e+25 releases 1e+21 frames, over 16777216"),
    "covert-2-byte-payload": ("simulate", small("0x102:20000:8", "0x102:20000:2"), {}, [],
                              "[node.one]: frames"),
    "period-0.05": ("simulate", small("0x102:20000:8", "0x102:0.05:8"), {}, [],
                    "[node.one] frames 0x102:0.05:8"),
    "period-off-grid": ("simulate", small("0x102:20000:8", "0x102:10000.05:8"), {}, [],
                        "[node.one] frames 0x102:10000.05:8"),
    "skew-nan": ("simulate", small("jitter = steps", "skew_ppm = nan"), {}, [],
                 "[node.one]: skew"),
    "jitter-inf": ("simulate", small("jitter = steps", "jitter = uniform:inf"), {}, [],
                   "[node.one] jitter"),
    "jitter-none-arg": ("simulate", small("jitter = steps", "jitter = none:3"), {}, [],
                        "[node.one] jitter: unknown jitter spec 'none:3'"),
    "bitrate-0": ("simulate", small("bitrate = 500000", "bitrate = 0"), {}, [],
                  "[bus]: bitrate"),
    "seed-negative": ("simulate", small("seed = 3", "seed = -1"), {}, [], "[bus]: seed"),
    "tolerance-nan": ("simulate", small("tolerance_us = 5", "tolerance_us = nan"), {}, [],
                      "[covert]: tolerance"),
    "no-section-header": ("simulate", "duration_us = 5\n" + SMALL, {}, [],
                          "bad.ini', line: 1"),
    "unknown-algorithm": ("simulate", small("algorithm = gcd", "algorithm = magic"), {}, [],
                          "[allocator] algorithm = magic"),
    "oversubscribed": ("simulate", OVERSUBSCRIBED, {}, [], "busload 3330%"),
    "schedule-missing-ids": ("simulate", SMALL, {"--schedule": "100 10000 0 64\n"}, [],
                             "['101', '102']"),
    # on a 5 ms grid a 10 ms and a 15 ms period meet at 20 or 15 ms, whichever the order
    "random-no-permutation": ("allocate", small("0x100:10000:8 0x101:10000:8 0x102:20000:8",
                                                "0x100:10000:8 0x101:15000:8"),
                              {}, ["--algorithm", "random"],
                              "--algorithm random: no random permutation was collision-free"),
    "no-bus-section": ("simulate", "[node.a]\nframes = 0x100:10000:8\n", {}, [],
                       "missing [bus] section"),
    "frame-period-abc": ("simulate", "[bus]\nduration_us = 40000\n\n[node.a]\n"
                                     "frames = 0x100:10000:8 0x101:abc:8\n", {}, [],
                         "[node.a]: bad frame spec '0x101:abc:8'"),
    # a config id is read by CanId.parse, as trace and schedule ids are
    "frame-id-0xG1": ("simulate", "[bus]\nduration_us = 40000\n\n[node.a]\n"
                                  "frames = 0xG1:10000:8\n", {}, [],
                      "[node.a] frames 0xG1:10000:8: CAN id '0xG1' is not hex digits"),
    "gcd-ifs": ("allocate", small("ifs_us = 600", "ifs_us = 5000"), {}, ["--algorithm", "gcd"],
                "[allocator] algorithm = gcd, ifs_us = 5000"),
    "greedy-ml-grid": ("allocate", allocator("algorithm = greedy-ml\ngrid_step_us = 0.05"), {},
                       ["--algorithm", "greedy-ml"], "grid_step_us = 0.05: grid step must sit"),
    "allocator-ifs": ("run", small("ifs_us = 600", "ifs_us = 15000"), {}, [],
                      "[allocator] algorithm = gcd, ifs_us = 15000"),
    # 2*10^10 columns of 0.1 us: refused before the matrix is allocated
    "gcd-matrix-huge": ("allocate", small("0x100:10000:8 0x101:10000:8",
                                          "0x100:9999.9:8 0x101:10000:8"),
                        {}, ["--algorithm", "gcd"],
                        "lcm 1999980000 us is 19999800000 times their gcd 0.1 us"),
    "gcd-ifs-inf": ("allocate", small("ifs_us = 600", "ifs_us = inf"), {}, ["--algorithm", "gcd"],
                    "ifs_us = inf: minimum spacing must be positive and finite"),
    "gcd-ifs-nan": ("allocate", small("ifs_us = 600", "ifs_us = nan"), {}, ["--algorithm", "gcd"],
                    "ifs_us = nan: minimum spacing must be positive and finite"),
    "greedy-ml-grid-inf": ("allocate", allocator("algorithm = greedy-ml\ngrid_step_us = inf"), {},
                           ["--algorithm", "greedy-ml"],
                           "grid_step_us = inf: grid step must be positive and finite"),
    "greedy-ml-grid-nan": ("allocate", allocator("algorithm = greedy-ml\ngrid_step_us = nan"), {},
                           ["--algorithm", "greedy-ml"],
                           "grid_step_us = nan: grid step must be positive and finite"),
    "gcd-takes-no-grid": ("allocate", small("ifs_us = 600", "ifs_us = 600\ngrid_step_us = nan"),
                          {}, ["--algorithm", "gcd"],
                          "[allocator] grid_step_us = nan: algorithm gcd does not take "
                          "grid_step_us"),
    "binary-takes-no-ifs": ("allocate", allocator("algorithm = binary\nifs_us = -5"), {},
                            ["--algorithm", "binary"],
                            "[allocator] ifs_us = -5.0: algorithm binary does not take ifs_us"),
    # streams that meet only past int64 ticks: the allocators that list instants refuse them
    **{f"past-int64-allocate-{alg}": ("allocate", PAIR_PAST_INT64, {}, ["--algorithm", alg],
                                      f"--algorithm {alg}: {refusal}")
       for alg, refusal in (("greedy", "no collision-free offset for period 9e+16"),
                            ("random", "no random permutation was collision-free"),
                            ("greedy-ml", "no collision-free offset for period 9e+16"))},
    # the lcm prints as '.15g' prints the float that holds it, not padded to 15 digits
    "past-int64-allocate-gcd": ("allocate", PAIR_PAST_INT64, {}, ["--algorithm", "gcd"],
                                "the periods' lcm 1.8e+17 us is 6 times their gcd 3e+16 us"),
    "allocator-ifs-inf": ("simulate", small("ifs_us = 600", "ifs_us = inf"), {}, [],
                          "ifs_us = inf: minimum spacing must be positive and finite"),
    # a spacing under 0.05 us rounds to no tenths of a us
    "gcd-ifs-0.04": ("allocate", small("ifs_us = 600", "ifs_us = 0.04"), {},
                     ["--algorithm", "gcd"], "ifs_us = 0.04: minimum spacing 0.04 us rounds to 0"),
    "allocator-ifs-0.04": ("run", small("ifs_us = 600", "ifs_us = 0.04"), {}, [],
                           "ifs_us = 0.04: minimum spacing 0.04 us rounds to 0"),
    # an [allocator] key the section's algorithm does not take
    "binary-takes-no-ifs_us": ("run", small("algorithm = gcd", "algorithm = binary"), {}, [],
                               "[allocator] ifs_us = 600"),
    "greedy-ml-takes-no-iterations": ("simulate",
                                      allocator("algorithm = greedy-ml\niterations = 7"), {}, [],
                                      "[allocator] iterations = 7"),
    # the run seed has one override, `--seed`, which the manifest records
    "gcd-takes-no-seed": ("simulate", small("ifs_us = 600", "ifs_us = 600\nseed = 9"), {}, [],
                          "[allocator]: unknown keys ['seed']"),
    "counter-2^64+1": ("verify", SMALL, {"--trace": TRACE_HEADER
                                         + "\n1000000,100,1,2021222300000001,1\n"
                                         + f"2000000,100,{2**64 + 1},2021222300000002,1\n"},
                       [], "line 3: counter"),
    "capacity-level-bits-20": ("capacity", small("level_bits = 8", "level_bits = 20"),
                               {"--trace": TRACE_HEADER + "\n1000000,100,1,2021222300000001,1\n"
                                + "2000000,100,2,2021222300000002,1\n"},
                               [], "trace too short"),
    "payload-9-bytes": ("verify", SMALL, {"--trace": TRACE_HEADER
                                          + "\n1000000,100,1,202122230000000101,1\n"},
                        [], "line 2: payload"),
    # ticks past int64 made the releases an object array, which the trace writer refused
    "tick-ns-10^20": ("simulate", small("jitter = steps", "tick_ns = 100000000000000000000"),
                      {}, [], "[node.one]: tick_ns 100000000000000000000 must be 1..2^63-1"),
    # a start past about 9.22e16 us wraps as int64 ticks of 10 ns; from 2^53 ticks
    # a start may leave the tick grid in float64
    **{f"{command}-{name}": (command, COVERT + config if command == "run" else config, {}, [],
                             "a frame starts past 9.007e+13 us, 2^53 ticks of 10 ns")
       for name, config in (("start-1e18", "[bus]\nduration_us = 2e18\n\n[node.a]\n"
                                           "frames = 0x100:1000000000000000000:8\n"),
                            ("jitter-1e300", "[bus]\nduration_us = 100000\n\n[node.a]\n"
                                             "jitter = uniform:1e300\nframes = 0x100:10000:8\n"))
       for command in ("simulate", "run")},
    # at 1e17 us a float64 start is 16 us coarse: the covert delays were lost in trace.csv
    "simulate-start-1e17-covert": ("simulate", "[bus]\nduration_us = 4e17\n\n" + COVERT
                                   + "[node.a]\nframes = 0x100:100000000000000000:8\n", {}, [],
                                   "a frame starts past 9.007e+13 us, 2^53 ticks of 10 ns"),
    "verify-time-2^53": ("verify", SMALL, {"--trace": f"{TRACE_HEADER}\n1000000,100,1,00,1\n"
                                           f"{2**53},100,2,00,1\n"},
                         [], f"trace: line 3: bus_time_10ns {2**53}: at or past 2^53 ticks"),
    "seed-flag-negative": ("--seed -1 simulate", SMALL, {}, [], "--seed: seed -1"),
    "schedule-other-period": ("simulate", SMALL,
                              {"--schedule": "100 20000 0 64\n101 10000 0 64\n102 20000 0 64\n"},
                              [], "schedule gives id 100 period 20000 us"),
    "schedule-other-payload": ("simulate", SMALL,
                               {"--schedule": "100 10000 0 64\n101 10000 0 32\n102 20000 0 64\n"},
                               [], "schedule gives id 101 period 10000 us and 32 payload bits"),
    # a schedule file that lists an ID twice, or an ID the config lacks
    "schedule-repeated-id": ("simulate", SMALL, {"--schedule": "100 10000 5000 64\n"
                                                 "101 10000 0 64\n100 10000 0 64\n"
                                                 "102 20000 0 64\n"},
                             [], "schedule: line 3: id 100 is also on line 1"),
    "run-schedule-repeated-id": ("run", SMALL, {"--schedule": "100 10000 0 64\n"
                                                "101 10000 0 64\n102 20000 0 64\n"
                                                "# again\n101 10000 5000 64\n"},
                                 [], "schedule: line 5: id 101 is also on line 2"),
    "schedule-unknown-id": ("simulate", SMALL, {"--schedule": "100 10000 0 64\n"
                                                "101 10000 0 64\n102 20000 0 64\n"
                                                "7FF 10000 0 64\n"},
                            [], "schedule gives ids ['7FF'] that the config lacks"),
    "run-schedule-unknown-ids": ("run", SMALL, {"--schedule": "100 10000 0 64\n"
                                                "101 10000 0 64\n102 20000 0 64\n"
                                                "7FF 10000 0 64\n1FFFFFFF 10000 0 64\n"},
                                 ["--check"], "ids ['1FFFFFFF', '7FF'] that the config lacks"),
    "attack-rho-whole-alphabet": ("attack", SMALL, {}, ["--rho", "200"], "--rho 200"),
    "attack-rho-negative": ("attack", SMALL, {}, ["--rho", "-1"], "--rho -1"),
    "attack-frames-0": ("attack", SMALL, {}, ["--frames", "0"], "--frames 0"),
    "attack-trials-0": ("attack", SMALL, {}, ["--trials", "0"], "--trials 0"),
    # a repeated value wrote a repeated attack.csv row, which report refused
    "attack-rho-repeated": ("attack", SMALL, {}, ["--rho", "5", "5.0", "--trials", "10"],
                            "--rho 5: given more than once"),
    "attack-frames-repeated": ("attack", SMALL, {}, ["--frames", "1", "2", "1", "--trials", "10"],
                               "--frames 1: given more than once"),
    # past 4 000 000 frames a Monte Carlo chunk is one trial, an array as wide as a window
    "attack-frames-4000001": ("attack", SMALL, {}, ["--frames", "4000001", "--trials", "1"],
                              "--frames 4000001: must be <= 4000000"),
    "attack-frames-2^62": ("attack", SMALL, {}, ["--frames", str(2**62), "--trials", "1"],
                           f"--frames {2**62}"),
    # every allocator enumerates one hyperperiod (simulate and run do not: see
    # test_long_hyperperiod_is_simulated)
    **{f"{name}-allocate-{alg}": ("allocate", config, {}, ["--algorithm", alg],
                                  f"lcm {lcm} us" if alg == "gcd" else f"lcm is {lcm} us")
       for name, config, lcm in (("hyperperiod", LONG_HYPERPERIOD, "1.00044007530628e+29"),
                                 ("hyperperiod-64", HYPERPERIOD_64, LCM_64))
       for alg in sorted(ALLOCATORS)},
    # periods past 2^63 tenths of a us: the collision test stays exact, so the start is refused
    "simulate-periods-1e18": ("simulate", "[bus]\nduration_us = 4e18\n\n[node.a]\nframes = "
                              "0x100:1000000000000000000:8 0x101:2000000000000000000:8\n", {}, [],
                              "a frame starts past 9.007e+13 us, 2^53 ticks of 10 ns"),
    # int() syntax that is not an id: digit separators, signs, a sign after 0x
    **{f"verify-id-{text}": ("verify", SMALL, {"--trace": f"{TRACE_HEADER}\n1000000,100,1,00,1\n"
                                               f"1100000,{text},2,00,1\n"},
                             [], f"trace: line 3: CAN id '{text}' is not hex digits")
       for text in ("1_00", "+100", "-0", "0x+1")},
    "schedule-id-1_00": ("simulate", SMALL, {"--schedule": "1_00 10000 0 64\n101 10000 0 64\n"
                                             "102 20000 0 64\n"},
                         [], "schedule: line 1: CAN id '1_00' is not hex digits"),
    "report-tolerance-whole-alphabet": ("run", small("tolerance_us = 5", "tolerance_us = 128"),
                                        {}, [], "[covert] tolerance_us 128"),
    # the success table scores tolerances up to 5 us, which need 2^4 delay levels
    "run-level-bits-3": ("run", LEVEL_BITS_3, {}, [], "[covert] level_bits 3"),
    "report-level-bits-3": ("report", LEVEL_BITS_3, {"--in": ""}, [], "level_bits >= 4"),
    "run-bin-width-0": ("run", SMALL, {}, ["--bin-width", "0"], "--bin-width 0"),
    "run-bin-width-nan": ("run", SMALL, {}, ["--bin-width", "nan"], "--bin-width nan"),
    "report-bin-width-0": ("report", SMALL, {"--in": ""}, ["--bin-width", "0"],
                           "--bin-width 0"),
    "report-bin-width-nan": ("report", SMALL, {"--in": ""}, ["--bin-width", "nan"],
                             "--bin-width nan"),
    # about 10^301 bins of the deviation histogram, refused before any is counted
    "run-bin-width-1e-300": ("run", SMALL, {}, ["--bin-width", "1e-300"],
                             "report: --bin-width 1e-300: "),
    # each standalone command that reads [covert] refuses a config without one,
    # before it looks at --seed
    **{f"{command}-no-covert{suffix}": (seed + command, NO_COVERT, files, [],
                                        f"{needs} needs a [covert] section")
       for command, files, needs in (("verify", {"--trace": TRACE_HEADER + "\n"}, "verification"),
                                     ("attack", {}, "attack scoring"),
                                     ("capacity", {"--trace": TRACE_HEADER + "\n"},
                                      "capacity extraction"),
                                     ("report", {"--in": ""}, "report"))
       for suffix, seed in (("", ""), ("-seed-negative", "--seed -1 "))},
    # a window of more frames than a bus releases never fills: refused as the config is read
    **{f"{command}-frames-required-{name}": (
        command, small("frames_required = 6", f"frames_required = {value}"),
        {"--trace": TRACE_HEADER + "\n"}, [], "[covert]: frames_required must be 1..16777216")
       for command, name, value in (("verify", "2^63", 2**63), ("capacity", "2^63", 2**63),
                                    ("verify", "2^24+1", scheduler.MAX_INSTANTS + 1))},
    "run-no-covert": ("run", NO_COVERT, {}, [],
                      "error: configure: run needs a [covert] section\n"),
    "covert-node-no-covert": ("simulate", NO_COVERT.replace("jitter", "covert = true\njitter"),
                              {}, [], "[bus]: node one uses the covert channel"),
    "verify-rho-nan": ("verify", small("tolerance_us = 5", "tolerance_us = nan"),
                       {"--trace": TRACE_HEADER + "\n"}, [],
                       "[covert]: tolerance must be nonnegative"),
    "capacity-tolerance-0": ("capacity", SMALL, {"--trace": TRACE_HEADER + "\n"},
                             ["--tolerance", "0"], "--tolerance 0"),
    "capacity-tolerance-negative": ("capacity", SMALL, {"--trace": TRACE_HEADER + "\n"},
                                    ["--tolerance", "-1"], "--tolerance -1"),
    "capacity-tolerance-nan": ("capacity", SMALL, {"--trace": TRACE_HEADER + "\n"},
                               ["--tolerance", "nan"], "--tolerance nan"),
    # a genuine flag other than 0 or 1 was read as genuine
    **{f"verify-genuine-{flag}": (
        "verify", SMALL,
        {"--trace": f"{TRACE_HEADER}\n1000000,100,1,00,1\n1100000,100,2,00,{flag}\n"},
        [], f"trace: line 3: genuine {flag} is not 0 or 1") for flag in ("7", "-1")},
    "capacity-genuine-7": ("capacity", SMALL, {"--trace": f"{TRACE_HEADER}\n1000000,100,1,00,1\n"
                                               "1100000,100,2,00,7\n"},
                           [], "trace: line 3: genuine 7 is not 0 or 1"),
    # attack's flags are its first stage, checked once the seed is resolved
    "attack-rho-negative-seed-negative": ("--seed -1 attack", SMALL, {}, ["--rho", "-1"],
                                          "error: --seed: seed -1 must be nonnegative\n"),
    # an [allocator] section that no command may run, refused as the config is parsed:
    # every command, allocating or not, prints this whole message (`run` at its first stage)
    **{f"{command}-{name}": (command, config, files, extra,
                             f"error: {'configure: ' if command == 'run' else ''}{message}\n")
       for name, config, message in (
           ("algorithm-foo", small("algorithm = gcd", "algorithm = foo"),
            "[allocator] algorithm = foo: unknown algorithm"),
           ("gcd-takes-no-iterations", small("ifs_us = 600", "ifs_us = 600\niterations = 5"),
            "[allocator] iterations = 5: algorithm gcd does not take iterations"))
       for command, files, extra in (
           ("simulate", {}, []), ("allocate", {}, ["--algorithm", "random"]),
           ("verify", {"--trace": TRACE_HEADER + "\n"}, []),
           ("capacity", {"--trace": TRACE_HEADER + "\n"}, []),
           ("attack", {}, ["--trials", "10"]), ("report", {"--in": ""}, []), ("run", {}, []))},
}


# a run directory's inputs to `report`; a MALFORMED_REPORT case adds or replaces one
REPORT_INPUTS = {
    "verdicts.csv": VERDICT_HEADER + "\n1000000,100,1,,accept\n1100050,100,2,0.5000,accept\n"
                    "1199970,100,3,-0.2500,accept\n",
    "attack.csv": "rho_us,frames,adv_rate_exact,adv_rate_analytic\n5,1,0.0386,0.0390625\n",
}
# by name: (file, its text, more arguments, what the exit-3 message must name)
MALFORMED_REPORT = {
    "verdicts-one-field": ("verdicts.csv", VERDICT_HEADER + "\nabc\n", [],
                           "verdicts.csv: line 2: expected 5 fields, got 1"),
    "verdicts-error-zz": ("verdicts.csv", VERDICT_HEADER + "\n1000000,100,1,zz,accept\n", [],
                          "verdicts.csv: line 2: could not convert string to float: 'zz'"),
    "attack-two-fields": ("attack.csv", "rho_us,frames,adv_rate_exact,adv_rate_analytic\n5,1\n",
                          [], "attack.csv: line 2: expected 4 fields, got 2"),
    "attack-empty": ("attack.csv", "", [], "attack.csv: empty, with no header line"),
    "bin-width-1e-300": (None, None, ["--bin-width", "1e-300"],
                         "--bin-width 1e-300: 7.5e+299 bins of width 1e-300 exceed 16777216"),
    # an error that is not finite would be binned as nan or inf bins of --bin-width
    **{f"verdicts-error-{text}": ("verdicts.csv",
                                  VERDICT_HEADER + f"\n1000000,100,1,{text},accept\n", [],
                                  f"verdicts.csv: line 2: {text} is not a finite error_us")
       for text in ("nan", "inf")},
    # a rate that is not a probability would be written to success_table.csv
    **{f"attack-rate-{text}": ("attack.csv", "rho_us,frames,adv_rate_exact,adv_rate_analytic\n"
                               f"5,1,0.0386,0.0390625\n5,2,{text},0.00152588\n", [],
                               f"attack.csv: line 3: {text} is not an adversary rate in [0, 1]")
       for text in ("nan", "inf", "-0.5", "2")},
    # a key that is no success table cell would leave the analytic rate in its place
    **{f"attack-rho-{text}": ("attack.csv", "rho_us,frames,adv_rate_exact,adv_rate_analytic\n"
                              f"5,1,0.0386,0.0390625\n{text},1,0.5,0.1\n", [],
                              f"attack.csv: line 3: {text} is not a finite rho_us >= 0")
       for text in ("nan", "inf", "-1")},
    **{f"attack-frames-{text}": ("attack.csv", "rho_us,frames,adv_rate_exact,adv_rate_analytic\n"
                                 f"5,1,0.0386,0.0390625\n5,{text},0.9,0.1\n", [],
                                 f"attack.csv: line 3: {text} is not a frames value >= 1")
       for text in ("0", "-3")},
    **{f"attack-no-cell-{rho}-{frames}": (
        "attack.csv", f"rho_us,frames,adv_rate_exact,adv_rate_analytic\n{rho},{frames},0.5,0.1\n",
        [], f"attack.csv: line 2: rho_us {rho}, frames {frames} is no success table cell "
        "(rho_us 2, 3, 4, 5; frames 1, 2, 3, 4, 6)")
       for rho, frames in ((7, 5), (2.5, 1), (5, 5))},
    # a repeated key would silently replace the rate of the line before it
    "attack-repeated-key": ("attack.csv", "rho_us,frames,adv_rate_exact,adv_rate_analytic\n"
                            "5,1,0.0386,0.0390625\n5,2,0.0015,0.0015\n5.0,1,0.5,0.0390625\n", [],
                            "attack.csv: line 4: rho_us 5, frames 1 is also on line 2"),
    # the trace reader's refusals name the file
    "trace-genuine-7": ("trace.csv", TRACE_HEADER + "\n0,100,1,00,1\n100,100,2,00,7\n", [],
                        "trace.csv: line 3: genuine 7 is not 0 or 1"),
    # gaps of 1 us and 1000 s: 2 * 10^7 inter-frame bins of 0.05 ms
    "trace-gap-1000-s": ("trace.csv", TRACE_HEADER + "\n0,100,1,00,1\n100,100,2,00,1\n"
                         "100000000100,100,3,00,1\n",
                         [], "trace.csv: inter-frame gaps: 2e+07 bins of width 0.05"),
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def readme_commands() -> list[list[str]]:
    """The arguments of each `canto ...` line in README.md's sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("canto ")]


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return path


@pytest.fixture
def paper_ifs_500(tmp_path):
    """The paper vector with the gcd spacing at 500 us, not its shipped 600 us."""
    path = tmp_path / "paper_ifs_500.ini"
    path.write_text(Path(PAPER).read_text().replace("ifs_us = 600", "ifs_us = 500"))
    return path


class TestAllocate:
    @pytest.mark.parametrize("algorithm,min_ms", [("gcd", 0.5), ("binary", 0.15625)])
    def test_report_row(self, tmp_path, paper_ifs_500, algorithm, min_ms):
        out = tmp_path / "alloc"
        rc = main(["allocate", "--config", str(paper_ifs_500), "--algorithm", algorithm,
                   "--out", str(out)])
        assert rc == 0
        header, row = (out / "allocation_report.csv").read_text().splitlines()
        fields = row.split(",")
        assert fields[0] == algorithm and fields[1] == "1"
        assert float(fields[3]) == pytest.approx(min_ms, abs=1e-6)
        assert (out / "schedule.txt").exists() and (out / "manifest.json").exists()

    def test_gcd_matches_comparison_row(self, tmp_path, paper_ifs_500):
        out = tmp_path / "alloc"
        main(["allocate", "--config", str(paper_ifs_500), "--algorithm", "gcd",
              "--out", str(out)])
        row = (out / "allocation_report.csv").read_text().splitlines()[1].split(",")
        q = float(row[2])
        assert abs(q - 1.86) / 1.86 < 0.15

    # binary and greedy put the two frames at 0 and 5000.05 us, 500005 ticks apart, 5 modulo
    # the periods' gcd: the streams never meet, and they come within 0.05 us of each other
    @pytest.mark.parametrize("algorithm", ["binary", "greedy"])
    def test_offsets_on_the_tick_grid_are_exact(self, tmp_path, capsys, algorithm):
        config = tmp_path / "odd.ini"
        config.write_text(ODD_PAIR)
        assert main(["allocate", "--config", str(config), "--algorithm", algorithm,
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"{algorithm},1,1.3476,5e-05,10.0001"

    def test_hyperperiod_past_int64(self, tmp_path, capsys):
        # binary's offsets 0 and 3e16 us meet at 1.2e17 us, in the second hyperperiod half
        config = tmp_path / "pair.ini"
        config.write_text(PAIR_PAST_INT64)
        assert main(["allocate", "--config", str(config), "--algorithm", "binary",
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "binary,0,inf,0,6e+13"

    def test_one_frame_schedule_is_complete(self, tmp_path):
        out = tmp_path / "alloc"
        assert main(["allocate", "--config", CAPACITY, "--algorithm", "gcd",
                     "--out", str(out)]) == 0
        assert (out / "allocation_report.csv").read_text().splitlines()[1] == "gcd,1,0.0000,0,0"

    def test_gcd_takes_the_configs_spacing_as_run_does(self, small_config, tmp_path):
        alloc, run = tmp_path / "alloc", tmp_path / "run"
        assert main(["allocate", "--config", str(small_config), "--algorithm", "gcd",
                     "--out", str(alloc)]) == 0
        assert main(["run", "--config", str(small_config), "--out", str(run)]) == 0
        assert (alloc / "schedule.txt").read_bytes() == (run / "schedule.txt").read_bytes()

    def test_flag_overrides_the_configs_spacing(self, tmp_path, paper_ifs_500):
        out = tmp_path / "alloc"
        assert main(["allocate", "--config", str(paper_ifs_500), "--algorithm", "gcd",
                     "--out", str(out)]) == 0
        # the paper vector's gcd schedule at 500 us, not at its shipped ifs_us = 600
        assert hashlib.sha256((out / "schedule.txt").read_bytes()).hexdigest() == (
            "8ef67e91990f12a31c7f5058e82f89128c4703f5ca3c334a10bbe81f0a5ce4cf")

    @pytest.mark.parametrize("argv", [
        ["allocate", "--algorithm", "gcd", "--ifs", "500"],
        ["allocate", "--algorithm", "greedy-ml", "--grid", "500"],
        ["allocate", "--algorithm", "random", "--iterations", "20"],
        ["verify", "--trace", "trace.csv", "--rho", "3"],
    ])
    def test_config_keys_have_no_flags(self, tmp_path, argv):
        # [allocator] ifs_us, grid_step_us, iterations and [covert] tolerance_us
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", PAPER, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_readme_commands_parse(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == set(COMMANDS)
        for argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README.md: canto {shlex.join(argv)} does not parse")

    def test_commands_are_the_parsers_subcommands(self):
        # `main` dispatches through COMMANDS and the benchmark's tracer rebinds
        # cli.cmd_<name>: both must reach the same function for every subcommand
        subcommands = next(action.choices for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        assert sorted(COMMANDS) == sorted(subcommands)
        assert all(COMMANDS[name] is getattr(cli, f"cmd_{name}") for name in COMMANDS)

    def test_unknown_algorithm_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["allocate", "--config", PAPER, "--algorithm", "magic",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestPipeline:
    def test_randomized_allocator_options_from_config(self, tmp_path):
        text = SMALL.replace("algorithm = gcd\nifs_us = 600",
                             "algorithm = random\niterations = 20")
        config = tmp_path / "rand.ini"
        config.write_text(text)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        offsets = {line.split()[2] for line in (out / "schedule.txt").read_text().splitlines()}
        assert len(offsets) == 3  # three frames, three distinct grid slots

    @pytest.mark.filterwarnings("ignore:sparse channel matrix")
    def test_each_frame_is_hashed_once_per_command(self, tmp_path, monkeypatch):
        # `run` decodes the delays its simulator hashed; the commands that read a
        # trace file hash every frame again, as the file holds no delay
        hashed = []
        kernel = incanta.covert_delays

        def counting(key, counters, *args):
            hashed.append(len(counters))
            return kernel(key, counters, *args)
        for module in (incanta, bus_sim):
            monkeypatch.setattr(module, "covert_delays", counting)
        out, trace = tmp_path / "run", str(tmp_path / "run" / "trace.csv")
        for argv in (["run", "--check"], ["verify", "--trace", trace],
                     ["capacity", "--trace", trace]):
            hashed.clear()
            assert main([*argv, "--config", PAPER, "--out", str(out)]) == 0
            assert sum(hashed) == 2760, argv[0]

    @pytest.mark.parametrize("name", ["paper", "small"])
    def test_run_verdicts_are_verifys_on_its_trace(self, small_config, tmp_path, name):
        # `run` decodes its trace as trace.csv holds it, in ticks of 10 ns
        config = str(small_config) if name == "small" else PAPER
        run, ver = tmp_path / "run", tmp_path / "ver"
        assert main(["run", "--config", config, "--out", str(run)]) == 0
        assert main(["verify", "--config", config, "--trace", str(run / "trace.csv"),
                     "--out", str(ver)]) == 0
        assert (ver / "verdicts.csv").read_bytes() == (run / "verdicts.csv").read_bytes()

    def test_simulate_then_verify(self, small_config, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(small_config), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(small_config),
                     "--trace", str(out / "trace.csv"),
                     "--out", str(tmp_path / "ver")]) == 0
        summary = (tmp_path / "ver" / "verify_summary.txt").read_text()
        assert "accept_rate_percent=100.0000" in summary

    def test_receivers_take_periods_from_the_config(self, small_config, tmp_path,
                                                    monkeypatch, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(small_config), "--out", str(sim)]) == 0
        assert main(["verify", "--config", str(small_config), "--trace", str(sim / "trace.csv"),
                     "--out", str(tmp_path / "gcd")]) == 0
        greedy = tmp_path / "greedy.ini"
        greedy.write_text(small("algorithm = gcd\nifs_us = 600", "algorithm = greedy-ml"))

        def refuse(*args, **kwargs):
            raise AssertionError("a receiver ran the allocator")

        monkeypatch.setitem(scheduler.ALLOCATORS, "greedy-ml", refuse)
        assert main(["verify", "--config", str(greedy), "--trace", str(sim / "trace.csv"),
                     "--out", str(tmp_path / "greedy")]) == 0
        verdicts = (tmp_path / "gcd" / "verdicts.csv").read_bytes()
        assert (tmp_path / "greedy" / "verdicts.csv").read_bytes() == verdicts
        capsys.readouterr()
        # refusing the short trace (exit 3), not the allocator's AssertionError (exit 4),
        # shows that no allocator ran
        assert main(["capacity", "--config", str(greedy), "--trace", str(sim / "trace.csv"),
                     "--out", str(tmp_path / "cap")]) == 3
        assert "trace too short" in capsys.readouterr().err

    def test_uncompensated_verify_sees_stuffing_noise(self, small_config, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", str(small_config), "--out", str(out)])
        rates = {}
        for flag, name in (([], "comp"), (["--no-compensate"], "raw")):
            main(["verify", "--config", str(small_config),
                  "--trace", str(out / "trace.csv"), *flag,
                  "--out", str(tmp_path / name)])
            text = (tmp_path / name / "verify_summary.txt").read_text()
            rates[name] = float(text.splitlines()[2].split("=")[1])
        assert rates["comp"] == 100.0
        assert rates["raw"] <= rates["comp"]

    def test_run_check_passes(self, small_config, tmp_path):
        rc = main(["run", "--config", str(small_config), "--out", str(tmp_path / "run"),
                   "--check"])
        assert rc == 0
        assert (tmp_path / "run" / "success_table.csv").exists()
        report = (tmp_path / "run" / "report_summary.txt").read_text()
        assert "autosar_crossing_frames=6" in report

    def test_run_failing_its_check_writes_every_output(self, tmp_path, capsys):
        config = tmp_path / "narrow.ini"
        config.write_text(small("tolerance_us = 5", "tolerance_us = 0.5"))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(out), "--check"]) == 1
        assert "genuine acceptance at rho=0.5" in capsys.readouterr().err
        assert {p.name for p in out.iterdir()} == {
            "schedule.txt", "trace.csv", "verdicts.csv", "attack.csv", "success_table.csv",
            "fig_adversary_success.csv", "fig_deviation_histogram.csv",
            "fig_interframe_histogram.csv", "report_summary.txt"}  # no manifest

    # every offset is 0, so the streams meet, but their hyperperiod is never listed
    @pytest.mark.parametrize("case", ["hyperperiod-simulate", "hyperperiod-run",
                                      "hyperperiod-64-simulate", "hyperperiod-64-run"])
    def test_long_hyperperiod_is_simulated(self, tmp_path, case):
        name, command = case.rsplit("-", 1)
        config = tmp_path / "long.ini"
        text = {"hyperperiod": LONG_HYPERPERIOD, "hyperperiod-64": HYPERPERIOD_64}[name]
        config.write_text(COVERT + text if command == "run" else text)
        with pytest.warns(UserWarning, match="schedule is not collision-free"):
            assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        frames = len((tmp_path / "out" / "trace.csv").read_text().splitlines()) - 1
        assert frames == 4 * text.count(":8")  # each period releases at 0, 1, 2 and 3 periods

    def test_colliding_bus_of_a_long_hyperperiod(self, tmp_path, capsys):
        # one hyperperiod of these three periods holds 30002200031 instants
        config = tmp_path / "bus.ini"
        config.write_text("[bus]\nduration_us = 2000000\n\n" + COVERT + "[node.one]\n"
                          "frames = 0x100:10000.1:8 0x101:10000.3:8 0x102:10000.7:8\n")
        sim, run = tmp_path / "sim", ["run", "--config", str(config), "--out"]
        with pytest.warns(UserWarning, match="schedule is not collision-free"):
            assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
            assert main([*run, str(tmp_path / "run")]) == 0
            assert main([*run, str(tmp_path / "check"), "--check"]) == 1
        assert "check failed: schedule is not collision-free\n" in capsys.readouterr().err
        assert len((sim / "trace.csv").read_text().splitlines()) == 1 + 600
        assert main(["verify", "--config", str(config), "--trace", str(sim / "trace.csv"),
                     "--out", str(tmp_path / "ver")]) == 0
        assert "accept_rate_percent=14.7404" in capsys.readouterr().out

    def test_offsets_on_the_tick_grid_never_meet(self, tmp_path):
        # ODD_PAIR at binary's offsets: 5000.05 us is 500005 ticks, 5 modulo the gcd of 10
        config = tmp_path / "bus.ini"
        config.write_text(ODD_PAIR.replace("[node.a]", COVERT + "[node.a]").replace(
            "10000.1:8 0x101:10000.3:8", "10000.1:8:0 0x101:10000.3:8:5000.05"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "run"),
                         "--check"]) == 0
        assert not [w for w in caught if "collision" in str(w.message)]

    def test_run_check_passes_on_one_frame_schedule(self, tmp_path):
        assert main(["run", "--config", CAPACITY, "--out", str(tmp_path), "--check"]) == 0

    def test_determinism_byte_identical(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        for name in ("trace.csv", "verdicts.csv", "attack.csv", "success_table.csv",
                     "schedule.txt", "fig_adversary_success.csv",
                     "fig_deviation_histogram.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_report_rewrites_the_run_reports_byte_for_byte(self, tmp_path):
        run, rep = tmp_path / "run", tmp_path / "rep"
        assert main(["run", "--config", PAPER, "--out", str(run)]) == 0
        assert main(["report", "--config", PAPER, "--in", str(run), "--out", str(rep)]) == 0
        for name in ("success_table.csv", "fig_adversary_success.csv",
                     "fig_deviation_histogram.csv", "fig_interframe_histogram.csv",
                     "report_summary.txt"):
            assert (rep / name).read_bytes() == (run / name).read_bytes(), name

    def test_report_over_verify_and_attack_outputs(self, tmp_path):
        # the flow report's help names: verify and attack write into one directory
        sim, ins, rep, run = (tmp_path / name for name in ("sim", "in", "rep", "run"))
        assert main(["simulate", "--config", PAPER, "--out", str(sim)]) == 0
        assert main(["verify", "--config", PAPER, "--trace", str(sim / "trace.csv"),
                     "--out", str(ins)]) == 0
        assert main(["attack", "--config", PAPER, "--trials", "20000", "--out", str(ins)]) == 0
        assert main(["report", "--config", PAPER, "--in", str(ins), "--out", str(rep)]) == 0
        assert main(["run", "--config", PAPER, "--out", str(run)]) == 0
        table, ran, attack = ([line.split(",") for line in (out / name).read_text().splitlines()]
                              for out, name in ((rep, "success_table.csv"),
                                                (run, "success_table.csv"), (ins, "attack.csv")))
        assert [row[:3] for row in table] == [row[:3] for row in ran]  # ecu_rate as run's
        mc = {(rho, k): rate for rho, k, rate, _ in attack[1:]}
        assert [row[3] for row in table[1:]] == [mc[rho, k] for rho, k, *_ in table[1:]]

    def test_seed_changes_trace_not_tables(self, small_config, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        main(["--seed", "11", "run", "--config", str(small_config), "--out", str(a)])
        main(["--seed", "12", "run", "--config", str(small_config), "--out", str(b)])
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()
        for line_a, line_b in zip((a / "success_table.csv").read_text().splitlines()[1:],
                                  (b / "success_table.csv").read_text().splitlines()[1:]):
            rho_a, k_a, ecu_a, adv_a = line_a.split(",")
            rho_b, k_b, ecu_b, adv_b = line_b.split(",")
            assert (rho_a, k_a) == (rho_b, k_b)
            assert adv_a == adv_b  # the exact rate does not depend on the seed
            if k_a == "1":  # ~100 scored frames: 3 sigma binomial on the base rate
                assert float(ecu_a) == pytest.approx(float(ecu_b), abs=0.12)

    @pytest.mark.parametrize("seed", [8, 31, 33])
    def test_run_check_passes_where_monte_carlo_missed_its_band(self, tmp_path, seed):
        rc = main(["--seed", str(seed), "run", "--config", PAPER, "--out", str(tmp_path),
                   "--check"])
        assert rc == 0

    def test_report_follows_level_bits(self, tmp_path):
        config = tmp_path / "level10.ini"
        config.write_text(small("level_bits = 8", "level_bits = 10"))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert "autosar_crossing_frames=4" in (out / "report_summary.txt").read_text()
        for path, crossing in ((config, 4), (PAPER, 6)):
            rep = tmp_path / f"rep{crossing}"
            assert main(["report", "--config", str(path), "--in", str(out),
                         "--out", str(rep)]) == 0
            summary = (rep / "report_summary.txt").read_text()
            assert f"autosar_crossing_frames={crossing}" in summary
        config.write_text(small("tolerance_us = 5", "tolerance_us = 2.5"))
        rep = tmp_path / "rep2.5"
        assert main(["report", "--config", str(config), "--in", str(out),
                     "--out", str(rep)]) == 0
        header = (rep / "fig_adversary_success.csv").read_text().splitlines()[0]
        assert header == "frames,adv_rate_rho2.5,autosar_24bit"

    def test_corrupted_schedule_is_simulate_stage_error(self, small_config, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage schedule\n")
        rc = main(["run", "--config", str(small_config), "--schedule", str(bad),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "simulate:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_schedule_file_is_a_manifest_input(self, small_config, tmp_path, command):
        alloc = tmp_path / "alloc"
        assert main(["allocate", "--config", str(small_config), "--algorithm", "gcd",
                     "--out", str(alloc)]) == 0
        schedule = alloc / "schedule.txt"
        for out, extra in ((tmp_path / "with", ["--schedule", str(schedule)]),
                           (tmp_path / "without", [])):
            assert main([command, "--config", str(small_config), *extra,
                         "--out", str(out)]) == 0
            inputs = json.loads((out / "manifest.json").read_text())["inputs"]
            want = {"config": sha256_of(small_config)}
            if extra:
                want["schedule"] = sha256_of(schedule)
            assert inputs == want

    def test_report_writes_a_manifest(self, small_config, tmp_path):
        run, rep = tmp_path / "run", tmp_path / "rep"
        assert main(["run", "--config", str(small_config), "--out", str(run)]) == 0
        names = ["verdicts.csv", "attack.csv", "trace.csv"]
        for extra in ([], ["capacity_report.txt"]):
            if extra:
                (run / "capacity_report.txt").write_text("capacity_bits=4.900000\n")
            assert main(["--seed", "5", "report", "--config", str(small_config),
                         "--in", str(run), "--out", str(rep)]) == 0
            manifest = json.loads((rep / "manifest.json").read_text())
            assert (manifest["command"], manifest["seed"]) == ("report", 5)
            assert manifest["inputs"] == {"config": sha256_of(small_config),
                                          **{n: sha256_of(run / n) for n in names + extra}}
        (run / "trace.csv").unlink()  # the one optional input the report reads
        assert main(["report", "--config", str(small_config), "--in", str(run),
                     "--out", str(rep)]) == 0
        inputs = json.loads((rep / "manifest.json").read_text())["inputs"]
        assert sorted(inputs) == ["attack.csv", "capacity_report.txt", "config", "verdicts.csv"]

    def test_manifest_records_the_arguments(self, small_config, tmp_path):
        """Runs that differ only in an argument write different manifests; paths
        and the seed stay out of the arguments recorded."""
        manifests = {}
        trace = tmp_path / "sim" / "trace.csv"
        argvs = {"sim": ["simulate"], "gcd": ["allocate", "--algorithm", "gcd"],
                 "binary": ["allocate", "--algorithm", "binary"],
                 "verify": ["verify", "--trace", str(trace)],
                 "raw": ["verify", "--trace", str(trace), "--no-compensate"]}
        for name, argv in argvs.items():
            assert main(["--seed", "4", *argv, "--config", str(small_config),
                         "--out", str(tmp_path / name)]) == 0
            manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifests["sim"]["arguments"] == {}
        assert manifests["gcd"]["arguments"] == {"algorithm": "gcd"}
        assert manifests["binary"]["arguments"] == {"algorithm": "binary"}
        assert manifests["verify"]["arguments"] == {"no_compensate": False}
        assert manifests["raw"]["arguments"] == {"no_compensate": True}
        assert all(m["seed"] == 4 for m in manifests.values())


class TestAttackAndCapacity:
    def test_attack_rates(self, small_config, tmp_path):
        out = tmp_path / "atk"
        rc = main(["attack", "--config", str(small_config), "--rho", "5", "--frames",
                   "1", "--trials", "400000", "--out", str(out)])
        assert rc == 0
        row = (out / "attack.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.0387, abs=0.002)
        assert float(row[3]) == pytest.approx(10 / 256)

    def test_attack_leaves_the_parser_defaults(self, small_config, tmp_path):
        # main builds its parser once, so a command that mutated args.rho or
        # args.frames would change the defaults of every later call
        for _ in range(2):
            assert main(["attack", "--config", str(small_config), "--trials", "10",
                         "--out", str(tmp_path)]) == 0
        args = build_parser().parse_args(["attack", "--config", str(small_config)])
        assert (args.rho, args.frames) == (list(RHO_SET), list(FRAME_SET))

    def test_run_writes_exact_rates_and_attack_monte_carlo(self, small_config, tmp_path):
        run, atk = tmp_path / "run", tmp_path / "atk"
        assert main(["run", "--config", str(small_config), "--out", str(run)]) == 0
        assert main(["attack", "--config", str(small_config), "--rho", "5", "--frames", "1",
                     "--trials", "1000", "--out", str(atk)]) == 0
        header, *rows = (run / "attack.csv").read_text().splitlines()
        assert header == "rho_us,frames,adv_rate_exact,adv_rate_analytic"
        assert "5,1,0.03868103,0.0390625" in rows
        header = (atk / "attack.csv").read_text().splitlines()[0]
        assert header == "rho_us,frames,adv_rate_mc,adv_rate_analytic"

    def test_capacity_on_clean_trace(self, tmp_path):
        config = tmp_path / "cap.ini"
        config.write_text(CAPACITY_SCENARIO)
        sim = tmp_path / "sim"
        main(["simulate", "--config", str(config), "--out", str(sim)])
        rc = main(["capacity", "--config", str(config),
                   "--trace", str(sim / "trace.csv"),
                   "--out", str(tmp_path / "cap")])
        assert rc == 0
        report = (tmp_path / "cap" / "capacity_report.txt").read_text()
        value = float(report.splitlines()[0].split("=")[1])
        assert 4.0 <= value <= 8.0

    def test_verdict_judges_the_printed_error(self, tmp_path):
        # frame 54 arrives at 530053.26 us, frame 53 at 520087.34: the difference less
        # the expected spacing is 292 ticks of 10 ns, printed as 2.9200
        config = tmp_path / "rho3.ini"
        config.write_text((ROOT / CAPACITY).read_text().replace(
            "duration_us = 300000000", "duration_us = 1000000").replace(
            "tolerance_us = 5", "tolerance_us = 3"))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        assert main(["verify", "--config", str(config), "--trace",
                     str(tmp_path / "sim" / "trace.csv"), "--out", str(tmp_path / "v")]) == 0
        assert (tmp_path / "v" / "verdicts.csv").read_text().splitlines()[54] \
            == "53005326,100,54,2.9200,accept"
        summary = (tmp_path / "v" / "verify_summary.txt").read_text()
        assert "accept_rate_percent=79.7980\n" in summary

    @pytest.mark.filterwarnings("ignore:sparse channel matrix")
    def test_no_compensate_follows_the_bus_stuffing(self, tmp_path, capsys):
        # with `stuffing = none` every frame of the capacity scenario is 222 us on
        # the wire, so frame ends keep the spacing of frame starts
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", CAPACITY, "--out", str(sim)]) == 0
        printed = {}
        for command in ("verify", "capacity"):
            for flag in ([], ["--no-compensate"]):
                capsys.readouterr()
                assert main([command, "--config", CAPACITY, "--trace", str(sim / "trace.csv"),
                             *flag, "--out", str(tmp_path / "out")]) == 0
                printed[command, bool(flag)] = capsys.readouterr().out
        assert "accept_rate_percent=100.0000\nwindow_auth_rate_percent=100.0000\n" \
            in printed["verify", True]
        assert printed["capacity", True] == printed["capacity", False]

    def test_capacity_rejects_short_trace(self, small_config, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--config", str(small_config), "--out", str(sim)])
        rc = main(["capacity", "--config", str(small_config),
                   "--trace", str(sim / "trace.csv"),
                   "--out", str(tmp_path / "cap")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(sim / "trace.csv") in err and "trace too short" in err


class TestReportErrors:
    def test_missing_inputs_listed(self, tmp_path, capsys):
        rc = main(["report", "--config", PAPER, "--in", str(tmp_path),
                   "--out", str(tmp_path / "rep")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "verdicts.csv" in err and "attack.csv" in err

    def test_report_keeps_the_run_manifest(self, small_config, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["run", "--config", str(small_config), "--out", str(run)]) == 0
        manifest = (run / "manifest.json").read_bytes()
        rc = main(["report", "--config", str(small_config), "--in", str(run),
                   "--out", str(run / "." / ".." / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "--out" in err and "--in" in err
        assert (run / "manifest.json").read_bytes() == manifest

    def test_report_checks_the_seed_before_it_writes(self, small_config, tmp_path, capsys):
        run, rep = tmp_path / "run", tmp_path / "rep"
        run.mkdir()
        for file, content in REPORT_INPUTS.items():
            (run / file).write_text(content)
        assert main(["--seed", "-1", "report", "--config", str(small_config), "--in", str(run),
                     "--out", str(rep)]) == 3
        assert "--seed: seed -1 must be nonnegative" in capsys.readouterr().err
        assert not rep.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "none.ini"),
                   "--out", str(tmp_path)])
        assert rc == 3


class TestInputErrors:
    @pytest.mark.parametrize("options,config", [
        (["--seed", "-1"], SMALL), ([], "[bus]\nduration_us = 400000\n"), ([], LEVEL_BITS_3)],
        ids=["negative-seed", "no-nodes", "level-bits-3"])
    def test_run_refused_at_configure_makes_no_directory(self, tmp_path, capsys, options,
                                                         config):
        path = tmp_path / "run.ini"
        path.write_text(config)
        rc = main([*options, "run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 3 and "error: configure: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_refused_at_report_writes_nothing(self, small_config, tmp_path, capsys):
        """The report refuses its input before the run writes its first file."""
        out = tmp_path / "out"
        rc = main(["run", "--config", str(small_config), "--bin-width", "1e-300",
                   "--out", str(out)])
        assert rc == 3 and "error: report: --bin-width 1e-300: " in capsys.readouterr().err
        assert not out.exists()

    def test_verify_without_scored_frames_is_format_error(self, small_config, tmp_path,
                                                          capsys):
        trace = tmp_path / "one_frame.csv"
        trace.write_text(TRACE_HEADER + "\n"
                         "1000000,100,1,2021222300000001,1\n")
        rc = main(["verify", "--config", str(small_config), "--trace", str(trace),
                   "--out", str(tmp_path / "ver")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "one_frame.csv" in err and "no scored frames" in err
        assert not (tmp_path / "ver" / "verify_summary.txt").exists()

    def test_verify_without_window_is_format_error(self, small_config, tmp_path, capsys):
        trace = tmp_path / "two_frames.csv"
        trace.write_text(TRACE_HEADER + "\n"
                         "1000000,100,1,2021222300000001,1\n"
                         "2000000,100,2,2021222300000002,1\n")
        rc = main(["verify", "--config", str(small_config), "--trace", str(trace),
                   "--out", str(tmp_path / "ver")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "two_frames.csv" in err and "frames_required=6" in err
        assert not (tmp_path / "ver" / "verify_summary.txt").exists()

    @pytest.mark.parametrize("command", ["verify", "capacity", "report"])
    def test_trace_of_tenths_of_a_us_is_refused(self, small_config, tmp_path, capsys, command):
        # trace.csv as it was when it held times in tenths of a us: its header
        # is refused as a data line, so its times are never read at a tenth of their value
        run = tmp_path / "run"
        run.mkdir()
        for file, content in REPORT_INPUTS.items():
            (run / file).write_text(content)
        (run / "trace.csv").write_text("bus_time_us,id_hex,counter,payload_hex,genuine\n"
                                       "100000,100,1,2021222300000001,1\n"
                                       "200000,100,2,2021222300000002,1\n")
        given = ["--in", str(run)] if command == "report" else ["--trace", str(run / "trace.csv")]
        rc = main([command, "--config", str(small_config), *given, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert f"error: {run / 'trace.csv'}: line 1: bus_time_10ns: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_period_times_counter_step_past_int64(self, tmp_path):
        # 10^10 ticks times a step of 2^32 - 2 counters is past int64, where numpy's
        # product wraps; the error is the one of Python's integers
        config = tmp_path / "slow.ini"
        config.write_text("[bus]\nduration_us = 200000000\n\n[covert]\nkey_hex = "
                          "000102030405060708090A0B0C0D0E0F\nframes_required = 2\n\n"
                          "[node.one]\nframes = 0x100:100000000:8\n")
        frames = [(1000000, 1, "2021222300000001"), (3000000, 2**32 - 1, "20212223FFFFFFFF")]
        trace = tmp_path / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n"
                         + "".join(f"{t},100,{c},{p},1\n" for t, c, p in frames))
        assert main(["verify", "--config", str(config), "--trace", str(trace),
                     "--out", str(tmp_path / "ver")]) == 0
        (t1, c1, p1), (t2, c2, p2) = frames
        xi1, xi2 = (incanta.covert_delay(bytes(range(16)), c, CanId(0x100), bytes.fromhex(p))
                    for c, p in ((c1, p1), (c2, p2)))
        want = ((t2 - t1) - 10**10 * (c2 - c1) - 100 * (xi2 - xi1)) / 100
        row = (tmp_path / "ver" / "verdicts.csv").read_text().splitlines()[2].split(",")
        assert row[4] == "intrusion" and float(row[3]) == want, row

    def test_spacing_past_the_float_range_is_an_intrusion(self, tmp_path):
        # 10^309 ticks times 99 steps, divided by 100, is past the largest float
        config = tmp_path / "slowest.ini"
        config.write_text(f"[bus]\nduration_us = {2 * 10**307}\n\n[covert]\nkey_hex = "
                          "000102030405060708090A0B0C0D0E0F\nframes_required = 2\n\n"
                          f"[node.one]\nframes = 0x100:{10**307}:8\n")
        trace = tmp_path / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n100,100,1,2021222300000001,1\n"
                         "200,100,100,2021222300000064,1\n")
        assert main(["verify", "--config", str(config), "--trace", str(trace),
                     "--out", str(tmp_path / "ver")]) == 0
        row = (tmp_path / "ver" / "verdicts.csv").read_text().splitlines()[2].split(",")
        assert row[4] == "intrusion" and float(row[3]) < -1e290, row

    @pytest.mark.parametrize("command", ["verify", "capacity"])
    def test_trace_id_missing_from_schedule(self, small_config, tmp_path, capsys, command):
        trace = tmp_path / "stray.csv"
        trace.write_text(TRACE_HEADER + "\n"
                         "1000000,7FF,1,2021222300000001,1\n")
        rc = main([command, "--config", str(small_config), "--trace", str(trace),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "stray.csv" in err and "7FF" in err and "internal error" not in err

    def test_negative_rho_is_rejected(self, small_config, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--config", str(small_config), "--out", str(sim)])
        config = tmp_path / "rho-1.ini"
        config.write_text(small("tolerance_us = 5", "tolerance_us = -1"))
        rc = main(["verify", "--config", str(config), "--trace", str(sim / "trace.csv"),
                   "--out", str(tmp_path / "ver")])
        assert rc == 3
        assert "[covert]: tolerance must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("line,value,where", [
        ("level_bits = 8", "level_bits = 40", "[covert]: level_bits"),
        ("key_hex = 000102030405060708090A0B0C0D0E0F", "key_hex = 0001zz", "[covert] key_hex"),
        ("jitter = steps", "jitter = uniform:x", "[node.one] jitter"),
        ("seed = 3", "seed = 3\nstuffing = bogus", "[bus]: stuffing"),
        ("seed = 3", "seed = 3\nstuffing = sampled", "[bus]: stuffing 'sampled'"),
        ("seed = 3", "seed = 3\npayload_mode = random", "[bus]: unknown keys ['payload_mode']"),
    ])
    def test_bad_config_value_names_key(self, tmp_path, capsys, line, value, where):
        config = tmp_path / "bad.ini"
        config.write_text(SMALL.replace(line, value))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")])
        assert rc == 3
        err = capsys.readouterr().err
        assert where in err and "internal error" not in err

    @pytest.mark.parametrize("case", MALFORMED_REPORT)
    def test_malformed_report_input_exits_3_naming_it(self, small_config, tmp_path, capsys,
                                                      case):
        name, text, extra, named = MALFORMED_REPORT[case]
        run = tmp_path / "run"
        run.mkdir()
        for file, content in REPORT_INPUTS.items():
            (run / file).write_text(content)
        if name is not None:
            (run / name).write_text(text)
        rc = main(["report", "--config", str(small_config), "--in", str(run),
                   "--out", str(tmp_path / "rep"), *extra])
        err = capsys.readouterr().err
        assert rc == 3 and named in err and "internal error" not in err, err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.filterwarnings("ignore:sparse channel matrix")
    def test_capacity_tolerance_out_of_reach_exits_3(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", CAPACITY, "--out", str(sim)]) == 0
        rc = main(["capacity", "--config", CAPACITY, "--trace", str(sim / "trace.csv"),
                   "--tolerance", "1e-14", "--out", str(tmp_path / "cap")])
        err = capsys.readouterr().err
        assert rc == 3 and "--tolerance 1e-14: no convergence" in err and "bound gap" in err, err

    def test_capacity_refuses_a_channel_matrix_over_the_bound(self, tmp_path, capsys):
        # 8300 frames outnumber the 8192 symbols of 13 bits, but 2^26 cells of
        # counts are over the bound, so they are refused before any is allocated
        config = tmp_path / "bits13.ini"
        config.write_text(CAPACITY_SCENARIO.replace("400000000", "83000000").replace(
            "[covert]\n", "[covert]\nlevel_bits = 13\n"))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
        rc = main(["capacity", "--config", str(config), "--trace", str(sim / "trace.csv"),
                   "--out", str(tmp_path / "cap")])
        err = capsys.readouterr().err
        assert rc == 3 and "level_bits 13: channel matrix over 16777216 cells" in err
        assert not (tmp_path / "cap").exists()

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_input_exits_3_naming_it(self, tmp_path, capsys, case):
        command, config, files, extra, named = MALFORMED[case]
        path = tmp_path / "bad.ini"
        path.write_text(config)
        argv = [*command.split(), "--config", str(path), "--out", str(tmp_path / "out"), *extra]
        for flag, text in files.items():
            (tmp_path / flag[2:]).write_text(text)
            argv += [flag, str(tmp_path / flag[2:])]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an oversubscribed bus also collides
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3 and named in err and "internal error" not in err, err
        assert not (tmp_path / "out").exists()
