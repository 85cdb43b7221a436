"""Golden digests: the paper artifacts are byte-identical across commits.

Each command below runs in process and every file it writes is hashed;
`golden.sha256` holds the expected digests. A change that shifts an
artifact on purpose rewrites that file with

    PYTHONPATH=src python tests/test_golden.py

which first prints each artifact it adds, removes or changes against the
file it replaces; name those and the reason.
"""

import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

from canto.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.sha256"
PAPER = str(ROOT / "configs" / "paper_vector.ini")
CAPACITY = str(ROOT / "configs" / "capacity_scenario.ini")
ALGORITHMS = ("binary", "random", "greedy", "greedy-ml", "gcd")

# Neither shipped config makes frames contend: here several IDs share an
# offset, so the simulator arbitrates, under gaussian jitter, skewed
# clocks and payload stuffing, with and without the covert channel.
CONTENDED = """\
[bus]
bitrate = 125000
duration_us = 1000000
seed = 7
stuffing = payload

[covert]
key_hex = 000102030405060708090A0B0C0D0E0F

[node.engine]
skew_ppm = 40
jitter = gaussian:3
frames = 0x100:10000:8:0 0x101:10000:8:0 0x102:20000:8:0 0x103:20000:4:0

[node.brakes]
skew_ppm = -25
jitter = gaussian:1.5
covert = false
frames = 0x0F0:10000:8:0 0x120:5000:2:250 0x121:10000:8:250
"""


# No shipped config simulates this bus: an extended-ID stream, a 0-byte plain
# frame, 5- and 6-byte covert frames and payload stuffing.
MIXED = """\
[bus]
bitrate = 250000
duration_us = 400000
seed = 11
stuffing = payload

[covert]
key_hex = 0F0E0D0C0B0A090807060504030201000F0E0D0C
level_bits = 10
tolerance_us = 6

[node.gateway]
skew_ppm = -15
jitter = steps
frames = 18FEF100:10000:8:0 0x200:20000:5:1500 0x201:10000:6:3000

[node.body]
jitter = uniform:1.5
covert = false
frames = 0x080:5000:0:700 0x300:20000:3:4100 0x0C1:10000:6:1500
"""


def _commands(tmp: Path) -> dict[str, list[str]]:
    """Output directory name -> argv; later commands read earlier outputs."""
    trace = str(tmp / "capacity_simulate" / "trace.csv")
    contended = tmp / "contended_bus.ini"
    contended.write_text(CONTENDED)
    mixed = tmp / "mixed_bus.ini"
    mixed.write_text(MIXED)
    # the capacity scenario with stuffing on, so that --no-compensate has
    # frame-length variation to leave in the channel matrix
    stuffed = tmp / "stuffed_capacity.ini"
    stuffed.write_text(Path(CAPACITY).read_text().replace("stuffing = none",
                                                           "stuffing = payload"))
    # the capacity scenario's receiver at a 3 us tolerance
    rho3 = tmp / "capacity_rho3.ini"
    rho3.write_text(Path(CAPACITY).read_text().replace("tolerance_us = 5", "tolerance_us = 3"))
    # greedy-ml on a second candidate grid: the derived default is 250 us
    grid500 = tmp / "paper_greedy-ml_grid500.ini"
    grid500.write_text(Path(PAPER).read_text().replace(
        "algorithm = gcd\nifs_us = 600", "algorithm = greedy-ml\ngrid_step_us = 500"))
    commands = {"paper_run": ["run", "--config", PAPER, "--check"],
                "capacity_simulate": ["simulate", "--config", CAPACITY],
                "contended_simulate": ["simulate", "--config", str(contended)],
                "mixed_simulate": ["simulate", "--config", str(mixed)],
                "stuffed_simulate": ["simulate", "--config", str(stuffed)]}
    for name, config, extra in (("capacity_verify", CAPACITY, []),
                                ("capacity_verify_no_compensate", CAPACITY, ["--no-compensate"]),
                                ("capacity_verify_rho3", str(rho3), [])):
        commands[name] = ["verify", "--config", config, "--trace", trace, *extra]
    commands["capacity_capacity"] = ["capacity", "--config", CAPACITY, "--trace", trace]
    commands["stuffed_capacity_no_compensate"] = [
        "capacity", "--config", str(stuffed), "--trace",
        str(tmp / "stuffed_simulate" / "trace.csv"), "--no-compensate"]
    # the receiver over 2-, 4- and 8-byte payloads, the covert-off node's included
    commands["contended_verify"] = ["verify", "--config", str(contended), "--trace",
                                    str(tmp / "contended_simulate" / "trace.csv")]
    commands["mixed_verify"] = ["verify", "--config", str(mixed), "--trace",
                                str(tmp / "mixed_simulate" / "trace.csv")]
    for alg in ALGORITHMS:
        commands[f"allocate_{alg}"] = ["allocate", "--config", PAPER, "--algorithm", alg]
    commands["allocate_greedy-ml_grid500"] = ["allocate", "--config", str(grid500),
                                              "--algorithm", "greedy-ml"]
    commands["paper_attack"] = ["attack", "--config", PAPER, "--trials", "20000"]
    # the receiver over the run's own trace file
    commands["paper_verify"] = ["verify", "--config", PAPER, "--trace",
                                str(tmp / "paper_run" / "trace.csv")]
    # the report over the run's outputs: success table, figures and summary again
    commands["paper_report"] = ["report", "--config", PAPER, "--in", str(tmp / "paper_run")]
    return commands


def digests(tmp: Path) -> dict[str, str]:
    """Run every command into its own directory under `tmp`; sha256 per output file."""
    out = {}
    for name, argv in _commands(tmp).items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sparse channel-matrix rows
            rc = main([*argv, "--out", str(tmp / name)])
        assert rc == 0, f"{name}: exit {rc}"
        for path in sorted((tmp / name).iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def read_golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line.strip())
    return {name: digest for digest, name in pairs}


def test_artifacts_match_golden_digests(tmp_path):
    got, want = digests(tmp_path), read_golden()
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"artifacts differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = digests(Path(tmp))
    old = read_golden()
    for word, names in (("added", got.keys() - old.keys()), ("removed", old.keys() - got.keys()),
                        ("changed", {n for n in got.keys() & old.keys() if got[n] != old[n]})):
        for name in sorted(names):
            print(f"{word}: {name}", file=sys.stderr)
    lines = [f"{d}  {name}\n" for name, d in sorted(got.items())]
    GOLDEN.write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)
