"""Golden digests: the paper artifacts are byte-identical across commits.

Each command below runs in process and every file it writes is hashed;
`golden.sha256` holds the expected digests. A change that shifts an
artifact on purpose rewrites that file with

    PYTHONPATH=src python tests/test_golden.py

and names each changed artifact and the reason.
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


def _commands(tmp: Path) -> dict[str, list[str]]:
    """Output directory name -> argv; later commands read earlier outputs."""
    trace = str(tmp / "capacity_simulate" / "trace.csv")
    contended = tmp / "contended_bus.ini"
    contended.write_text(CONTENDED)
    commands = {"paper_run": ["run", "--config", PAPER, "--check"],
                "capacity_simulate": ["simulate", "--config", CAPACITY],
                "contended_simulate": ["simulate", "--config", str(contended)]}
    for name, extra in (("capacity_verify", []),
                        ("capacity_verify_no_compensate", ["--no-compensate"]),
                        ("capacity_verify_rho3", ["--rho", "3"])):
        commands[name] = ["verify", "--config", CAPACITY, "--trace", trace, *extra]
    commands["capacity_capacity"] = ["capacity", "--config", CAPACITY, "--trace", trace]
    for alg in ALGORITHMS:
        commands[f"allocate_{alg}"] = ["allocate", "--config", PAPER, "--algorithm", alg]
    # greedy-ml on a second candidate grid: the derived default is 250 us
    commands["allocate_greedy-ml_grid500"] = ["allocate", "--config", PAPER,
                                              "--algorithm", "greedy-ml", "--grid", "500"]
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
        lines = [f"{d}  {name}\n" for name, d in sorted(digests(Path(tmp)).items())]
    GOLDEN.write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)
