"""The benchmark times canto's layers by rebinding the functions named in
`perfbench/tracer.py`'s TARGETS; a name that no longer resolves silently
drops its metrics. Each target is resolved here as `Tracer.install` does,
without wrapping anything; only the export hook, which reads the output path
from the call's arguments, is run on a real `simulate`. The gates of
`perfbench/workloads.py` run here on the shipped configs, so that a change
to what they read fails here and not only in a benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import canto
from canto import cli, scheduler, trace_io

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _perfbench(name: str):
    """perfbench/<name>.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    absent = []
    for module_name, attr, span, _hook in _perfbench("tracer").TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = owner.get(leaf) if isinstance(owner, dict) else getattr(owner, leaf, None)
        if fn is None:
            absent.append(f"{module_name}.{attr} ({span})")
    assert not absent, f"traced names that no longer resolve: {absent}"


def test_every_exported_name_resolves():
    assert [name for name in canto.__all__ if not hasattr(canto, name)] == []


def test_allocators_are_plain_functions():
    # the tracer rebinds dict values; build_schedule reads them at call time
    assert sorted(scheduler.ALLOCATORS) == sorted(_perfbench("tracer").ALLOCATOR_NAMES)
    assert all(inspect.isfunction(fn) for fn in scheduler.ALLOCATORS.values())


def test_export_trace_takes_the_path_second():
    first, second = list(inspect.signature(trace_io.export_trace).parameters)[:2]
    assert (first, second) == ("trace", "path")


def test_export_hook_reads_the_written_file(tmp_path):
    # the trace_bytes hook takes the output path from the call's second argument
    module = _perfbench("tracer")
    tracer = module.Tracer()
    tracer.begin_pass()
    original = trace_io.export_trace
    wrapper = tracer.wrap("trace_io.export_trace", original, module._on_export)
    module.rebind(original, wrapper)
    try:
        assert cli.main(["simulate", "--config", str(CONFIGS / "paper_vector.ini"),
                         "--out", str(tmp_path)]) == 0
    finally:
        module.rebind(wrapper, original)
    assert tracer.facts[-1]["trace_bytes"] == (tmp_path / "trace.csv").stat().st_size > 0


def test_rebound_command_runs_after_the_parser_is_built(tmp_path):
    # main builds its parser once; the tracer rebinds cli.cmd_* after the
    # untraced passes, so main must dispatch through the rebound name
    module = _perfbench("tracer")
    config = str(CONFIGS / "paper_vector.ini")
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", config, "--out", str(sim)]) == 0
    tracer = module.Tracer()
    tracer.begin_pass()
    original = cli.cmd_verify
    wrapper = tracer.wrap("cli.verify", original)
    module.rebind(original, wrapper)
    try:
        assert cli.main(["verify", "--config", config, "--trace", str(sim / "trace.csv"),
                         "--out", str(tmp_path / "ver")]) == 0
    finally:
        module.rebind(wrapper, original)
    tracer.end_pass()
    assert tracer.reduce()[-1]["tree"][("cli.verify", "")][0] == 1


# the shipped capacity scenario's 30000 frames leave thin matrix rows; the benchmark runs 64000
@pytest.mark.filterwarnings("ignore:sparse channel matrix")
@pytest.mark.parametrize("name,config,frames", [("paper_run", "paper_vector.ini", 2760),
                                                ("capacity_trace", "capacity_scenario.ini", 30000)])
def test_workload_gates_pass_on_the_shipped_configs(tmp_path, monkeypatch, name, config, frames):
    monkeypatch.setitem(sys.modules, "tracer", _perfbench("tracer"))  # workloads.py imports it so
    workload = _perfbench("workloads").WORKLOADS[name](tmp_path, CONFIGS / config)
    assert [step() for step in workload.steps()] == [0] * len(workload.steps())
    assert workload.check() == []
    assert workload.record()["frames"] == frames
