"""The benchmark times canto's layers by rebinding the functions named in
`perfbench/tracer.py`'s TARGETS; a name that no longer resolves silently
drops its metrics. Each target is resolved here as `Tracer.install` does,
without wrapping anything."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from canto import scheduler

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    absent = []
    for module_name, attr, span, _hook in _tracer().TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = owner.get(leaf) if isinstance(owner, dict) else getattr(owner, leaf, None)
        if fn is None:
            absent.append(f"{module_name}.{attr} ({span})")
    assert not absent, f"traced names that no longer resolve: {absent}"


def test_allocators_are_plain_functions():
    # the tracer rebinds dict values; build_schedule reads them at call time
    assert sorted(scheduler.ALLOCATORS) == sorted(_tracer().ALLOCATOR_NAMES)
    assert all(inspect.isfunction(fn) for fn in scheduler.ALLOCATORS.values())
