"""The traced benchmark run (`bench/run.py --trace 1`) wraps library
functions by name: every name it lists must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span, module_name, attr", _tracing_module().TARGETS)
def test_tracer_target_resolves(span, module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    # a method is looked up in its class's own namespace, as the tracer does
    namespace = vars(getattr(module, owner_name)) if owner_name else vars(module)
    assert callable(namespace.get(name)), f"{span}: {module_name}.{attr} is gone"


def test_tracer_reads_tracker_points():
    from planeheights.orbit import OrbitHeightTracker

    assert callable(getattr(OrbitHeightTracker, "point", None))
