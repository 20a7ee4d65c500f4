"""The benchmark's tracer wraps package functions by name; a rename must
fail here, in the tier-1 suite, not only in the slower benchmark
self-tests.  The names are resolved without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    tracer = load_tracer()
    return ([(mod, attr) for mod, attr, _, _ in tracer.SPAN_TARGETS]
            + [("cli", attr) for attr in tracer.REPLICA_TARGETS]
            + [(mod, attr) for mod, attr, _, _ in tracer.LEAF_TARGETS])


@pytest.mark.parametrize("mod,attr", targets())
def test_tracer_target_exists(mod, attr):
    owner = importlib.import_module(f"sidlalab.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
