"""The benchmark's tracer wraps package functions by name and reads
attributes of their results, and its child process reloads the snapshots
it writes; a rename or a loader change the benchmark would count as a
failed run must fail here, in the tier-1 suite, not only in the slower
benchmark self-tests.  The names are resolved, and the counters fed real
results, without installing the tracer."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sidlalab
from sidlalab import coupling, fpp, render, sidla
from sidlalab.cli import main
from sidlalab.fileio import atomic_write_text
from sidlalab.lattice import Window

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


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


def counter_cases(tmp_path):
    """(span name, args, result) of a tiny real call per counted target."""
    win = Window(6, 3)
    field = coupling.AuxClockField(2, fpp.WeightProfile.STRETCH, win)
    forest = fpp.build_forest(field)
    rings = coupling.generate_rings(forest, field, 1.5 * float(forest.values.max()), "base")
    text = fpp.snapshot_text(forest)
    svg = render.render_svg(forest)
    path = str(tmp_path / "f.json")
    cases = [
        ("fpp.build_forest", (field,), forest),
        ("fpp.snapshot_text", (forest,), text),
        ("coupling.generate_rings", (forest, field), rings),
        ("coupling.replay", (rings,), coupling.replay(rings)),
        ("render.render_svg", (forest,), svg),
        ("fileio.atomic_write_text", (path, text), atomic_write_text(path, text)),
    ]
    for method in ("rings", "jumps"):
        cases.append(("sidla.run_until_covered", (win, 1),
                      sidla.run_until_covered(win, 1, method=method)))
    return cases


def test_tracer_counters_read_real_results(tmp_path):
    counters = {name: fn for _, _, name, fn in load_tracer().SPAN_TARGETS if fn}
    cases = counter_cases(tmp_path)
    assert {name for name, _, _ in cases} == set(counters)
    for name, args, result in cases:
        values = counters[name](args, result)
        assert values, name
        for key, value in values.items():
            assert type(value) is int and value >= 0, (name, key, value)


def check_snapshot(path: Path, W: int, M: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(sidlalab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(BENCH / "child.py"), "--check-snapshot",
                           str(path), str(W), str(M)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_bench_child_reloads_what_fpp_writes(tmp_path):
    path = tmp_path / "f.json"
    assert main(["fpp", "-W", "8", "-M", "4", "--out", str(path)]) == 0
    done = check_snapshot(path, 8, 4)
    assert done.returncode == 0, done.stderr
    doc = json.loads(path.read_text())
    doc["vertices"].reverse()
    path.write_text(json.dumps(doc))
    done = check_snapshot(path, 8, 4)
    assert done.returncode != 0
    assert "where the (y, x) order puts (0, 0)" in done.stderr
