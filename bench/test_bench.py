"""Self-tests of the benchmark harness at tiny sizes.

Run with ``python3 -m pytest bench -q`` from the repository root.  Most of
the time goes to importing scipy in each fresh CLI process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == {name: (unit, better) for name, (unit, better, _) in run.LAYER_METRICS.items()}
    for wl in run.WORKLOADS.values():
        assert set(wl.expects) <= set(run.LAYER_METRICS)


def test_every_metric_is_emitted_with_its_unit():
    jobs = [(w["name"], trace) for w in SPEC["workloads"] for trace in ("0", "1")]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(
            lambda job: harness("--workload", job[0], "--trace", job[1], "--tiny"), jobs))
    for (name, trace), proc in zip(jobs, procs):
        result = result_of(proc)
        assert result["correct"] and result["failed"] == 0, (name, proc.stderr)
        specs = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in specs}, name
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_wrong_pinned_digest_counts_as_failure(tmp_path):
    pins = tmp_path / "pins.json"
    args = ("--workload", "couple-base", "--tiny", "--pins", str(pins))
    assert harness(*args, "--record-pins").returncode == 0
    assert result_of(harness(*args))["failed"] == 0

    doc = json.loads(pins.read_text())
    digests = doc["couple-base"]["3"]["sha256"]
    digests["gaps.csv"] = "0" * 64
    pins.write_text(json.dumps(doc))
    proc = harness(*args)
    result = result_of(proc)
    assert result["failed"] == 1 and not result["correct"]
    assert "gaps.csv sha256" in proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = harness("--workload", "law-compare", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("seed", [1, 4242])
def test_pins_cover_every_workload(seed):
    pins = json.loads(run.PINS.read_text())
    for name, wl in run.WORKLOADS.items():
        assert run.find_pin(pins, name, seed, wl.commands(seed, False)) is not None
