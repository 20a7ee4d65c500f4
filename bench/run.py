"""The sidlalab benchmark: three CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload law-compare --seed 1 --seconds 30 --trace 0

Each workload is a fixed sequence of ``sidlalab`` CLI commands (stretch
profile, ``--jobs 1``) whose base ``--seed`` is the harness seed.  Every
command runs as a fresh process (``bench/child.py``), one at a time, with
BLAS/OpenMP threads pinned to 1.  A run first does an untimed warm-up (all
commands at tiny size, which also builds the bytecode caches), then repeats
the workload's command sequence on the same inputs for ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: CPU time of a fresh interpreter that imports
  ``sidlalab.cli`` and builds its parser (median of SETUP_SAMPLES);
* ``cpu_s``: CPU time (user + system) of the workload's command processes
  from spawn to exit, summed over the commands: import, compute and
  artifact writes (median over passes);
* ``seeds_per_s``: replicas summed over the commands, divided by the CPU
  time spent inside ``sidlalab.cli.main``, without start-up (median over
  passes);
* ``peak_rss_mb``: the largest ``ru_maxrss`` of the workload's processes
  (median over passes).

The three times are CPU times, scaled to a reference CPU speed.  On a
shared virtual machine the wall time of a CPU-bound process also counts
the time it waits for a CPU behind other processes, and the CPU itself
runs the same code by half again slower for seconds to minutes while other
tenants load the host.  Neither depends on the code.  CPU time leaves out
the waits; for the speed, each measured process runs the speed probe of
``bench/child.py`` and its CPU time is multiplied by PROBE_REF_S over the
probe loop's mean time in that process (the unscaled values are printed
alongside).  The wall time of the commands is printed as ``wall_s`` but not
reported as a metric.

``--trace 1`` alternates untraced and traced passes of the sequence and
reports the per-layer metrics of LAYER_METRICS, from spans that
``bench/tracer.py`` records around the package's public functions.  The
traced pass must write the same artifacts as the untraced one, and every
metric a workload names in ``expects`` must be recorded; otherwise the
run fails loudly.

Correctness: every primary artifact is hashed (sha256).  For the seeds
pinned in ``bench/digests.json`` the digests and exit codes must match the
pins; on other seeds the harness checks exit codes, ``forest_equal`` in
coupling reports, that the fpp snapshot reloads and passes
``coverage_partition_check``, and that repeated passes are byte-identical.
A command that fails any check counts in ``failed``; ``failed_frac`` is
``failed / attempted``.  The last line of stdout is the JSON result.

``--tiny`` shrinks every workload for the self-tests (``bench/test_bench.py``);
``--record-pins`` writes the digests of one pass at ``--seed`` into the
pins file instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PINS = BENCH / "digests.json"
PYTHON = sys.executable

SETUP_SAMPLES = 3
# CPU time of child.py's probe loop on an unloaded CPU of the machine the
# baseline comes from; times are scaled to a CPU of that speed
PROBE_REF_S = 200e-6
RUN_LIMIT_S = 170.0  # a run must end within 180 s; stragglers are killed
SETUP_CODE = "import sidlalab.cli as c; c.build_parser()"
CORE_CODE = "import sidlalab.fpp, sidlalab.sidla, sidlalab.coupling"

E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "seeds_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    replicas: int
    artifacts: tuple[str, ...]
    # exit codes accepted on seeds without pins
    ok_exits: tuple[int, ...] = (0,)
    # "forest_equal": the first artifact is a coupling report;
    # "snapshot": the first artifact is an fpp snapshot of the window
    check: str | None = None


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def law_compare(seed: int, tiny: bool) -> list[Command]:
    W, M, R = (8, 4, 40) if tiny else (64, 32, 40)
    return [Command(
        _argv("compare", "-W", W, "-M", M, "--method", "jumps", "--replicas", R,
              "--seed", seed, "--jobs", 1, "--out", "compare.json"),
        R, ("compare.json",), ok_exits=(0, 2))]


def couple_base(seed: int, tiny: bool) -> list[Command]:
    W, M, R = (8, 4, 2) if tiny else (64, 32, 20)
    return [Command(
        _argv("couple", "-W", W, "-M", M, "--profile", "stretch", "--repeats",
              "base", "--replicas", R, "--seed", seed, "--jobs", 1,
              "--out", "couple.json", "--gaps-out", "gaps.csv"),
        R, ("couple.json", "gaps.csv"), check="forest_equal")]


def forest_scale(seed: int, tiny: bool) -> list[Command]:
    W, M, R, flanks = (16, 8, 1, "2,4") if tiny else (1024, 256, 2, "4,6,8")
    return [
        Command(_argv("fpp", "-W", W, "-M", M, "--profile", "stretch",
                      "--seed", seed, "--out", "forest.json"),
                1, ("forest.json",), check="snapshot"),
        Command(_argv("render", "--in", "forest.json", "--out", "forest.svg"),
                1, ("forest.svg",)),
        Command(_argv("stats", "--picture", "fpp", "-W", W, "-M", M,
                      "--profile", "stretch", "--flank-levels", flanks,
                      "--replicas", R, "--seed", seed, "--jobs", 1,
                      "--out", "stats.csv"),
                R, ("stats.csv",)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: object  # (seed, tiny) -> list[Command]
    # per-layer metrics the traced run must record as nonzero
    expects: tuple[str, ...]


WORKLOADS = {w.name: w for w in [
    Workload("law-compare", law_compare, (
        "cli.replicas", "hashing.vec_calls", "hashing.scalar_calls",
        "fpp.build_forest.calls", "sidla.events", "analysis.level_profile.s",
        "analysis.chi_square_compare.s")),
    Workload("couple-base", couple_base, (
        "cli.replicas", "fpp.build_forest.calls", "coupling.rings",
        "coupling.replay.s", "coupling.pooled_gaps.s")),
    Workload("forest-scale", forest_scale, (
        "cli.replicas", "hashing.vec_calls", "fpp.build_forest.calls",
        "fpp.snapshot_bytes", "fpp.load_snapshot.s",
        "analysis.extract_tree.calls", "analysis.slim_levels.s",
        "analysis.root_heights.s", "analysis.flank_left_distances.s",
        "render.svg_bytes", "fileio.bytes_written")),
]}


# ---------------------------------------------------------------------------
# Processes


class Runner:
    """Runs processes one at a time in a work directory, with the child
    environment fixed and every process killed at the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, argv: list[str], log: str) -> tuple[int, float, float, float]:
        """Run one process to completion; return (exit code, wall s,
        CPU s (user + system), max RSS MB)."""
        with open(self.work / log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def child(self, *args: str, log: str) -> tuple[int, float, float, float]:
        return self.spawn([PYTHON, str(BENCH / "child.py"), *args], log)

    def log_tail(self, log: str) -> str:
        return (self.work / log).read_text(errors="replace")[-2000:]

    def fresh_imports(self, code: str, n: int) -> list[float]:
        """Scaled CPU times of n fresh interpreters running code."""
        cpus = []
        for _ in range(n):
            rc, _, cpu, _ = self.child("--import", code, "import.json", log="import.log")
            if rc != 0:
                raise RuntimeError(f"{code!r} exited {rc}: {self.log_tail('import.log')}")
            probe = json.loads((self.work / "import.json").read_text())
            cpus.append((cpu - probe["probe_s"]) * speed_scale(probe))
        return cpus


def speed_scale(report: dict) -> float:
    """Factor that scales a process's CPU time to a CPU running the probe
    loop in PROBE_REF_S; 1 if the process ran no probe."""
    return PROBE_REF_S * report["probe_n"] / report["probe_s"] if report["probe_n"] else 1.0


def sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Pass:
    """One run of a workload's command sequence."""

    rcs: list[int] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    mains: list[float] = field(default_factory=list)
    main_cpus: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    digests: dict[str, str | None] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)
    failed: int = 0


def forest_equal(path: Path) -> bool:
    try:
        return json.loads(path.read_text())["forest_equal"] is True
    except (OSError, ValueError, KeyError):
        return False


def run_pass(runner: Runner, name: str, cmds: list[Command], traced: bool,
             pin: dict | None, reference: dict | None) -> Pass:
    """Run the command sequence once and check each command's outputs
    against the pins, or else against the run's first pass; failures are
    counted and reported on stderr."""
    work = runner.work
    p = Pass()
    for cmd in cmds:
        for art in cmd.artifacts:
            (work / art).unlink(missing_ok=True)
    for i, cmd in enumerate(cmds):
        (work / "result.json").unlink(missing_ok=True)
        rc, wall, cpu, rss = runner.child("result.json", json.dumps([cmd.argv]),
                                          *(["trace.json"] if traced else []), log="cmd.log")
        p.rcs.append(rc)
        p.walls.append(wall)
        p.rss.append(rss)
        try:
            report = json.loads((work / "result.json").read_text())
            p.mains.append(report["runs"][0]["main_s"])
            p.main_cpus.append(report["runs"][0]["main_cpu_s"])
            p.cpus.append(cpu - report["probe_s"])
            p.scales.append(speed_scale(report))
        except (OSError, ValueError, KeyError, IndexError):
            p.mains.append(wall)  # the child died before reporting
            p.main_cpus.append(cpu)
            p.cpus.append(cpu)
            p.scales.append(1.0)
        if traced and rc == 0:
            p.traces.append(json.loads((work / "trace.json").read_text()))

        why = []
        ok_exits = (pin["exits"][i],) if pin else cmd.ok_exits
        if rc not in ok_exits:
            why.append(f"exit {rc} not in {ok_exits}")
        for art in cmd.artifacts:
            got = p.digests[art] = sha256(work / art)
            if got is None:
                why.append(f"{art} missing")
            elif pin and got != pin["sha256"][art]:
                why.append(f"{art} sha256 {got[:12]} != pinned {pin['sha256'][art][:12]}")
            elif reference and got != reference[art]:
                why.append(f"{art} differs from the run's first pass")
        if cmd.check == "forest_equal" and not forest_equal(work / cmd.artifacts[0]):
            why.append("forest_equal is not true")
        if why:
            p.failed += 1
            print(f"FAIL {name}: sidlalab {' '.join(cmd.argv)}: {'; '.join(why)}\n"
                  f"{runner.log_tail('cmd.log')}", file=sys.stderr)
    return p


def check_snapshots(runner: Runner, name: str, cmds: list[Command]) -> int:
    """Reload each fpp snapshot of the last pass and check its coverage
    partition; return the number of snapshots that fail."""
    failed = 0
    for cmd in cmds:
        if cmd.check == "snapshot":
            W, M = (cmd.argv[cmd.argv.index(flag) + 1] for flag in ("-W", "-M"))
            rc, _, _, _ = runner.child("--check-snapshot", cmd.artifacts[0], W, M,
                                    log="check.log")
            if rc != 0:
                failed += 1
                print(f"FAIL {name}: snapshot check exited {rc}\n"
                      f"{runner.log_tail('check.log')}", file=sys.stderr)
    return failed


# ---------------------------------------------------------------------------
# Per-layer metrics


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class TraceTable:
    """Spans and counters of one traced pass, aggregated by span name."""

    def __init__(self, dumps: list[dict], import_core_s: float):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.c: dict[str, int] = defaultdict(int)
        self.replica_ms: list[float] = []
        self.top_ns = 0
        self.import_core_s = import_core_s
        for dump in dumps:
            for name, _trace_id, parent, t0, t1, child_ns in dump["spans"]:
                self.calls[name] += 1
                self.total_ns[name] += t1 - t0
                self.self_ns[name] += t1 - t0 - child_ns
                if parent is None:
                    self.top_ns += t1 - t0
                if name == "cli.replica":
                    self.replica_ms.append((t1 - t0) / 1e6)
            for key, value in dump["counters"].items():
                self.c[key] += value
            self.top_ns += dump["top_leaf_ns"]

    def s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9


# name -> (unit, better, value from a TraceTable); trace.* come from pairs
LAYER_METRICS = {
    "cli.import_core_s": ("s", "lower", lambda t: t.import_core_s),
    "cli.replica_ms.p50": ("ms", "lower", lambda t: _quantile(t.replica_ms, 0.5)),
    "cli.replica_ms.p90": ("ms", "lower", lambda t: _quantile(t.replica_ms, 0.9)),
    "cli.replicas": ("count", "higher", lambda t: len(t.replica_ms)),
    "hashing.vec_calls": ("count", "lower", lambda t: t.c["hashing.vec.calls"]),
    "hashing.vec_elements": ("count", "lower", lambda t: t.c["hashing.vec.elements"]),
    "hashing.vec_self_s": ("s", "lower", lambda t: t.c["hashing.vec.ns"] / 1e9),
    "hashing.vec_ns_per_element": ("ns", "lower", lambda t: _ratio(
        t.c["hashing.vec.ns"], t.c["hashing.vec.elements"])),
    "hashing.scalar_calls": ("count", "lower", lambda t: t.c["hashing.scalar.calls"]),
    "hashing.scalar_self_s": ("s", "lower", lambda t: t.c["hashing.scalar.ns"] / 1e9),
    "fpp.build_forest.calls": ("count", "lower", lambda t: t.calls["fpp.build_forest"]),
    "fpp.build_forest.self_s": ("s", "lower", lambda t: t.self_s("fpp.build_forest")),
    "fpp.incoming_weights.self_s": ("s", "lower", lambda t: t.self_s("fpp.incoming_weights")),
    "fpp.ns_per_vertex": ("ns", "lower", lambda t: _ratio(
        t.total_ns["fpp.build_forest"], t.c["fpp.vertices"])),
    "fpp.snapshot_text.s": ("s", "lower", lambda t: t.s("fpp.snapshot_text")),
    "fpp.snapshot_bytes": ("bytes", "lower", lambda t: t.c["fpp.snapshot_bytes"]),
    "fpp.load_snapshot.s": ("s", "lower", lambda t: t.s("fpp.load_snapshot")),
    "sidla.run_until_covered.s": ("s", "lower", lambda t: t.s("sidla.run_until_covered")),
    "sidla.events": ("count", "lower", lambda t: t.c["sidla.events"]),
    "sidla.us_per_event": ("us", "lower", lambda t: _ratio(
        t.total_ns["sidla.run_until_covered"] / 1e3, t.c["sidla.events"])),
    "sidla.extend_ratio": ("ratio", "higher", lambda t: _ratio(
        t.c["sidla.extensions"], t.c["sidla.events"])),
    "coupling.generate_rings.self_s": ("s", "lower", lambda t: t.self_s("coupling.generate_rings")),
    "coupling.aux_offsets.calls": ("count", "lower", lambda t: t.calls["coupling.aux_offsets"]),
    "coupling.aux_offsets.s": ("s", "lower", lambda t: t.s("coupling.aux_offsets")),
    "coupling.rings": ("count", "lower", lambda t: t.c["coupling.rings"]),
    "coupling.us_per_ring_generated": ("us", "lower", lambda t: _ratio(
        t.total_ns["coupling.generate_rings"] / 1e3, t.c["coupling.rings"])),
    "coupling.replay.s": ("s", "lower", lambda t: t.s("coupling.replay")),
    "coupling.us_per_ring_replayed": ("us", "lower", lambda t: _ratio(
        t.total_ns["coupling.replay"] / 1e3, t.c["coupling.replayed"])),
    "coupling.extend_ratio": ("ratio", "higher", lambda t: _ratio(
        t.c["coupling.extensions"], t.c["coupling.replayed"])),
    "coupling.pooled_gaps.s": ("s", "lower", lambda t: t.s("coupling.pooled_gaps")),
    "coupling.gaps_csv_text.s": ("s", "lower", lambda t: t.s("coupling.gaps_csv_text")),
    "analysis.extract_tree.calls": ("count", "lower", lambda t: t.calls["analysis.extract_tree"]),
    "analysis.extract_tree.s": ("s", "lower", lambda t: t.s("analysis.extract_tree")),
    "analysis.slim_levels.s": ("s", "lower", lambda t: t.s("analysis.slim_levels")),
    "analysis.root_heights.s": ("s", "lower", lambda t: t.s("analysis.root_heights")),
    "analysis.flank_left_distances.s": ("s", "lower", lambda t: t.s("analysis.flank_left_distances")),
    "analysis.level_profile.s": ("s", "lower", lambda t: t.s("analysis.level_profile")),
    "analysis.chi_square_compare.s": ("s", "lower", lambda t: t.s("analysis.chi_square_compare")),
    "analysis.ks_test_exp1.s": ("s", "lower", lambda t: t.s("analysis.ks_test_exp1")),
    "render.render_svg.s": ("s", "lower", lambda t: t.s("render.render_svg")),
    "render.svg_bytes": ("bytes", "lower", lambda t: t.c["render.svg_bytes"]),
    "fileio.atomic_write_text.s": ("s", "lower", lambda t: t.s("fileio.atomic_write_text")),
    "fileio.bytes_written": ("bytes", "lower", lambda t: t.c["fileio.bytes"]),
    "fileio.mb_per_s": ("MB/s", "higher", lambda t: _ratio(
        t.c["fileio.bytes"] / 1e6, t.s("fileio.atomic_write_text"))),
    "trace.overhead_frac": ("ratio", "lower", None),
    "trace.coverage": ("ratio", "higher", None),
}


def median_pass(passes: list[Pass], attr: str, scaled: bool = False) -> float:
    """Median over the passes of a time summed over the pass's commands,
    with each command's time scaled to the reference CPU speed if scaled."""
    return statistics.median(
        sum(v * (k if scaled else 1.0) for v, k in zip(getattr(p, attr), p.scales))
        for p in passes)


def layer_metrics(untraced: list[Pass], traced: list[Pass], import_core_s: float) -> dict:
    """Per-layer values averaged over the traced passes."""
    sums: dict[str, float] = defaultdict(float)
    coverage = []
    for p in traced:
        table = TraceTable(p.traces, import_core_s)
        for name, (_, _, value) in LAYER_METRICS.items():
            if value is not None:
                sums[name] += value(table)
        coverage.append(table.top_ns / 1e9 / sum(p.mains))
    out = {name: v / len(traced) for name, v in sums.items()}
    # traced processes run no speed probe, so that spans hold none of its
    # time; both sides are therefore unscaled
    out["trace.overhead_frac"] = (median_pass(traced, "main_cpus")
                                  / median_pass(untraced, "main_cpus") - 1.0)
    out["trace.coverage"] = statistics.mean(coverage)
    return out


# ---------------------------------------------------------------------------
# Runs


def machine_facts() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy")}


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def load_pins(path: Path | None) -> dict:
    if path is None or not path.exists():
        return {}
    return json.loads(path.read_text())


def find_pin(pins: dict, name: str, seed: int, cmds: list[Command]) -> dict | None:
    pin = pins.get(name, {}).get(str(seed))
    if pin is not None and pin["argv"] != [" ".join(c.argv) for c in cmds]:
        raise RuntimeError(
            f"pins for {name} seed {seed} were recorded for other commands; "
            f"re-record them with --record-pins")
    return pin


def record_pins(runner: Runner, name: str, seed: int, cmds: list[Command],
                path: Path) -> None:
    p = run_pass(runner, name, cmds, False, None, None)
    if p.failed:
        raise RuntimeError("refusing to pin a failing pass")
    pins = load_pins(path)
    pins.setdefault(name, {})[str(seed)] = {
        "argv": [" ".join(c.argv) for c in cmds], "exits": p.rcs,
        "sha256": {art: p.digests[art] for c in cmds for art in c.artifacts}}
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def measure(runner: Runner, args: argparse.Namespace) -> dict:
    wl = WORKLOADS[args.workload]
    cmds = wl.commands(args.seed, args.tiny)
    pins_path = args.pins if args.pins is not None else (None if args.tiny else PINS)
    pin = find_pin(load_pins(pins_path), wl.name, args.seed, cmds)
    if not args.tiny:
        warm = [c.argv for c in wl.commands(args.seed, True)]
        rc, _, _, _ = runner.child("result.json", json.dumps(warm), log="warmup.log")
        if rc not in (0, 2):
            raise RuntimeError(f"warm-up exited {rc}: {runner.log_tail('warmup.log')}")
    import_cpus = runner.fresh_imports(CORE_CODE if args.trace else SETUP_CODE,
                                        1 if args.tiny else SETUP_SAMPLES)

    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reference = untraced[0].digests if untraced else None
        untraced.append(run_pass(runner, wl.name, cmds, False, pin, reference))
        if args.trace:
            traced.append(run_pass(runner, wl.name, cmds, True, pin, untraced[0].digests))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    passes = untraced + traced
    failed = sum(p.failed for p in passes)
    attempted = len(cmds) * len(passes)
    if pin is None:
        attempted += sum(c.check == "snapshot" for c in cmds)
        failed += check_snapshots(runner, wl.name, cmds)

    if args.trace:
        metrics = layer_metrics(untraced, traced, statistics.median(import_cpus))
        missing = [m for m in wl.expects if not metrics[m]]
        if missing:
            raise RuntimeError(
                f"traced run of {wl.name} recorded nothing for {', '.join(missing)}; "
                f"a wrapped function was moved or is no longer called")
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        unscaled = {}
    else:
        replicas = sum(c.replicas for c in cmds)
        metrics = {
            "setup_s": statistics.median(import_cpus),
            "cpu_s": median_pass(untraced, "cpus", scaled=True),
            "seeds_per_s": replicas / median_pass(untraced, "main_cpus", scaled=True),
            "peak_rss_mb": statistics.median(max(p.rss) for p in untraced),
        }
        unscaled = {
            "cpu_s": median_pass(untraced, "cpus"),
            "seeds_per_s": replicas / median_pass(untraced, "main_cpus"),
        }
        units = {name: unit for name, (unit, _) in E2E_METRICS.items()}
    speeds = [PROBE_REF_S / k for p in untraced for k in p.scales]
    print(f"workload {wl.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(cmds)} command(s); fresh imports "
          + " ".join(f"{c:.3f}" for c in import_cpus) + " CPU s; probe loop "
          f"{min(speeds) * 1e6:.0f}-{max(speeds) * 1e6:.0f} us "
          f"(reference {PROBE_REF_S * 1e6:.0f} us)")
    for name, value in metrics.items():
        extra = f" (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    print(f"  wall_s = {median_pass(untraced, 'walls'):.6g} s (spawn to exit, median pass; "
          f"not gated: waits for the CPU count in it)")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run(args: argparse.Namespace) -> dict | None:
    work = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.record_pins:
            cmds = WORKLOADS[args.workload].commands(args.seed, args.tiny)
            record_pins(runner, args.workload, args.seed, cmds, args.pins or PINS)
            return None
        return measure(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--pins", type=Path, default=None,
                    help=f"pinned digests (default {PINS.relative_to(ROOT)}, none with --tiny)")
    ap.add_argument("--record-pins", action="store_true",
                    help="write one pass's digests for --seed into the pins file")
    args = ap.parse_args(argv)
    if args.record_pins and args.tiny and args.pins is None:
        ap.error("--record-pins --tiny needs --pins, so tiny pins stay out of the default file")
    if not (ROOT / "src" / "sidlalab" / "cli.py").is_file():
        print(f"error: no sidlalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = machine_facts()
    facts["loadavg_before"] = loadavg()
    result = run(args)
    facts["loadavg_after"] = loadavg()
    print("machine " + json.dumps(facts, sort_keys=True))
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
