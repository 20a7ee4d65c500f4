"""One benchmark process: import the CLI, run commands, report timings.

Usage:
    python3 bench/child.py RESULT_JSON COMMANDS_JSON [TRACE_JSON]
    python3 bench/child.py --import CODE RESULT_JSON
    python3 bench/child.py --check-snapshot PATH W M

COMMANDS_JSON is a JSON list of argument lists for ``sidlalab.cli.main``.
RESULT_JSON receives the import time, the wall and CPU time spent inside
``main`` and the exit code of each command; the process exits with the
first nonzero exit code.  With TRACE_JSON the tracer wraps the package's
public functions first and its spans and counters are written there.

Without TRACE_JSON, and in ``--import`` mode (which runs CODE, a few
import statements, in a fresh interpreter), a speed probe runs for the
whole process: see SpeedProbe.  Its samples are reported, and its own CPU
time is left out of every CPU time the process reports.

``--check-snapshot`` reloads a forest snapshot and checks that its root
labels partition every level; it exits 0 only if both succeed.
"""

from __future__ import annotations

import json
import signal
import sys
import time

PROBE_PERIOD_S = 0.01  # CPU time between two probes
PROBE_LOOPS = 2000


class SpeedProbe:
    """Measures how fast the CPU runs this process while it works.

    Every PROBE_PERIOD_S of the process's CPU time, a profiling timer signal
    runs a fixed pure-Python loop in the process's own thread and records
    the loop's CPU time.  A virtual CPU of a shared host runs the same code
    up to half again slower for seconds to minutes while other tenants load
    the physical core, and the guest does not count that as steal time; the
    loop slows with the code around it, so the mean loop time measures the
    CPU speed the work itself saw."""

    def __init__(self):
        self.n = 0
        self.ns = 0

    def _probe(self, signum, frame):
        t0 = time.thread_time_ns()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        self.ns += time.thread_time_ns() - t0
        self.n += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def report(self) -> dict:
        return {"probe_s": self.ns / 1e9, "probe_n": self.n}


def check_snapshot(path: str, W: int, M: int) -> int:
    from sidlalab import analysis, fpp
    from sidlalab.lattice import Window

    snap = fpp.load_snapshot(path)
    win = Window(W, M)
    if snap.window != win or not analysis.coverage_partition_check(snap, win):
        print(f"snapshot {path} fails the coverage partition check", file=sys.stderr)
        return 1
    return 0


def fresh_import(code: str, result_path: str) -> int:
    probe = SpeedProbe()
    probe.start()
    exec(code, {})
    probe.stop()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(probe.report(), fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "--check-snapshot":
        return check_snapshot(argv[1], int(argv[2]), int(argv[3]))
    if argv[0] == "--import":
        return fresh_import(argv[1], argv[2])
    result_path, commands = argv[0], json.loads(argv[1])
    traced = len(argv) > 2
    probe = SpeedProbe()
    if not traced:
        probe.start()
    t0 = time.perf_counter()
    import sidlalab.cli as cli
    import_s = time.perf_counter() - t0
    tracer = None
    if traced:
        from tracer import Tracer  # bench/ is sys.path[0]

        tracer = Tracer()
        tracer.install()
    runs = []
    for cmd in commands:
        t0, c0, p0 = time.perf_counter(), time.process_time(), probe.ns
        rc = cli.main(cmd)
        runs.append({"rc": rc, "main_s": time.perf_counter() - t0,
                     "main_cpu_s": time.process_time() - c0 - (probe.ns - p0) / 1e9})
        sys.stdout.flush()
    probe.stop()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "runs": runs, **probe.report()}, fh)
    if tracer is not None:
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return next((r["rc"] for r in runs if r["rc"]), 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
