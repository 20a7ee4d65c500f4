"""In-process tracing of sidlalab's public functions, for the traced run.

The tracer wraps functions of the installed ``sidlalab`` modules from the
outside: it replaces every module-level binding of a target function (and
class attributes for methods) with a wrapper that records a span.  No file
of the package is edited, so the untraced run measures the code as it is.

A span is ``[name, trace_id, parent, start_ns, end_ns, child_ns]``.  Spans
opened inside one replica task share the replica's seed as trace id;
``child_ns`` is the part of the span covered by its child spans and leaf
calls, so self time is ``end - start - child_ns``.  Functions called
hundreds of thousands of times per run (the hashes) are leaves: they are
aggregated as call counts, element counts and summed time, not spans.
Counters (bytes, rings, events, ...) are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name, counter function or None).
# A counter function maps (args, result) to {counter name: increment}.


def _vertices(args, forest):
    return {"fpp.vertices": forest.window.W * forest.window.M}


def _text_bytes(key):
    def count(args, text):
        return {key: len(text) if text.isascii() else len(text.encode("utf-8"))}
    return count


def _written(args, result):
    text = args[1]
    return {"fileio.bytes": len(text) if text.isascii() else len(text.encode("utf-8"))}


def _sidla_events(args, state):
    return {"sidla.events": state.n_rings, "sidla.extensions": state.n_occupied}


def _rings(args, rings):
    return {"coupling.rings": len(rings)}


def _replayed(args, state):
    return {"coupling.replayed": len(args[0]), "coupling.extensions": state.n_occupied}


SPAN_TARGETS = [
    ("cli", "build_parser", "cli.build_parser", None),
    ("fpp", "build_forest", "fpp.build_forest", _vertices),
    ("fpp", "WeightField.incoming_weights", "fpp.incoming_weights", None),
    ("fpp", "snapshot_text", "fpp.snapshot_text", _text_bytes("fpp.snapshot_bytes")),
    ("fpp", "load_snapshot", "fpp.load_snapshot", None),
    ("sidla", "run_until_covered", "sidla.run_until_covered", _sidla_events),
    ("coupling", "generate_rings", "coupling.generate_rings", _rings),
    ("coupling", "AuxClockField.offsets", "coupling.aux_offsets", None),
    ("coupling", "replay", "coupling.replay", _replayed),
    ("coupling", "pooled_gaps", "coupling.pooled_gaps", None),
    ("coupling", "gaps_csv_text", "coupling.gaps_csv_text", None),
    ("analysis", "extract_tree", "analysis.extract_tree", None),
    ("analysis", "slim_levels", "analysis.slim_levels", None),
    ("analysis", "root_heights", "analysis.root_heights", None),
    ("analysis", "flank_left_distances", "analysis.flank_left_distances", None),
    ("analysis", "level_profile", "analysis.level_profile", None),
    ("analysis", "chi_square_compare", "analysis.chi_square_compare", None),
    ("analysis", "ks_test_exp1", "analysis.ks_test_exp1", None),
    ("render", "render_svg", "render.render_svg", _text_bytes("render.svg_bytes")),
    ("fileio", "atomic_write_text", "fileio.atomic_write_text", _written),
]

# Per-seed tasks of the CLI's replica loop; each span takes the task's seed
# (its first int field) as trace id.
REPLICA_TARGETS = ["_fpp_task", "_sidla_task", "_couple_task", "_stats_task",
                   "_compare_task"]

# (module, function, leaf key, count result elements).  Only bindings outside
# ``hashing`` are wrapped, so hash_uniform calling hash_u64 counts once.
LEAF_TARGETS = [
    ("hashing", "hash_uniform_vec", "hashing.vec", True),
    ("hashing", "hash_u64_vec", "hashing.vec", True),
    ("hashing", "hash_uniform", "hashing.scalar", False),
    ("hashing", "hash_u64", "hashing.scalar", False),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.top_leaf_ns = 0

    def span(self, name, fn, counter=None, seeded=False):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if seeded:
                trace_id = next(v for v in args[0] if type(v) is int)
            else:
                trace_id = spans[parent][1] if parent is not None else None
            rec = [name, trace_id, parent, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += rec[4] - rec[3]
            if counter is not None:
                for key, inc in counter(args, result).items():
                    counters[key] += inc
            return result

        return wrapper

    def leaf(self, key, fn, elements):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter_ns
        calls_key, ns_key, el_key = key + ".calls", key + ".ns", key + ".elements"

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            counters[calls_key] += 1
            counters[ns_key] += dt
            if elements:
                counters[el_key] += result.size
            if stack:
                spans[stack[-1]][5] += dt
            else:
                self.top_leaf_ns += dt
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise LookupError naming any that is missing."""
        mods = {name: importlib.import_module(f"sidlalab.{name}")
                for name in ("cli", "hashing", "fpp", "sidla", "coupling",
                             "analysis", "render", "fileio")}
        for mod, attr, name, counter in SPAN_TARGETS:
            self._replace(mods[mod], attr, lambda fn: self.span(name, fn, counter))
        for attr in REPLICA_TARGETS:
            self._replace(mods["cli"], attr,
                          lambda fn: self.span("cli.replica", fn, seeded=True))
        for mod, attr, key, elements in LEAF_TARGETS:
            self._replace(mods[mod], attr,
                          lambda fn: self.leaf(key, fn, elements), skip=mods[mod])

    @staticmethod
    def _replace(module, attr, make, skip=None) -> None:
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, leaf, None) if owner is not None else None
        if orig is None:
            raise LookupError(
                f"traced target {module.__name__}.{attr} not found; the benchmark's "
                f"tracer (bench/tracer.py) must follow the function it wraps")
        wrapper = make(orig)
        if path:
            setattr(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is skip or not mod_name.startswith("sidlalab"):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "top_leaf_ns": self.top_leaf_ns}
