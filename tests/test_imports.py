"""Module boundaries of the package: no module of ``src/sidlalab`` reaches
into another module's private (underscore-prefixed) names, neither by a
``from`` import nor by an attribute of an imported module; and every public
name it defines is reached by the package itself, not by tests alone."""

import ast
from collections import Counter
from pathlib import Path

import sidlalab

SRC = Path(sidlalab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
# public names that only the benchmark's tracer and child name besides the
# tests; ROADMAP item 6b moves them to tests/oracles.py and empties this set
BENCH_ONLY = {"coverage_partition_check", "hash_uniform", "SidlaState.n_occupied"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(path: Path) -> list[str]:
    """The private names of other modules that one source file imports or
    reads as an attribute of an imported module."""
    tree = ast.parse(path.read_text(), str(path))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if node.level and node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"from {source} import {alias.name}")
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    uses = {path.name: private_uses(path) for path in sorted(SRC.glob("*.py"))}
    assert len(uses) > 5
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_check_sees_both_forms(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import fpp\nfrom .fpp import _tail_column, Forest\n"
                    "import numpy as np\nfpp._expect(np._NoValue)\nfpp.__name__\n")
    assert private_uses(path) == ["from .fpp import _tail_column", "fpp._expect",
                                  "np._NoValue"]


def referenced_names(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is read in a syntax tree: as a ``Name``, as an
    ``Attribute``'s attr or as an imported alias, and with strings also as
    a string constant that is an identifier (bench/tracer.py wraps the
    functions it names so)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names[node.value] += 1
    return names


def public_definitions(tree: ast.Module):
    """Yield (qualified name, node) for each public function and class of a
    module and each public method and property of its public classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def unreached_names(src: list[Path], bench: list[Path]) -> tuple[list[str], set[str]]:
    """The public names defined in src that no src statement outside their
    own definition reads: those that no bench file names either, and those
    that one does."""
    trees = [ast.parse(path.read_text(), str(path)) for path in src]
    used = sum((referenced_names(tree) for tree in trees), Counter())
    named = set().union(*(referenced_names(ast.parse(path.read_text(), str(path)), strings=True)
                          for path in bench))
    unused, bench_only = [], set()
    for tree in trees:
        for qualname, node in public_definitions(tree):
            if used[node.name] > referenced_names(node)[node.name]:
                continue
            if node.name in named:
                bench_only.add(qualname)
            else:
                unused.append(qualname)
    return unused, bench_only


def test_no_public_name_only_tests_reach():
    """North star 2, no public API that only tests use: every public
    function, class, method and property of the package is read by a src
    statement outside its own definition, or named by the benchmark's
    modules (its tests aside); the bench-only names are exactly BENCH_ONLY."""
    bench = [path for path in sorted(BENCH.glob("*.py")) if not path.name.startswith("test_")]
    assert len(bench) > 2
    unused, bench_only = unreached_names(sorted(SRC.glob("*.py")), bench)
    assert unused == []
    assert bench_only == BENCH_ONLY


def test_the_reach_check_skips_self_reference(tmp_path):
    src, bench = tmp_path / "m.py", tmp_path / "b.py"
    src.write_text("from .x import Used as U\n"
                   "class Used:\n    def run(self):\n        return Used\n"
                   "    @property\n    def size(self):\n        return self.run()\n"
                   "def recurse(n):\n    return recurse(n - 1)\n"
                   "def traced():\n    pass\n"
                   "def _private():\n    pass\n")
    bench.write_text('WRAP = [("m", "traced")]\n')
    assert unreached_names([src], [bench]) == (["Used.size", "recurse"], {"traced"})
