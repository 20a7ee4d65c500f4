"""Module boundaries of the package: no module of ``src/sidlalab`` reaches
into another module's private (underscore-prefixed) names, neither by a
``from`` import nor by an attribute of an imported module."""

import ast
from pathlib import Path

import sidlalab

SRC = Path(sidlalab.__file__).parent


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
