"""Every module of the package uses what it imports, and ``cli`` imports
only public names of the package.

No linter ships with the project, so this reads each module's syntax tree
with the standard library: a name bound by an import must be read somewhere
in the module (a bare name, or the root of an attribute chain), or be listed
in ``__all__``; and no name that ``cli`` imports from another module of the
package starts with an underscore.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaugecool"


def unused_imports(source: str) -> list[str]:
    """The names that an import in source binds and nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import math\nimport numbers\nfrom x import a, b as c\n__all__ = ['a']\nnumbers.Real\n"
    assert unused_imports(source) == ["math", "c"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_imports(source: str) -> list[str]:
    """The _-prefixed names that source imports from the package: from a
    relative module or one under ``gaugecool``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "gaugecool"
        ):
            path = (node.module or "").split(".")
            names += [a.name for a in node.names if a.name.startswith("_")]
            names += [part for part in path if part.startswith("_")]
    return names


def test_the_check_sees_a_private_import():
    source = (
        "from __future__ import annotations\nfrom numpy import _x\n"
        "from .cooling import Held, _settled\nfrom gaugecool.dynamics import _step_maps\n"
        "from ._hidden import public\nfrom . import _module\n"
    )
    assert private_imports(source) == ["_settled", "_step_maps", "_hidden", "_module"]


def test_cli_imports_no_private_name():
    assert private_imports((PACKAGE / "cli.py").read_text()) == []
