"""Every private top-level definition of the package is read somewhere.

Like ``test_imports``, this reads syntax trees with the standard library: a
function or class defined at the top level of a module in ``src/gaugecool``
whose name has one leading underscore must be read, as a bare name or as an
attribute, by some module in ``src/`` or ``tests/``.  Being imported alone
does not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugecool"
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def private_definitions(source: str) -> list[str]:
    """The private functions and classes that source defines at its top level."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body
            if isinstance(node, defs) and node.name.startswith("_")
            and not node.name.startswith("__")]


def read_names(source: str) -> set[str]:
    """Every bare name and attribute name that source reads."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unreferenced(source: str, readers: list[str]) -> list[str]:
    """The private definitions of source that none of the readers reads."""
    read = set().union(*map(read_names, readers))
    return [name for name in private_definitions(source) if name not in read]


def test_the_check_sees_an_unreferenced_definition():
    module = ("def _used(): pass\ndef _by_attr(): pass\ndef _imported(): pass\n"
              "class _Gone: pass\ndef __dunder__(): pass\ndef public(): _used()\n")
    reader = "from m import _imported\nimport m\nm._by_attr()\n"
    assert unreferenced(module, [module, reader]) == ["_imported", "_Gone"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_private_definition_is_read(module):
    readers = [path.read_text() for path in READERS]
    assert unreferenced((PACKAGE / module).read_text(), readers) == []
