"""Every top-level definition in the package has a user in the package.

A `def` or `class` at the top of a `src/ulab` module, private or public but
not dunder, passes when its name appears in some package module outside its
own definition: as a name, an attribute or an imported name.  Strings do not
count, so neither does an `__all__` entry.  Code that only tests reach
belongs in `tests/*_oracle.py` or nowhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ulab

SRC = Path(ulab.__file__).resolve().parent

# Definitions whose users are outside the package.
ALLOWED = {
    # the package API, ulab.__all__
    *(
        "%s.%s" % (getattr(ulab, name).__module__.rpartition(".")[2], name)
        for name in ulab.__all__
        if callable(getattr(ulab, name))
    ),
    # the console script
    "cli.main",
    # JSON writers whose loaders the command line reads
    "arrange.partial_map_to_json",
    "core.group_fn_to_json",
    "grid.grid_fn_to_json",
    # the exact order-2 arrangement total for the densify criterion
    "grid.arr2_exact",
}


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name, attribute and imported name in tree, outside `skip`."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return used


def _unused(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level definition no module refers to."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(node.name in _names_used(t, skip=node) for t in trees.values()):
                found.append("%s.%s" % (module, node.name))
    return found


def test_the_check_sees_every_kind_of_use():
    sources = {
        "a": (
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def named_in_a_string(): pass\n"
            "NOTE = 'named_in_a_string'\n"
            "def called(): pass\n"
            "class Referenced:\n"
            "    def method(self): pass\n"
            "def imported(): pass\n"
            "def __dunder__(): pass\n"
        ),
        "b": (
            "from a import imported\n"
            "import a\n"
            "def user(): return a.called(), a.method\n"
            "x = Referenced\n"
        ),
    }
    assert _unused(sources) == ["a.exported", "a.recursive", "a.named_in_a_string", "b.user"]


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_package_definition_has_a_user():
    sources = _package_sources()
    assert len(sources) > 1
    assert [name for name in _unused(sources) if name not in ALLOWED] == []


def test_every_allowed_definition_exists():
    defined = {
        "%s.%s" % (module, node.name)
        for module, text in _package_sources().items()
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert ALLOWED - defined == set()
