"""Every top-level definition and method in the package has a user in the
package.

A `def` or `class` at the top of a `src/ulab` module, or a method of such a
class, private or public but not dunder, passes when its name appears in
some package module outside its own definition: as a name, an attribute or
an imported name.  Strings do not count, so neither does an `__all__`
entry.  Code that only tests reach belongs in `tests/*_oracle.py` or
nowhere.  The check matches names, so a method shares its users with every
same-named method, and such a method needs a look by hand.
"""

from __future__ import annotations

import ast
from collections import Counter
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
    # Subspace methods of the package API, ulab.__all__
    "core.Subspace.codim",
    "core.Subspace.contains",
    "core.Subspace.annihilator",
    # the report digest bench/run.py reads
    "pipeline.PipelineReport.canonical_bytes",
    # bench/tracer.py wraps it by name; it moves to tests/trilinear_oracle.py
    # once the benchmark's tracer drops that target (ROADMAP item 1)
    "trilinear.u3_lower",
}


def _names_used(tree: ast.AST) -> Counter:
    """How often each name, attribute and imported name occurs in tree."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rpartition(".")[2]] += 1
    return used


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level definition and each method
    of a top-level class, dunders left out."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("__") and node.name.endswith("__"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield "%s.%s" % (node.name, item.name), item


def _unused(sources: dict[str, str]) -> list[str]:
    """module.name of each definition no module refers to."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            # every use inside the definition itself is its own
            if used[node.name] == _names_used(node)[node.name]:
                found.append("%s.%s" % (module, name))
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
            "    def unused_method(self): return self.unused_method()\n"
            "    def __len__(self): return 0\n"
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
    assert _unused(sources) == [
        "a.exported",
        "a.recursive",
        "a.named_in_a_string",
        "a.Referenced.unused_method",
        "b.user",
    ]


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_package_definition_has_a_user():
    sources = _package_sources()
    assert len(sources) > 1
    assert [name for name in _unused(sources) if name not in ALLOWED] == []


def test_every_allowed_definition_exists():
    defined = {
        "%s.%s" % (module, name)
        for module, text in _package_sources().items()
        for name, _ in _definitions(ast.parse(text))
    }
    assert ALLOWED - defined == set()
