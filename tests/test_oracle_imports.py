"""The package never imports a test oracle.

Old routes kept as references live in `tests/*_oracle.py`; the code under
`src/ulab` must not reach them, so each module is parsed and its imports
are checked by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ulab

SRC = Path(ulab.__file__).resolve().parent


def _oracle_imports(tree: ast.AST) -> list[str]:
    """Every imported name with a dotted part ending in `_oracle`."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names += [base] + ["%s.%s" % (base, a.name) for a in node.names]
    return [m for m in names if any(part.endswith("_oracle") for part in m.split("."))]


def test_the_check_sees_every_import_form():
    tree = ast.parse(
        "import galg_oracle\n"
        "import numpy as np\n"
        "from tests.cli_oracle import vote_histogram\n"
        "from tests import core_oracle\n"
        "from .bilinear_oracle import bohr_decompose\n"
        "from .galg import line_conv\n"
    )
    assert _oracle_imports(tree) == [
        "galg_oracle",
        "tests.cli_oracle",
        "tests.cli_oracle.vote_histogram",
        "tests.core_oracle",
        "bilinear_oracle",
        "bilinear_oracle.bohr_decompose",
    ]


def test_no_package_module_imports_an_oracle():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    found = {
        path.name: _oracle_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in modules
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
