"""The pipeline's one work budget is `PipelineConfig.size_cap`, checked once
by `validate` before a run; no kernel refuses on size after that.

So no `src/ulab` module names `BudgetError`, and every read of
`core.SIZE_CAP` outside `core.GroupParams`, whose ceiling on p^n it also
is, is a block size: the left operand of `SIZE_CAP // ...`.  Each module is
parsed and checked by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ulab

SRC = Path(ulab.__file__).resolve().parent


def _name(node: ast.AST) -> str | None:
    """The identifier a node names, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return node.name
    return None


def _misuses(tree: ast.AST, skip: str | None = None) -> list[int]:
    """Sorted lines of each `BudgetError` name and each `SIZE_CAP` read that
    is not a block size, outside the class named `skip`."""
    lines = []
    stack = [(tree, None)]
    while stack:
        node, parent = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == skip:
            continue
        name = _name(node)
        if name == "BudgetError":
            lines.append(node.lineno)
        elif name == "SIZE_CAP" and isinstance(getattr(node, "ctx", None), ast.Load):
            block_size = (
                isinstance(parent, ast.BinOp) and isinstance(parent.op, ast.FloorDiv) and parent.left is node
            )
            if not block_size:
                lines.append(node.lineno)
        stack.extend((child, node) for child in ast.iter_child_nodes(node))
    return sorted(lines)


def test_the_check_sees_every_refusal():
    tree = ast.parse(
        "from ulab.core import SIZE_CAP, BudgetError\n"  # 1: BudgetError
        "import ulab.core as core\n"
        "SIZE_CAP = 10\n"
        "block = max(1, SIZE_CAP // 4)\n"
        "def kernel(n):\n"
        "    if n > SIZE_CAP:\n"  # 6
        "        raise ValueError(n)\n"
        "    return core.SIZE_CAP // n, 2 * SIZE_CAP, n // SIZE_CAP\n"  # 8, 8
        "class GroupParams:\n"
        "    cap = SIZE_CAP\n"  # 10, skipped
        "try:\n"
        "    kernel(1)\n"
        "except BudgetError:\n"  # 13
        "    pass\n"
    )
    assert _misuses(tree) == [1, 6, 8, 8, 10, 13]
    assert _misuses(tree, skip="GroupParams") == [1, 6, 8, 8, 13]


def test_no_kernel_refuses_on_the_block_size():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert "core" in sources and "trilinear" in sources
    found = {
        module: lines
        for module, text in sources.items()
        if (lines := _misuses(ast.parse(text), skip="GroupParams" if module == "core" else None))
    }
    assert found == {}
