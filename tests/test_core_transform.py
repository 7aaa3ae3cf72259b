"""`core.char_transform` against the radix-p oracle in `core_oracle`, and a
guard that it is the package's only route to numpy's FFT.

The FFT and the tensordot passes sum the same characters in another order,
so on every F_p^n with p^n <= 343 the two must agree within 1e-12, forward
and inverse, on the first, a middle and the last axis of 1-, 2- and 3-D
batches; the inverse must undo the forward transform within 1e-12.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import core_oracle as oracle
from ulab.core import GroupParams, char_transform

TOL = 1e-12
GROUPS = [(p, n) for p in (2, 3, 5, 7, 11, 13, 31) for n in range(1, 9) if p**n <= 343]
# (batch rank, transformed axis): the first, a middle and the last axis
LAYOUTS = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(
    max_examples=5,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _oracle(values: np.ndarray, params: GroupParams, axis: int, inverse: bool) -> np.ndarray:
    p, n = params.p, params.n
    digits = values.reshape(values.shape[:axis] + (p,) * n + values.shape[axis + 1 :])
    sign, normalize = (+1, False) if inverse else (-1, True)
    return oracle.tensor_transform(digits, p, n, sign, normalize, start_axis=axis).reshape(values.shape)


@pytest.mark.parametrize("p,n", GROUPS)
@SETTINGS
@given(batch=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
def test_char_transform_matches_the_radix_p_oracle(p, n, batch, seed):
    params = GroupParams(p, n)
    rng = np.random.default_rng(seed)
    for rank, axis in LAYOUTS:
        shape = list(batch[: rank - 1])
        shape.insert(axis, params.size)
        f = rng.random(shape) * np.exp(2j * np.pi * rng.random(shape))
        fh = char_transform(f, params, axis=axis)
        assert np.abs(fh - _oracle(f, params, axis, inverse=False)).max() <= TOL
        # a spectrum of a bounded function, so the inverse stays bounded too
        back = char_transform(fh, params, axis=axis, inverse=True)
        assert np.abs(back - _oracle(fh, params, axis, inverse=True)).max() <= TOL
        assert np.abs(back - f).max() <= TOL


SRC = Path(__file__).resolve().parents[1] / "src" / "ulab"
REMOVED = {"tensor_transform", "_char_matrix", "_axis_transform", "_transform_rows", "_transform_cols"}


def _fft_refs(tree: ast.AST) -> int:
    """References to numpy's fft module: `np.fft`, `numpy.fft`, or an import
    of it."""
    refs = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            refs += isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            refs += node.module.startswith("numpy.fft") or (
                node.module == "numpy" and any(a.name == "fft" for a in node.names)
            )
        elif isinstance(node, ast.Import):
            refs += any(a.name.startswith("numpy.fft") for a in node.names)
    return refs


def test_char_transform_is_the_only_transform():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        assert not defined & REMOVED, "%s defines %s" % (path.name, sorted(defined & REMOVED))
        allowed = 0
        if path.name == "core.py":
            (helper,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "char_transform"]
            allowed = _fft_refs(helper)
            assert allowed > 0
        assert _fft_refs(tree) == allowed, "%s uses numpy.fft outside core.char_transform" % path.name
