"""Tests for derivative operators and the U^k norms, including the box-norm
identities |f|_{U^2} = |f(x+y)|_box and |f|_{U^3} = |f(x+y+z)|_box."""

from __future__ import annotations

import numpy as np
import pytest

from ulab.core import GroupElem, GroupFn, GroupParams, PolyPhase, poly_phase_fn
from ulab.gowers import derivative, derivative2, uk_norm
from ulab.grid import GridFn


# ============================================================
# oracles: literal averages, no transforms
# ============================================================


def _uk_oracle(f: GroupFn, k: int) -> float:
    """2^k-fold literal sum over x and k shift parameters."""
    params = f.params
    N = params.size
    idx = np.arange(N, dtype=np.int64)
    total = 0.0 + 0.0j
    count = 0
    shifts = np.stack(np.meshgrid(*([idx] * k), indexing="ij"), axis=-1).reshape(-1, k)
    for row in shifts:
        for x in range(N):
            prod = 1.0 + 0.0j
            for mask in range(2**k):
                pt = x
                bits = 0
                for j in range(k):
                    if (mask >> j) & 1:
                        pt = int(params.sub(np.int64(pt), np.int64(row[j])))
                        bits += 1
                v = f.values[pt]
                prod *= v.conjugate() if bits % 2 else v
            total += prod
            count += 1
    return abs(total / count) ** (1.0 / 2**k) if k == 0 else (total / count).real ** (
        1.0 / 2**k
    )


def _box2_oracle(F: GridFn) -> float:
    params = F.params
    N = params.size
    v = F.values
    total = 0.0 + 0.0j
    for x in range(N):
        for y in range(N):
            for a in range(N):
                for b in range(N):
                    xa = int(params.sub(np.int64(x), np.int64(a)))
                    yb = int(params.sub(np.int64(y), np.int64(b)))
                    total += v[x, y] * v[xa, y].conjugate() * v[x, yb].conjugate() * v[xa, yb]
    return (total / N**4).real ** 0.25


def _box3_oracle(params: GroupParams, vals: np.ndarray) -> float:
    N = params.size
    total = 0.0 + 0.0j
    for x in range(N):
        for y in range(N):
            for z in range(N):
                for a in range(N):
                    for b in range(N):
                        for c in range(N):
                            xa = int(params.sub(np.int64(x), np.int64(a)))
                            yb = int(params.sub(np.int64(y), np.int64(b)))
                            zc = int(params.sub(np.int64(z), np.int64(c)))
                            prod = 1.0 + 0.0j
                            for e1, pt1 in ((0, x), (1, xa)):
                                for e2, pt2 in ((0, y), (1, yb)):
                                    for e3, pt3 in ((0, z), (1, zc)):
                                        w = vals[pt1, pt2, pt3]
                                        if (e1 + e2 + e3) % 2:
                                            w = w.conjugate()
                                        prod *= w
                            total += prod
    return (total / N**6).real ** 0.125


def _sum_grid(f: GroupFn) -> GridFn:
    """F(x, y) = f(x + y)."""
    idx = np.arange(f.params.size, dtype=np.int64)
    return GridFn(f.params, f.values[f.params.add(idx[:, None], idx[None, :])])


def _sum_cube(f: GroupFn) -> np.ndarray:
    """F(x, y, z) = f(x + y + z), shape (N, N, N)."""
    idx = np.arange(f.params.size, dtype=np.int64)
    xy = f.params.add(idx[:, None], idx[None, :])
    return f.values[f.params.add(xy[:, :, None], idx[None, None, :])]


def _random_bounded(params: GroupParams, rng: np.random.Generator) -> GroupFn:
    mag = rng.uniform(0.0, 1.0, params.size)
    ang = rng.uniform(0.0, 2 * np.pi, params.size)
    return GroupFn(params, mag * np.exp(1j * ang))


# ============================================================
# derivatives
# ============================================================


def test_derivative_at_zero_is_abs_square():
    params = GroupParams(5, 1)
    rng = np.random.default_rng(1)
    f = _random_bounded(params, rng)
    d = derivative(f, 0)
    assert np.allclose(d.values, np.abs(f.values) ** 2, atol=1e-14)


def test_derivative_phase_exact_on_cubic():
    # f = omega^{x^3} over F_5; d_1 f = omega^{3x^2 - 3x + 1}
    params = GroupParams(5, 1)
    f = poly_phase_fn(PolyPhase.from_coeffs(params, {(0, 0, 0): 1}))
    d = derivative(f, GroupElem(params, 1))
    assert d.phases is not None
    expected = np.array([(3 * x * x - 3 * x + 1) % 5 for x in range(5)])
    assert np.array_equal(d.phases, expected)


def test_second_derivative_of_quadratic_is_constant_phase():
    params = GroupParams(5, 1)
    f = poly_phase_fn(PolyPhase.from_coeffs(params, {(0, 0): 2}))  # omega^{2x^2}
    d = derivative2(f, 1, 2)
    assert d.phases is not None
    # d_b d_a omega^{2x^2} = omega^{4ab}, independent of x
    assert np.all(d.phases == d.phases[0])
    assert d.phases[0] == (4 * 1 * 2) % 5


# ============================================================
# U^k norms
# ============================================================


def test_u1_is_abs_mean():
    params = GroupParams(5, 1)
    rng = np.random.default_rng(2)
    f = _random_bounded(params, rng)
    got = uk_norm(f, 1).value
    assert abs(got - abs(f.values.mean())) < 1e-12
    # a nontrivial character averages to zero
    chi = poly_phase_fn(PolyPhase.from_coeffs(params, {(0,): 1}))
    assert uk_norm(chi, 1).value < 1e-12


def test_u2_frozen_values():
    params = GroupParams(5, 1)
    one = GroupFn.constant(params, 1.0)
    assert abs(uk_norm(one, 2).value - 1.0) < 1e-12
    # indicator of {0}: fhat = 1/5 everywhere, power = 5 * (1/5)^4 = 5^{-3}
    ind = GroupFn.indicator(params, [0])
    assert abs(uk_norm(ind, 2).value - 5 ** (-3 / 4)) < 1e-12


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_uk_direct_method_matches_nested(p, n, k):
    params = GroupParams(p, n)
    rng = np.random.default_rng(100 * p + 10 * n + k)
    for _ in range(3):
        f = _random_bounded(params, rng)
        a = uk_norm(f, k, "nested").value
        b = uk_norm(f, k, "direct").value
        assert abs(a - b) < 1e-9


@pytest.mark.parametrize("k", [2, 3])
def test_uk_matches_literal_oracle(k):
    params = GroupParams(3, 1)
    rng = np.random.default_rng(40 + k)
    f = _random_bounded(params, rng)
    assert abs(uk_norm(f, k).value - _uk_oracle(f, k)) < 1e-9


def test_u3_of_cubic_phase_routes_agree():
    params = GroupParams(5, 1)
    f = poly_phase_fn(PolyPhase.from_coeffs(params, {(0, 0, 0): 1}))
    a = uk_norm(f, 3, "nested").value
    b = uk_norm(f, 3, "direct").value
    assert abs(a - b) < 1e-10


def test_u3_of_quadratic_phase_is_one():
    params = GroupParams(5, 1)
    f = poly_phase_fn(PolyPhase.from_coeffs(params, {(0, 0): 1, (0,): 3}))
    assert abs(uk_norm(f, 3).value - 1.0) < 1e-12


def test_u4_nesting_identity():
    rng = np.random.default_rng(5)
    for params in (GroupParams(3, 2), GroupParams(5, 1)):
        for _ in range(5):
            f = _random_bounded(params, rng)
            a = uk_norm(f, 4).value
            # |f|_{U^4}^16 = E_a |d_a f|_{U^3}^8
            b = np.mean([uk_norm(derivative(f, s), 3).value ** 8 for s in range(params.size)]) ** (1 / 16)
            assert abs(a - b) < 1e-9


def test_u4_of_cubic_phase_is_one():
    params = GroupParams(5, 2)
    q = PolyPhase.from_coeffs(params, {(0, 0, 0): 2, (0, 0, 1): 1, (1,): 4, (): 3})
    f = poly_phase_fn(q)
    assert abs(uk_norm(f, 4).value - 1.0) < 1e-12


def test_uk_monotonicity():
    params = GroupParams(3, 2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = _random_bounded(params, rng)
        vals = [uk_norm(f, k).value for k in (1, 2, 3, 4)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9


def test_uk_method_errors():
    params = GroupParams(5, 1)
    f = GroupFn.constant(params, 1.0)
    with pytest.raises(ValueError):
        uk_norm(f, 5)
    with pytest.raises(ValueError):
        uk_norm(f, 2, "bogus")
    big = GroupFn.constant(GroupParams(5, 3), 1.0)
    with pytest.raises(ValueError):
        uk_norm(big, 2, "direct")


# ============================================================
# box norms: with x - x', y - y' (and z - z') as the shifts, the box average
# of f(x + y) is the U^2 average of f, and that of f(x + y + z) the U^3 one
# ============================================================


def test_box2_constant_is_one():
    params = GroupParams(3, 1)
    one = GroupFn.constant(params, 1.0)
    assert abs(_box2_oracle(_sum_grid(one)) - 1.0) < 1e-12
    assert abs(uk_norm(one, 2).value - 1.0) < 1e-12


def test_box2_bilinear_phase_frozen():
    # F(x, y) = omega^{xy} over F_5: fourth power is exactly 1/5.  Since
    # xy = 3(x + y)^2 - 3x^2 - 3y^2 mod 5 and phases in one variable cancel
    # in the box average, |F|_box = |omega^{3s^2}|_{U^2}.
    params = GroupParams(5, 1)
    x = np.arange(5)
    F = GridFn.from_phases(params, np.outer(x, x) % 5)
    assert abs(_box2_oracle(F) - (1 / 5) ** 0.25) < 1e-12
    q = poly_phase_fn(PolyPhase.from_coeffs(params, {(0, 0): 3}))
    assert abs(uk_norm(q, 2).value - (1 / 5) ** 0.25) < 1e-12


def test_box2_matches_literal_oracle():
    rng = np.random.default_rng(7)
    for params in (GroupParams(3, 1), GroupParams(5, 1), GroupParams(3, 2)):
        f = _random_bounded(params, rng)
        assert abs(uk_norm(f, 2).value - _box2_oracle(_sum_grid(f))) < 1e-10


def test_box3_trilinear_phase_frozen():
    # F = omega^{xyz} over F_5: eighth power is the zero-set density 9/25.
    # (x + y + z)^3 = 6xyz = xyz mod 5 up to phases in at most two of the
    # variables, which cancel in the box average, so |F|_box = |omega^{s^3}|_{U^3}.
    params = GroupParams(5, 1)
    x = np.arange(5)
    cube = np.einsum("i,j,k->ijk", x, x, x) % 5
    vals = np.exp(2j * np.pi * cube / 5)
    assert abs(_box3_oracle(params, vals) - (9 / 25) ** 0.125) < 1e-12
    c = poly_phase_fn(PolyPhase.from_coeffs(params, {(0, 0, 0): 1}))
    assert abs(uk_norm(c, 3).value - (9 / 25) ** 0.125) < 1e-12


def test_box3_matches_literal_oracle():
    params = GroupParams(3, 1)
    rng = np.random.default_rng(8)
    for _ in range(2):
        f = _random_bounded(params, rng)
        assert abs(uk_norm(f, 3).value - _box3_oracle(params, _sum_cube(f))) < 1e-10
