"""Transform, convolution, and exact-arithmetic checks for the core module.

Every derived expectation below is computed by an independent literal-loop
oracle in this file before being asserted against the library.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from trilinear_oracle import CharacterSum
from ulab.core import (
    GroupElem,
    GroupFn,
    GroupParams,
    PolyPhase,
    Subspace,
    _add_table,
    _digit_table,
    _sub_table,
    barconv,
    conv,
    correlation,
    dft,
    gf_nullspace,
    gf_rank,
    gf_rowreduce,
    group_fn_from_json,
    group_fn_to_json,
    idft,
    inv_mod,
    poly_phase_fn,
)

# ============================================================
# oracles: literal-sum implementations, no transforms
# ============================================================


def _dft_oracle(f: GroupFn) -> np.ndarray:
    par = f.params
    N = par.size
    out = np.zeros(N, dtype=np.complex128)
    w = np.exp(-2j * np.pi / par.p)
    for r in range(N):
        acc = 0j
        for x in range(N):
            acc += f.values[x] * w ** int(par.dot(x, r))
        out[r] = acc / N
    return out


def _barconv_oracle(f: GroupFn, g: GroupFn) -> np.ndarray:
    par = f.params
    N = par.size
    out = np.zeros(N, dtype=np.complex128)
    for x in range(N):
        acc = 0j
        for u in range(N):
            acc += f.values[u] * np.conj(g.values[par.sub(u, x)])
        out[x] = acc / N
    return out


def _conv_oracle(f: GroupFn, g: GroupFn) -> np.ndarray:
    par = f.params
    N = par.size
    out = np.zeros(N, dtype=np.complex128)
    for x in range(N):
        acc = 0j
        for u in range(N):
            acc += f.values[u] * g.values[par.sub(x, u)]
        out[x] = acc / N
    return out


def _poly_eval_oracle(q: PolyPhase, x: int) -> int:
    dig = q.params.digits(x)
    total = 0
    for mono, c in q.terms:
        t = c
        for v in mono:
            t *= int(dig[v])
        total += t
    return total % q.params.p


def _random_fn(par: GroupParams, rng: np.random.Generator) -> GroupFn:
    v = rng.standard_normal(par.size) + 1j * rng.standard_normal(par.size)
    return GroupFn(par, v)


# ============================================================
# element arithmetic
# ============================================================


def test_elem_add_mod5():
    par = GroupParams(5, 1)
    assert (GroupElem(par, 3) + GroupElem(par, 4)).index == 2


def test_elem_add_p3_n2():
    par = GroupParams(3, 2)
    # (1,2) + (2,2) = (0,1); little-endian indices 7, 8, 3
    a = GroupElem(par, 1 + 2 * 3)
    b = GroupElem(par, 2 + 2 * 3)
    assert (a + b).index == 0 + 1 * 3


def test_elem_identity_and_neg():
    par = GroupParams(5, 2)
    for i in [0, 7, 24]:
        x = GroupElem(par, i)
        assert (x + GroupElem(par, 0)).index == i
        assert (x + (-x)).index == 0


def test_dot_examples():
    par = GroupParams(5, 2)
    a = GroupElem(par, 1 + 2 * 5)
    b = GroupElem(par, 3 + 4 * 5)
    assert a.dot(b) == (1 * 3 + 2 * 4) % 5  # 11 mod 5 = 1
    assert a.dot(GroupElem(par, 0)) == 0
    e0, e1 = GroupElem(par, 1), GroupElem(par, 5)
    assert e0.dot(e0) == 1 and e1.dot(e1) == 1 and e0.dot(e1) == 0


# every F_p^n with p^n <= 49
SMALL_GROUPS = [
    (p, n)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for n in range(1, 6)
    if p**n <= 49
]


@pytest.mark.parametrize("p,n", SMALL_GROUPS)
def test_cayley_tables_match_group_arithmetic(p, n):
    params = GroupParams(p, n)
    idx = np.arange(params.size, dtype=np.int64)
    for table, op in ((_add_table(p, n), params.add), (_sub_table(p, n), params.sub)):
        assert table.dtype == np.int64
        assert np.array_equal(table, op(idx[:, None], idx[None, :]))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


@pytest.mark.parametrize("p,n", [(2, 1), (5, 2), (7, 2), (3, 3)])
def test_digits_gather_matches_table_indexing(p, n):
    # `digits` gathers rows with np.take; plain indexing of the table is the reference
    params = GroupParams(p, n)
    table = _digit_table(p, n)
    N = params.size
    rng = np.random.default_rng(p * 10 + n)
    cases = [
        3 % N,
        -1,
        np.int64(N - 1),
        np.int64(-N),
        np.array(2 % N),
        np.array(-2),
        np.arange(-N, N, dtype=np.int64),
        rng.integers(-N, N, size=(4, 6)),
        rng.integers(0, N, size=(3, 5)).astype(np.int32),
        [0, N - 1, -1],
        np.zeros(0, dtype=np.int64),
    ]
    for idx in cases:
        got, want = params.digits(idx), table[idx]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    for bad in (N, -N - 1, np.array([0, N])):
        with pytest.raises(IndexError):
            params.digits(bad)


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(4, 1)
    with pytest.raises(ValueError):
        GroupParams(2, 0)
    with pytest.raises(ValueError):
        GroupParams(2, 21)  # 2^21 > 10^6
    # rejected by the size bound, before a primality test or a power this large
    with pytest.raises(ValueError, match="size cap"):
        GroupParams(2**61 - 1, 1)
    with pytest.raises(ValueError, match="size cap"):
        GroupParams(2, 10**9)


# ============================================================
# GF(p) linear algebra
# ============================================================


def test_rowreduce_rank_nullspace():
    p = 5
    m = np.array([[1, 2, 3], [2, 4, 1], [3, 1, 4]])
    r = gf_rank(p, m)
    red, piv = gf_rowreduce(p, m)
    assert red.shape[0] == r == len(piv)
    null = gf_nullspace(p, m)
    assert null.shape[0] == 3 - r
    for row in null:
        assert np.all((m @ row) % p == 0)


def test_nullspace_dimension_random():
    rng = np.random.default_rng(5)
    for p in (3, 5):
        for _ in range(20):
            m = rng.integers(0, p, size=(3, 4))
            r = gf_rank(p, m)
            null = gf_nullspace(p, m)
            assert null.shape[0] == 4 - r
            if null.shape[0]:
                assert np.all((m @ null.T) % p == 0)
            assert gf_rank(p, null) == null.shape[0]


def test_inv_mod():
    for p in (3, 5, 7):
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1


# ============================================================
# transform
# ============================================================


def test_dft_constant_is_delta():
    par = GroupParams(5, 2)
    fh = dft(GroupFn.constant(par))
    expect = np.zeros(par.size, dtype=np.complex128)
    expect[0] = 1.0
    assert np.max(np.abs(fh.values - expect)) < 1e-12


def test_dft_character_is_shifted_delta():
    par = GroupParams(5, 2)
    s = 13
    table = par.dot(np.arange(par.size, dtype=np.int64), s)
    f = GroupFn.from_phases(par, table)
    fh = dft(f)
    expect = np.zeros(par.size, dtype=np.complex128)
    expect[s] = 1.0
    assert np.max(np.abs(fh.values - expect)) < 1e-12


def test_dft_point_mass_f5():
    # 1_{0} over F_5: f_hat(r) = 1/5 for every r
    par = GroupParams(5, 1)
    fh = dft(GroupFn.indicator(par, [0]))
    assert np.max(np.abs(fh.values - 0.2)) < 1e-14


def test_dft_matches_literal_oracle():
    rng = np.random.default_rng(0)
    for p, n in [(2, 3), (3, 2), (5, 1), (5, 2)]:
        par = GroupParams(p, n)
        f = _random_fn(par, rng)
        assert np.max(np.abs(dft(f).values - _dft_oracle(f))) < 1e-12


def test_inversion_roundtrip():
    rng = np.random.default_rng(1)
    par = GroupParams(5, 2)
    for _ in range(100):
        f = _random_fn(par, rng)
        back = idft(dft(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_parseval():
    rng = np.random.default_rng(2)
    for p, n in [(3, 2), (5, 2)]:
        par = GroupParams(p, n)
        for _ in range(20):
            f = _random_fn(par, rng)
            lhs = np.sum(np.abs(dft(f).values) ** 2)
            rhs = np.mean(np.abs(f.values) ** 2)
            assert abs(lhs - rhs) < 1e-12


# ============================================================
# convolutions
# ============================================================


def test_barconv_character_fixed_point():
    par = GroupParams(5, 1)
    table = par.dot(np.arange(5, dtype=np.int64), 2)
    f = GroupFn.from_phases(par, table)
    h = barconv(f, f)
    assert np.max(np.abs(h.values - f.values)) < 1e-12


def test_barconv_law_and_oracle():
    rng = np.random.default_rng(3)
    par = GroupParams(3, 2)
    for _ in range(10):
        f, g = _random_fn(par, rng), _random_fn(par, rng)
        h = barconv(f, g)
        assert np.max(np.abs(h.values - _barconv_oracle(f, g))) < 1e-12
        law = dft(f).values * dft(g).values.conj()
        assert np.max(np.abs(dft(h).values - law)) < 1e-10


def test_conv_delta():
    par = GroupParams(5, 2)
    N = par.size
    a, b = 3, 17
    fa = GroupFn(par, N * GroupFn.indicator(par, [a]).values)
    fb = GroupFn(par, N * GroupFn.indicator(par, [b]).values)
    h = conv(fa, fb)
    expect = N * GroupFn.indicator(par, [int(par.add(a, b))]).values
    assert np.max(np.abs(h.values - expect)) < 1e-9


def test_conv_matches_oracle():
    rng = np.random.default_rng(4)
    par = GroupParams(3, 2)
    for _ in range(10):
        f, g = _random_fn(par, rng), _random_fn(par, rng)
        assert np.max(np.abs(conv(f, g).values - _conv_oracle(f, g))) < 1e-12


# ============================================================
# subspaces
# ============================================================


def test_subspace_echelon_and_membership():
    par = GroupParams(5, 3)
    v = Subspace.from_generators(par, [par.index([1, 2, 0]), par.index([2, 4, 0]), par.index([0, 0, 1])])
    assert v.dim == 2  # second generator is dependent
    members = v.member_indices()
    assert members.size == 5**2
    for m in members[:10]:
        assert v.contains(int(m))
    assert not v.contains(int(par.index([0, 1, 0])))


def test_annihilator_dimensions_and_duality():
    rng = np.random.default_rng(6)
    par = GroupParams(3, 4)
    for _ in range(10):
        gens = rng.integers(0, par.size, size=2)
        v = Subspace.from_generators(par, gens)
        w = v.annihilator()
        assert v.dim + w.dim == par.n
        for a in v.member_indices():
            for b in w.member_indices():
                assert par.dot(int(a), int(b)) == 0


def test_subspace_transform_l1_is_one_exact():
    # The transform of a normalized subspace indicator has l1 norm exactly 1:
    # checked in rational arithmetic via character-sum counts per dual point.
    par = GroupParams(3, 3)
    v = Subspace.from_generators(par, [par.index([1, 0, 2]), par.index([0, 1, 1])])
    members = v.member_indices()
    total = Fraction(0)
    for r in range(par.size):
        cs = CharacterSum.from_values(par.p, par.dot(members, r))
        val = cs.rational_mean() * Fraction(members.size, par.size)
        total += abs(val)
    assert total == 1


# ============================================================
# phase polynomials, character sums, correlation
# ============================================================


def test_poly_phase_cube_value():
    par = GroupParams(5, 1)
    q = PolyPhase.from_coeffs(par, {(0, 0, 0): 1})
    f = poly_phase_fn(q)
    assert abs(f.values[2] - np.exp(2j * np.pi * 3 / 5)) < 1e-12  # 8 mod 5 = 3
    assert abs(f.norm_l2() - 1.0) < 1e-12


def test_poly_phase_table_matches_loop_oracle():
    rng = np.random.default_rng(7)
    par = GroupParams(5, 2)
    for _ in range(10):
        monos = [(), (0,), (1,), (0, 1), (1, 1), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
        q = PolyPhase.from_coeffs(par, {m: int(rng.integers(0, 5)) for m in monos})
        table = q.phase_table()
        for x in range(par.size):
            assert table[x] == _poly_eval_oracle(q, x)


def test_poly_degree_and_algebra():
    par = GroupParams(5, 2)
    q = PolyPhase.from_coeffs(par, {(0, 0, 0): 2, (1,): 3})
    assert {len(m) for m, _ in q.terms} == {1, 3}
    z = q - q
    assert z.terms == ()
    assert (q + q).coeffs[(0, 0, 0)] == 4


def test_character_sum_zero_form_is_one():
    cs = CharacterSum.from_values(5, np.zeros(125, dtype=np.int64))
    assert cs.rational_mean() == 1
    assert abs(cs.complex_mean() - 1) < 1e-12


def test_character_sum_balanced_is_zero():
    cs = CharacterSum.from_values(5, np.arange(25, dtype=np.int64))
    assert cs.rational_mean() == 0


def test_correlation_self_is_one():
    par = GroupParams(5, 2)
    q = PolyPhase.from_coeffs(par, {(0, 0, 1): 2, (1,): 1, (): 3})
    assert abs(correlation(poly_phase_fn(q), q) - 1.0) < 1e-12


def test_correlation_cross_matches_direct_sum():
    par = GroupParams(5, 1)
    q1 = PolyPhase.from_coeffs(par, {(0, 0, 0): 1})
    q2 = PolyPhase.from_coeffs(par, {(0, 0): 1})
    got = correlation(poly_phase_fn(q1), q2)
    diff = (q1 - q2).phase_table()
    expect = np.exp(2j * np.pi * diff / 5).mean()
    assert abs(got - expect) < 1e-12


def test_correlation_bounded():
    rng = np.random.default_rng(8)
    par = GroupParams(5, 1)
    f = GroupFn(par, rng.choice([-1.0, 1.0], size=5).astype(complex))
    q = PolyPhase.from_coeffs(par, {(0,): 2})
    assert abs(correlation(f, q)) <= 1 + 1e-12


# ============================================================
# serialization
# ============================================================


def test_json_roundtrip_values():
    rng = np.random.default_rng(9)
    par = GroupParams(3, 2)
    f = _random_fn(par, rng)
    back = group_fn_from_json(group_fn_to_json(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_json_roundtrip_phases():
    par = GroupParams(5, 1)
    q = PolyPhase.from_coeffs(par, {(0, 0, 0): 1, (0,): 2})
    f = poly_phase_fn(q)
    back = group_fn_from_json(group_fn_to_json(f))
    assert back.phases is not None
    assert np.array_equal(back.phases, f.phases)
