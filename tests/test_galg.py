"""Tests for group-algebra elements, the distance d, algebra-valued mixed
convolutions, and stability rounding by line votes."""

from __future__ import annotations

import numpy as np
import pytest

from cli_oracle import vote_histogram
from galg_oracle import adjoint, is_distribution, scale, scaled_by, uniform
from ulab.arrange import PartialMap
from ulab.core import GroupParams
from ulab.galg import (
    Dist,
    DistFn,
    bihom_defect,
    ddist,
    dist_product,
    gen_inner,
    mixed_conv_dist,
    grid_inner_dist,
)
from ulab.grid import MORSE8, GridFn, arr_functional
from ulab.pipeline import affine_in_each_variable, consensus_rounding


def _random_dist(params: GroupParams, rng: np.random.Generator) -> Dist:
    w = rng.random(params.size)
    return Dist.from_dense(params, w / w.sum())


def _random_sparse(params: GroupParams, rng: np.random.Generator, k: int = 3) -> Dist:
    support = rng.choice(params.size, size=min(k, params.size), replace=False)
    w = rng.random(len(support))
    return Dist(params, {int(g): float(v) for g, v in zip(support, w)})


# ============================================================
# products, adjoints, distance
# ============================================================


def test_dist_product_of_deltas():
    params = GroupParams(5, 1)
    prod = dist_product(Dist.delta(params, 2), Dist.delta(params, 4))
    assert prod.weights == {(2 + 4) % 5: 1.0}


def test_dist_product_uniform_idempotent():
    params = GroupParams(3, 1)
    u = uniform(params)
    prod = dist_product(u, u)
    assert np.allclose(prod.dense(), u.dense(), atol=1e-14)


def test_dist_product_totals_multiply():
    params = GroupParams(5, 1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = _random_sparse(params, rng), _random_sparse(params, rng)
        assert abs(dist_product(u, v).total() - u.total() * v.total()) < 1e-12


def test_adjoint_properties():
    params = GroupParams(5, 1)
    rng = np.random.default_rng(1)
    assert adjoint(Dist.delta(params, 2)).weights == {3: 1.0}
    for _ in range(5):
        u, v = _random_sparse(params, rng), _random_sparse(params, rng)
        lhs = adjoint(dist_product(u, v)).dense()
        rhs = dist_product(adjoint(u), adjoint(v)).dense()
        assert np.allclose(lhs, rhs, atol=1e-14)
        assert np.allclose(adjoint(adjoint(u)).dense(), u.dense(), atol=1e-15)


def test_ddist_frozen_values():
    params = GroupParams(5, 1)
    a, b = Dist.delta(params, 1), Dist.delta(params, 3)
    assert ddist(a, a) == 0.0
    assert ddist(a, b) == 1.0
    u = uniform(params)
    # <u, u> = 5 (1/5)^2 = 1/5
    assert abs(ddist(u, u) - (1 - 1 / 5)) < 1e-14


def test_dist_validation():
    params = GroupParams(3, 1)
    with pytest.raises(ValueError):
        Dist(params, {0: -0.5})
    with pytest.raises(ValueError):
        scale(Dist.delta(params, 0), -1.0)
    assert is_distribution(Dist.delta(params, 1))
    assert is_distribution(Dist.zero(params))
    assert not is_distribution(Dist.delta(params, 1, 0.7))


# ============================================================
# mixed convolution of algebra-valued grid functions
# ============================================================


def _full_delta_fn(params: GroupParams, vp: GroupParams) -> DistFn:
    pts = {(x, y): 0 for x in range(params.size) for y in range(params.size)}
    return DistFn.from_point_map(params, vp, pts)


def test_gen_inner_constant_delta_is_one():
    params = GroupParams(3, 1)
    phi = _full_delta_fn(params, params)
    assert abs(gen_inner([phi] * 8) - 1.0) < 1e-12


def test_gen_inner_reduces_to_scalar_arrangement_count():
    params = GroupParams(3, 1)
    rng = np.random.default_rng(2)
    mask = rng.random((3, 3)) < 0.6
    pts = {(x, y): 0 for x in range(3) for y in range(3) if mask[x, y]}
    phi = DistFn.from_point_map(params, params, pts)
    expected = arr_functional(GridFn.from_mask(params, mask))
    assert abs(gen_inner([phi] * 8) - expected) < 1e-12


def test_gen_inner_generalized_cauchy_schwarz():
    params = GroupParams(3, 1)
    rng = np.random.default_rng(3)
    for _ in range(30):
        phis = []
        for _ in range(8):
            pts = {
                (x, y): int(rng.integers(3))
                for x in range(3)
                for y in range(3)
                if rng.random() < 0.7
            }
            phis.append(DistFn.from_point_map(params, params, pts))
        cross = gen_inner(phis)
        bound = 1.0
        for f in phis:
            diag = gen_inner([f] * 8)
            assert diag >= -1e-12
            bound *= max(diag, 0.0) ** (1 / 8)
        assert cross <= bound + 1e-9


def test_bihom_defect_zero_for_bilinear_delta():
    params = GroupParams(3, 1)
    pts = {(x, y): (2 * x * y) % 3 for x in range(3) for y in range(3)}
    phi = DistFn.from_point_map(params, params, pts)
    mu = GridFn.constant(params, 1.0)
    assert abs(bihom_defect(phi, mu)) < 1e-12


def test_bihom_defect_zero_for_first_variable_function():
    params = GroupParams(3, 1)
    theta = [2, 0, 1]
    pts = {(x, y): theta[x] for x in range(3) for y in range(3)}
    phi = DistFn.from_point_map(params, params, pts)
    mu = GridFn.constant(params, 1.0)
    assert abs(bihom_defect(phi, mu)) < 1e-12


def _exhaustive_respect_ratio(params, mask, value_map):
    """Literal 8-parameter count of 4-arrangements in A and those whose
    signed value combination vanishes."""
    N = params.size
    grids = np.indices((N,) * 8).reshape(8, -1)
    x1, y1, yp1, x2, y2, yp2, w, h = (g.astype(np.int64) for g in grids)
    sub = params.sub
    pts = [
        (x1, y1),
        (x1, sub(y1, h)),
        (sub(x1, w), yp1),
        (sub(x1, w), sub(yp1, h)),
        (x2, y2),
        (x2, sub(y2, h)),
        (sub(x2, w), yp2),
        (sub(x2, w), sub(yp2, h)),
    ]
    inside = np.ones(x1.shape, dtype=bool)
    for (a, b) in pts:
        inside &= mask[a, b]
    signed = np.zeros(x1.shape, dtype=np.int64)
    for sign, (a, b) in zip(MORSE8, pts):
        vals = value_map[a, b]
        signed = params.add(signed, vals) if sign > 0 else sub(signed, vals)
    total = int(inside.sum())
    respected = int((inside & (signed == 0)).sum())
    return total, respected


def test_bihom_defect_matches_exhaustive_ratio():
    params = GroupParams(3, 1)
    rng = np.random.default_rng(4)
    for _ in range(3):
        mask = rng.random((3, 3)) < 0.7
        if not mask.any():
            continue
        value_map = rng.integers(0, 3, size=(3, 3))
        pts = {
            (x, y): int(value_map[x, y]) for x in range(3) for y in range(3) if mask[x, y]
        }
        phi = DistFn.from_point_map(params, params, pts)
        mu = GridFn.from_mask(params, mask)
        total, respected = _exhaustive_respect_ratio(params, mask, value_map)
        assert total > 0
        got = 1.0 - bihom_defect(phi, mu)
        assert abs(got - respected / total) < 1e-10


def test_bihom_defect_rejects_bad_mu():
    params = GroupParams(3, 1)
    phi = _full_delta_fn(params, params)
    with pytest.raises(ValueError):
        bihom_defect(phi, GridFn(params, -np.ones((3, 3), dtype=np.complex128)))
    with pytest.raises(ArithmeticError):
        bihom_defect(phi, GridFn.constant(params, 0.0))


def test_mixed_conv_dist_norm_equals_scalar_route():
    # mu delta_0-valued: the algebra norm must match the scalar functional
    params = GroupParams(3, 1)
    rng = np.random.default_rng(5)
    mask = rng.random((3, 3)) < 0.5
    pts = {(x, y): 0 for x in range(3) for y in range(3) if mask[x, y]}
    phi = DistFn.from_point_map(params, params, pts)
    F = mixed_conv_dist(phi, phi, phi, phi)
    scalar = arr_functional(GridFn.from_mask(params, mask))
    assert abs(grid_inner_dist(F, F) - scalar) < 1e-12


# ============================================================
# distance invariants
# ============================================================


def test_triangle_inequality():
    params = GroupParams(5, 1)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        a, b, c = (_random_dist(params, rng) for _ in range(3))
        assert ddist(a, c) <= ddist(a, b) + ddist(b, c) + 1e-12


def test_split_inequality():
    params = GroupParams(5, 1)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p1, p2, p3, p4 = (_random_dist(params, rng) for _ in range(4))
        lhs = ddist(dist_product(p1, p2), dist_product(p3, p4))
        assert lhs <= ddist(p1, p3) + ddist(p2, p4) + 1e-12


def test_cancellation_law():
    params = GroupParams(5, 1)
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(1000):
        g = int(rng.integers(5))
        base = Dist.delta(params, g).dense()
        noise_a, noise_b = rng.random(5), rng.random(5)
        a = Dist.from_dense(params, 0.8 * base + 0.2 * noise_a / noise_a.sum())
        b = Dist.from_dense(params, 0.75 * base + 0.25 * noise_b / noise_b.sum())
        if ddist(a, b) > 0.5:
            continue
        w = _random_dist(params, rng)
        assert ddist(a, b) <= ddist(dist_product(a, w), dist_product(b, w)) + 1e-12
        checked += 1
    assert checked >= 100


def test_adjoint_shift_identity():
    # d(fg, h) = d(f, g* h)
    params = GroupParams(5, 1)
    rng = np.random.default_rng(9)
    for _ in range(50):
        f, g, h = (_random_sparse(params, rng) for _ in range(3))
        lhs = ddist(dist_product(f, g), h)
        rhs = ddist(f, dist_product(adjoint(g), h))
        assert abs(lhs - rhs) < 1e-12


def test_perturbation_of_measure():
    params = GroupParams(3, 1)
    rng = np.random.default_rng(11)
    pts = {(x, y): int(rng.integers(3)) for x in range(3) for y in range(3)}
    psi = DistFn.from_point_map(params, params, pts)
    for _ in range(10):
        mu = GridFn(params, rng.random((3, 3)).astype(np.complex128))
        nu = GridFn(params, rng.random((3, 3)).astype(np.complex128))
        a = scaled_by(psi, mu)
        b = scaled_by(psi, nu)
        Fa = mixed_conv_dist(a, a, a, a)
        Fb = mixed_conv_dist(b, b, b, b)
        gap = abs(grid_inner_dist(Fa, Fa) - grid_inner_dist(Fb, Fb))
        l2 = float(np.sqrt(np.mean(np.abs(mu.values - nu.values) ** 2)))
        assert gap <= 8 * l2 + 1e-12


# ============================================================
# stability rounding: `consensus_rounding` rounds each value to the winner of
# its row and column votes, which `line_triple_conv` counts
# ============================================================


def _biaffine_map(params: GroupParams, rng: np.random.Generator) -> PartialMap:
    """A random bi-affine map G x G -> G on the full grid, in digit arithmetic."""
    p, n, N = params.p, params.n, params.size
    T = rng.integers(0, p, (n, n, n))
    s = rng.integers(0, p, (n, n))
    t = rng.integers(0, p, (n, n))
    e = rng.integers(0, p, n)
    dig = params.digits(np.arange(N, dtype=np.int64))
    table = (
        np.einsum("ai,cij,bj->abc", dig, T, dig) + (dig @ s.T)[:, None, :] + (dig @ t.T)[None, :, :] + e
    ) % p
    vals = params.index(table.reshape(-1, n)).reshape(N, N).astype(np.int64)
    return PartialMap(params, params, np.ones((N, N), dtype=bool), vals)


def _is_biaffine(phi: PartialMap) -> bool:
    """Every row and column difference is constant: the quadruple identities."""
    N = phi.params.size
    table = phi.value_params.digits(phi.values.reshape(-1)).reshape(N, N, -1)
    return affine_in_each_variable(phi.params, table)


def test_round_stability_recovers_exact_affine():
    params = GroupParams(5, 2)
    phi = _biaffine_map(params, np.random.default_rng(14))
    assert _is_biaffine(phi)
    rounded, stats = consensus_rounding(phi)
    assert np.array_equal(rounded.values, phi.values)
    assert stats["changed"] == 0
    assert stats["stability_min"] == 1.0
    assert stats["voted"] == params.size**2


def test_round_stability_single_reassigned_point():
    params = GroupParams(5, 2)
    truth = _biaffine_map(params, np.random.default_rng(15))
    vals = truth.values.copy()
    vals[7, 3] = (vals[7, 3] + 1) % params.size
    broken = PartialMap(params, params, truth.domain, vals)
    assert not _is_biaffine(broken)
    rounded, stats = consensus_rounding(broken)
    assert np.array_equal(rounded.values, truth.values)
    assert stats["changed"] == 1
    assert stats["stability_min"] < 1.0


def test_round_stability_agreement_bound_and_quadruples():
    params = GroupParams(5, 1)
    rng = np.random.default_rng(12)
    for _ in range(5):
        truth = _biaffine_map(params, rng)
        vals = truth.values.copy()
        a, b = rng.integers(0, 5, 2)
        vals[a, b] = (vals[a, b] + rng.integers(1, 5)) % 5
        broken = PartialMap(params, params, truth.domain, vals)
        rounded, stats = consensus_rounding(broken)
        # no more values move than were reassigned, and the result is exact
        assert stats["changed"] <= 1
        assert np.array_equal(rounded.values, truth.values)
        assert _is_biaffine(rounded)


def test_round_stability_flags_ties():
    # (2, 4) alone in its row but for (2, 1); its row and column votes tie
    # between 1 and 4, and the lowest tied value wins
    params = GroupParams(5, 1)
    pts = {(2, 1): 0, (2, 4): 4, (0, 4): 3, (1, 4): 2, (3, 4): 0, (4, 4): 4}
    phi = PartialMap.from_points(params, params, pts)
    hist = vote_histogram(phi)
    assert hist[2, 4].tolist() == [0, 12, 0, 4, 12]
    rounded, stats = consensus_rounding(phi)
    assert rounded.values[2, 4] == 1
    assert stats["stability_min"] < 0.5
    for (x, y) in pts:
        top = np.flatnonzero(hist[x, y] == hist[x, y].max())
        assert rounded.values[x, y] == top[0]
