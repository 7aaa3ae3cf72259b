"""Property tests: the character-stack route of `ulab.galg` against the
dict-loop oracle in `galg_oracle`.

Parseval over the value group H turns the algebra-valued mixed convolution
into |H| scalar ones; these tests draw non-negative multi-point tables, a
non-uniform mu, and value groups equal to and different from the domain.
On a line, the character transform over G x H carries the rounding kernel
theta = phi * phi * phi^adj; these tests draw sparse random, perturbed
affine, uniform and two-point lines, whose theta ties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import galg_oracle as oracle
from ulab import galg
from ulab.arrange import PartialMap, respect_stats
from ulab.core import GroupParams
from ulab.galg import (
    Dist,
    DistFn,
    bihom_defect,
    gen_inner,
    grid_inner_dist,
    line_triple_conv,
    mixed_conv_dist,
)
from ulab.grid import GridFn

TOL = 1e-12
# every F_p^n with p in {2, 3, 5} and p^n <= 9
DOMAINS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
VALUE_GROUPS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def groups(draw, domains=DOMAINS):
    """(domain, value group), the value group equal to the domain half the time."""
    dom = GroupParams(*draw(st.sampled_from(domains)))
    same = draw(st.booleans())
    val = dom if same else GroupParams(*draw(st.sampled_from(VALUE_GROUPS)))
    return dom, val


@st.composite
def dist_fns(draw, params: GroupParams, vp: GroupParams) -> DistFn:
    """Tables with up to three weighted points per cell and some empty cells."""
    N, K = params.size, vp.size
    cell = st.one_of(
        st.none(),
        st.dictionaries(
            st.integers(0, K - 1), st.floats(0.01, 1.0), min_size=1, max_size=min(3, K)
        ),
    )
    cells = draw(st.lists(cell, min_size=N * N, max_size=N * N))
    tab = {
        (i // N, i % N): Dist(vp, w) for i, w in enumerate(cells) if w is not None
    }
    return DistFn(params, vp, tab)


def _mu(draw, params: GroupParams) -> GridFn:
    N = params.size
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=N * N, max_size=N * N))
    return GridFn(params, np.array(w).reshape(N, N))


def _dense(F: DistFn) -> np.ndarray:
    N = F.params.size
    out = np.zeros((N, N, F.value_params.size))
    for (x, y), u in F.table.items():
        out[x, y] = u.dense()
    return out


@SETTINGS
@given(st.data())
def test_bihom_defect_matches_oracle(data):
    params, vp = data.draw(groups())
    phi = data.draw(dist_fns(params, vp))
    mu = _mu(data.draw, params)
    try:
        want = oracle.bihom_defect(phi, mu)
    except ArithmeticError:
        assume(False)
    assert abs(bihom_defect(phi, mu) - want) <= TOL


@SETTINGS
@given(st.data())
def test_mixed_conv_dist_and_gen_inner_match_oracle(data):
    # keep the eight-function oracle cheap: domains of size at most 5
    params, vp = data.draw(groups([(2, 1), (3, 1), (2, 2), (5, 1)]))
    phis = [data.draw(dist_fns(params, vp)) for _ in range(8)]
    got = mixed_conv_dist(*phis[:4])
    want = oracle.mixed_conv_dist(*phis[:4])
    assert np.max(np.abs(_dense(got) - _dense(want))) <= TOL
    assert abs(gen_inner(phis) - oracle.gen_inner(phis)) <= TOL


@pytest.mark.parametrize("domain", DOMAINS, ids=["F_%d^%d" % d for d in DOMAINS])
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_exact_respect_counts_match_oracle(domain, data):
    params = GroupParams(*domain)
    vp = data.draw(st.sampled_from([params] + [GroupParams(*v) for v in VALUE_GROUPS]))
    N = params.size
    dom = np.array(data.draw(st.lists(st.booleans(), min_size=N * N, max_size=N * N)))
    assume(dom.any())
    vals = data.draw(st.lists(st.integers(0, vp.size - 1), min_size=N * N, max_size=N * N))
    dom = dom.reshape(N, N)
    phi = PartialMap(params, vp, dom, np.where(dom, np.reshape(vals, (N, N)), 0))
    got = respect_stats(phi, order=1, mode="exact")
    F = phi.to_dist_fn()
    M = oracle.mixed_conv_dist(F, F, F, F)
    assert got.respected == float(round(grid_inner_dist(M, M) * float(N) ** 8))


# ============================================================
# lines G -> Sigma(H)
# ============================================================

LINE_GROUPS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (2, 3)]


@st.composite
def lines(draw) -> tuple[GroupParams, list[Dist]]:
    """(domain, line of distributions) in one of four shapes: sparse random,
    an affine map with part of its mass moved at some points (a constant one
    when the characteristics differ), uniform everywhere (theta ties at every
    value), and two equal points a shift h apart (theta ties at two)."""
    params = GroupParams(*draw(st.sampled_from(LINE_GROUPS)))
    vp = params if draw(st.booleans()) else GroupParams(*draw(st.sampled_from(LINE_GROUPS)))
    N, q = params.size, vp.size
    kind = draw(st.sampled_from(["sparse", "affine", "uniform", "two-point"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if vp.p == params.p:
        M = rng.integers(0, vp.p, (params.n, vp.n))
        dig = params.digits(np.arange(N, dtype=np.int64))
        A = vp.index((dig @ M + rng.integers(0, vp.p, vp.n)) % vp.p)
    else:
        A = np.full(N, rng.integers(q))
    dense = np.zeros((N, q))
    if kind == "sparse":
        for x in range(N):
            support = rng.choice(q, size=rng.integers(1, min(3, q) + 1), replace=False)
            dense[x, support] = rng.random(len(support)) + 0.01
    elif kind == "affine":
        dense[np.arange(N), A] = 1.0
        for x in np.nonzero(rng.random(N) < 0.3)[0]:
            eps = 0.2 * rng.random()
            dense[x] *= 1 - eps
            dense[x, rng.integers(q)] += eps
    elif kind == "uniform":
        dense[:] = 1.0
    else:
        dense[np.arange(N), A] += 0.5
        dense[np.arange(N), vp.add(A, np.int64(rng.integers(1, q)))] += 0.5
    dense /= dense.sum(axis=1, keepdims=True)
    return params, [Dist.from_dense(vp, row) for row in dense]


def _line_dense(phi: list[Dist]) -> np.ndarray:
    return np.stack([u.dense() for u in phi])


def _oracle_theta(phi: list[Dist], params: GroupParams) -> np.ndarray:
    """theta = phi * (phi * phi^adj)^adj by the oracle's dict loops."""
    psi = oracle.line_conv(phi, oracle.line_adjoint(phi, params), params)
    return _line_dense(oracle.line_conv(phi, oracle.line_adjoint(psi, params), params))


@settings(SETTINGS, max_examples=60)
@given(lines())
def test_line_algebra_matches_oracle(case):
    params, phi = case
    theta = line_triple_conv(_line_dense(phi)[None], params, phi[0].params)[0]
    assert np.max(np.abs(theta - _oracle_theta(phi, params))) <= TOL


def test_line_triple_conv_blocks_match_the_oracle(monkeypatch):
    # with the budget at two lines' elements, five lines go in three blocks
    params, vp = GroupParams(3, 2), GroupParams(5, 1)
    stack = np.random.default_rng(4).random((5, params.size, vp.size))
    stack /= stack.sum(axis=2, keepdims=True)
    monkeypatch.setattr(galg, "SIZE_CAP", 2 * params.size * vp.size)
    got = line_triple_conv(stack, params, vp)
    for line, theta in zip(stack, got):
        phi = [Dist.from_dense(vp, row) for row in line]
        assert np.max(np.abs(theta - _oracle_theta(phi, params))) <= TOL
