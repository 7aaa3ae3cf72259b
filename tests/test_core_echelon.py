"""The batched F_p row reduction `core._echelon` and the views built on it
against the one-matrix loop in `core_oracle`.

The reduced row echelon form of a matrix is unique, so on every matrix of
a stack the kernel must return the oracle's nonzero rows, then zero rows,
and the oracle's pivot columns; `gf_rank`, `gf_nullspace` and, on every
system of a stack, `_solve_stack` must return the oracle's values (the
oracle's `gf_solve` for the last) bit for bit.  `gf_family_ranks` must give
each member of a linear family the oracle's rank, in index order, also for
the empty family; on a batch of families, shape (..., k, r, c), each
family's ranks must be those of its own call, in blocks of any size.
Inputs are random and often sparse, so zero and low-rank matrices come
up, over p in {2, 3, 5, 7, 13, 31}.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import core_oracle as oracle
from ulab.core import _echelon, _gf_matinv, _solve_stack, gf_family_ranks, gf_nullspace, gf_rank

PRIMES = [2, 3, 5, 7, 13, 31]
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _sparse(rng: np.random.Generator, p: int, shape: tuple[int, ...]) -> np.ndarray:
    """Entries in [-p, 2p), each kept with a random density, often low."""
    keep = rng.random(shape) < rng.choice([1.0, 0.5, 0.2, 0.05])
    return rng.integers(-p, 2 * p, size=shape) * keep


@SETTINGS
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([(), (1,), (5,), (2, 3)]),
    r=st.integers(0, 6),
    c=st.integers(0, 7),
)
def test_echelon_matches_the_loop_on_every_matrix(p, seed, batch, r, c):
    rng = np.random.default_rng(seed)
    stack = _sparse(rng, p, batch + (r, c))
    red, piv = _echelon(p, stack)
    assert red.shape == stack.shape and piv.shape == batch + (c,)
    ranks = gf_rank(p, stack)
    if batch:
        assert ranks.shape == batch
    else:
        assert type(ranks) is int
    for idx in np.ndindex(*batch):
        want, want_piv = oracle.gf_rowreduce(p, stack[idx])
        rank = len(want_piv)
        assert np.flatnonzero(piv[idx]).tolist() == want_piv
        assert np.array_equal(red[idx][:rank], want)
        assert not red[idx][rank:].any()
        assert (ranks[idx] if batch else ranks) == rank


@SETTINGS
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([(), (1,), (6,), (2, 3)]),
    r=st.integers(0, 6),
    c=st.integers(1, 7),
)
def test_solve_and_nullspace_match_the_loop(p, seed, batch, r, c):
    rng = np.random.default_rng(seed)
    mats = _sparse(rng, p, batch + (r, c))
    # a right-hand side in the column span half the time, so both answers come up
    rhs = np.where(
        rng.random(batch + (1,)) < 0.5, np.einsum("...rc,...c->...r", mats, rng.integers(0, p, batch + (c,))),
        _sparse(rng, p, batch + (r,)),
    )
    consistent, x = _solve_stack(p, np.concatenate([mats, rhs[..., None]], axis=-1))
    assert consistent.shape == batch and x.shape == batch + (c,)
    for idx in np.ndindex(*batch):
        want = oracle.gf_solve(p, mats[idx], rhs[idx])
        assert consistent[idx] == (want is not None)
        assert np.array_equal(x[idx], np.zeros(c, dtype=np.int64) if want is None else want)
        null = gf_nullspace(p, mats[idx])
        assert np.array_equal(null, oracle.gf_nullspace(p, mats[idx]))
        assert null.shape == (c - oracle.gf_rank(p, mats[idx]), c) and not (mats[idx] @ null.T % p).any()


@pytest.mark.parametrize("p", PRIMES)
def test_matinv_inverts_or_refuses_as_the_loop(p):
    rng = np.random.default_rng(p)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = _sparse(rng, p, (n, n))
        if oracle.gf_rank(p, m) < n:
            with pytest.raises(ValueError, match="singular"):
                _gf_matinv(p, m)
        else:
            inv = _gf_matinv(p, m)
            assert np.array_equal(m @ inv % p, np.eye(n, dtype=np.int64))


@SETTINGS
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 4),
    r=st.integers(0, 4),
    c=st.integers(0, 4),
)
def test_family_ranks_match_one_rank_per_member(p, seed, k, r, c):
    while p**k > 1000:
        k -= 1
    rng = np.random.default_rng(seed)
    mats = _sparse(rng, p, (k, r, c))
    ranks = gf_family_ranks(p, mats)
    assert ranks.shape == (p**k,)
    for u in range(p**k):
        coeffs = np.array([u // p**s % p for s in range(k)], dtype=np.int64)
        member = np.tensordot(coeffs, mats, axes=(0, 0)).reshape(r, c)
        assert ranks[u] == oracle.gf_rank(p, member)


def test_family_ranks_of_no_matrices_is_the_zero_combination():
    assert gf_family_ranks(5, np.zeros((0, 3, 2), dtype=np.int64)).tolist() == [0]


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_family_ranks_blocks_match_one_pass(monkeypatch, cap):
    # blocks of `cap` of the 9 members give the ranks of one block over all
    mats = _sparse(np.random.default_rng(cap), 3, (2, 3, 3))
    want = gf_family_ranks(3, mats)
    monkeypatch.setattr("ulab.core.SIZE_CAP", cap * 9)
    assert np.array_equal(gf_family_ranks(3, mats), want)


@settings(SETTINGS, max_examples=60)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([(), (7,), (2, 3)]),
    k=st.integers(0, 3),
    r=st.integers(0, 4),
    c=st.integers(0, 4),
)
def test_batched_family_ranks_match_one_call_per_family(p, seed, batch, k, r, c):
    while p**k > 1000:
        k -= 1
    mats = _sparse(np.random.default_rng(seed), p, batch + (k, r, c))
    ranks = gf_family_ranks(p, mats)
    assert ranks.shape == batch + (p**k,)
    for idx in np.ndindex(*batch):
        assert np.array_equal(ranks[idx], gf_family_ranks(p, mats[idx]))


@pytest.mark.parametrize("batch", [(), (7,), (2, 3)])
@pytest.mark.parametrize("members", [1, 3])
def test_batched_family_ranks_blocks_match_one_pass(monkeypatch, batch, members):
    # blocks of 1 or 3 of each family's 9 members, every family in each block
    mats = _sparse(np.random.default_rng(members), 3, batch + (2, 3, 3))
    empty = np.zeros(batch + (0, 3, 3), dtype=np.int64)
    want = [gf_family_ranks(3, mats[idx]) for idx in np.ndindex(*batch)]
    monkeypatch.setattr("ulab.core.SIZE_CAP", members * int(np.prod(batch)) * 9)
    got = gf_family_ranks(3, mats)
    assert [got[idx].tolist() for idx in np.ndindex(*batch)] == [w.tolist() for w in want]
    assert gf_family_ranks(3, empty).tolist() == np.zeros(batch + (1,), dtype=np.int64).tolist()


def test_family_ranks_refuse_more_combinations_than_the_cap():
    with pytest.raises(ValueError, match=r"^p\^k for p = 5, k = 9 \(the combinations of 9 matrices\) exceeds"):
        gf_family_ranks(5, np.ones((9, 1, 1), dtype=np.int64))
