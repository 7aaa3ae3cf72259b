"""Property tests: the cubic's polarisation certificate against the
exhaustive check over all p^{4n} points in `trilinear_oracle`.

`kappa_from_sigma` certifies by comparing coefficient tensors that the
alternating sum of kappa(x) = sigma(x,x,x) is -6 sigma; the oracle checks
the same identity at every (x, a, b, c).  On every F_p^n with p >= 5 and
p^{4n} <= 10^6 they must return identical terms and constants.  A kappa
with one coefficient changed must fail the certificate on every group, and
also the oracle where sigma has at least two monomials.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trilinear_oracle as oracle
from ulab.core import GroupParams, PolyPhase
from ulab.trilinear import TrilinearForm, _alternating_sum_form, kappa_from_sigma

# every F_p^n with p >= 5 and p^{4n} <= 10^6
GROUPS = [(5, 1), (7, 1), (11, 1), (13, 1), (31, 1), (5, 2)]
P52 = GroupParams(5, 2)
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_symmetric(params: GroupParams, rng: np.random.Generator) -> TrilinearForm:
    """Sum over the 6 argument orders of a random tensor, often sparse, so
    zero forms and forms with one monomial come up too."""
    n, p = params.n, params.p
    raw = rng.integers(0, p, size=(n, n, n)) * (rng.random((n, n, n)) < rng.random())
    acc = sum(np.transpose(raw, perm) for perm in itertools.permutations(range(3)))
    return TrilinearForm(params, acc)


def _certified(kappa: PolyPhase, sigma: TrilinearForm, cstar: int) -> bool:
    return not np.any((-_alternating_sum_form(kappa) - cstar * sigma.coeffs) % sigma.params.p)


@SETTINGS
@given(st.sampled_from(GROUPS), st.integers(0, 2**32 - 1))
def test_kappa_matches_the_exhaustive_check(group, seed):
    sigma = _random_symmetric(GroupParams(*group), np.random.default_rng(seed))
    kappa, cstar = kappa_from_sigma(sigma)
    ref_kappa, ref_cstar = oracle.kappa_from_sigma(sigma)
    assert kappa.terms == ref_kappa.terms
    assert cstar == ref_cstar == (-6) % sigma.params.p


def _mutated(kappa: PolyPhase, rng: np.random.Generator) -> PolyPhase:
    """kappa with the coefficient of one random cubic monomial changed."""
    params = kappa.params
    cubics = list(itertools.combinations_with_replacement(range(params.n), 3))
    mono = cubics[int(rng.integers(len(cubics)))]
    changed = dict(kappa.terms)
    changed[mono] = changed.get(mono, 0) + int(rng.integers(1, params.p))
    return PolyPhase.from_coeffs(params, changed)


@SETTINGS
# the certificate alone also reaches groups past the oracle's p^{4n}
@given(st.sampled_from(GROUPS + [(7, 2), (11, 2), (5, 3)]), st.integers(0, 2**32 - 1))
def test_a_changed_coefficient_fails_the_certificate(group, seed):
    rng = np.random.default_rng(seed)
    sigma = _random_symmetric(GroupParams(*group), rng)
    kappa, cstar = kappa_from_sigma(sigma)
    assert _certified(kappa, sigma, cstar)
    assert not _certified(_mutated(kappa, rng), sigma, cstar)


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_a_changed_coefficient_fails_both_checks(seed):
    # F_5^2 is the one group above with p^{4n} <= 10^6 and more than one
    # cubic monomial; with a single monomial a changed kappa stays
    # proportional to sigma, and the oracle, which solves for its constant,
    # accepts it
    rng = np.random.default_rng(seed)
    kappa = PolyPhase.from_coeffs(P52, {})
    while len(kappa.terms) < 2:
        sigma = _random_symmetric(P52, rng)
        kappa, cstar = kappa_from_sigma(sigma)
    assert oracle.alternating_sum_constant(kappa, sigma) == cstar
    mutant = _mutated(kappa, rng)
    assert not _certified(mutant, sigma, cstar)
    with pytest.raises(RuntimeError):
        oracle.alternating_sum_constant(mutant, sigma)


def test_alternating_sum_form_counts_every_ordering():
    params = GroupParams(7, 3)
    kappa = PolyPhase.from_coeffs(params, {(0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 2): 3})
    form = _alternating_sum_form(kappa)
    assert form[0, 0, 0] == 6
    for perm in set(itertools.permutations((0, 0, 1))):
        assert form[perm] == 2 * 2
    for perm in itertools.permutations((0, 1, 2)):
        assert form[perm] == 3
    assert int(np.count_nonzero(form)) == 1 + 3 + 6


@pytest.mark.parametrize("terms", [{(0, 1): 1}, {(0,): 2}, {(): 3}])
def test_alternating_sum_form_rejects_lower_degree(terms):
    with pytest.raises(RuntimeError):
        _alternating_sum_form(PolyPhase.from_coeffs(GroupParams(5, 2), terms))
