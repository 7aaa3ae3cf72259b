"""Seeded input lists for the pipeline benchmark.

Every workload is a fixed list of cases; only the random draws inside each
case (planted coefficients, corrupted points, noise) depend on the seed.
The pipeline sees only the generated ``GroupFn`` and ``PipelineConfig``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ulab.cli import PipelineConfig
from ulab.core import GroupFn, GroupParams, PolyPhase, poly_phase_fn

# (p, n) of each exact planted cubic; F_7^2 needs p^{4n} = 5.8e6 quadruples,
# over the default budget, and is kept although it raises at seed (the
# cubic stage's fixed 10^6 verification budget).
EXACT_GROUPS = [(5, 2), (7, 1), (13, 1), (31, 1), (7, 2)]
# (corrupted share, copies) of planted cubics on F_5^2.  corrupt_cubic is
# runnable but left out of BENCHMARK.json: whether densify's first attempt
# meets its criterion is close to a coin flip per input (about 0.8 s against
# 2 s a run), so over ten seeds the list's wall time spread by 0.235 and its
# recovered share by 0.22 (quartile distance over median), and no list that
# fits one run brings that under the 0.25 cap on a bound.
CORRUPT_LEVELS = [(0.10, 3), (0.20, 3)]
NOISE_GROUPS = [(11, 2), (13, 2), (5, 3)]


@dataclass(frozen=True)
class Case:
    """One pipeline input: ``planted`` is None for unstructured noise, and
    ``must_recover`` marks inputs whose planted phase has to come back for
    the benchmark run to count as correct."""

    label: str
    f: GroupFn
    cfg: PipelineConfig
    planted: PolyPhase | None
    must_recover: bool = False


def config_for(p: int, n: int) -> PipelineConfig:
    """Desk defaults, with ``size_cap`` raised to the next power of ten only
    when the default does not admit p^{4n}."""
    cap = PipelineConfig.size_cap
    need = p ** (4 * n)
    while cap < need:
        cap *= 10
    return PipelineConfig(p=p, n=n, size_cap=cap)


def random_cubic(params: GroupParams, rng: np.random.Generator) -> PolyPhase:
    """Random coefficients on every monomial of degree 1 to 3, with at least
    one cubic term and no constant (the pipeline's quadratic search always
    returns a zero constant)."""
    p, n = params.p, params.n
    coeffs = {}
    for d in (1, 2, 3):
        for mono in itertools.combinations_with_replacement(range(n), d):
            coeffs[mono] = int(rng.integers(p))
    cubic = list(itertools.combinations_with_replacement(range(n), 3))
    if not any(coeffs[m] for m in cubic):
        coeffs[cubic[int(rng.integers(len(cubic)))]] = int(rng.integers(1, p))
    return PolyPhase.from_coeffs(params, coeffs)


def corrupt(f: GroupFn, share: float, rng: np.random.Generator) -> GroupFn:
    """Replace round(share * N) points, chosen without replacement, by random
    unit values."""
    N = f.params.size
    k = int(share * N + 0.5)
    vals = f.values.copy()
    idx = rng.choice(N, size=k, replace=False)
    vals[idx] = np.exp(2j * np.pi * rng.random(k))
    return GroupFn(f.params, vals)


def _exact_cubic(rng):
    out = []
    for p, n in EXACT_GROUPS:
        params = GroupParams(p, n)
        q = random_cubic(params, rng)
        # F_7^2 raises in the cubic stage at seed; it is counted, not required
        must = (p, n) != (7, 2)
        out.append(Case("F_%d^%d" % (p, n), poly_phase_fn(q), config_for(p, n), q, must))
    return out


def _corrupt_cubic(rng):
    out = []
    params = GroupParams(5, 2)
    for share, copies in CORRUPT_LEVELS:
        for i in range(copies):
            q = random_cubic(params, rng)
            f = corrupt(poly_phase_fn(q), share, rng)
            out.append(Case("F_5^2/%d%%/%d" % (round(100 * share), i), f, config_for(5, 2), q))
    return out


def _noise_screen(rng):
    out = []
    for p, n in NOISE_GROUPS:
        params = GroupParams(p, n)
        f = GroupFn(params, np.exp(2j * np.pi * rng.random(params.size)))
        out.append(Case("F_%d^%d" % (p, n), f, config_for(p, n), None))
    return out


WORKLOADS = {
    "exact_cubic": _exact_cubic,
    "corrupt_cubic": _corrupt_cubic,
    "noise_screen": _noise_screen,
}


def warmup_case(seed: int) -> Case:
    """A tiny exact cubic on F_5, run once before timing."""
    params = GroupParams(5, 1)
    q = random_cubic(params, np.random.default_rng(np.random.SeedSequence([seed, 99])))
    return Case("warmup F_5^1", poly_phase_fn(q), config_for(5, 1), q, True)


def make_cases(workload: str, seed: int) -> list[Case]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, sorted(WORKLOADS).index(workload)]))
    return WORKLOADS[workload](rng)
