"""Derivative operators and the U^k norms.

The U^4 norm is always evaluated through the nested identity
|f|_{U^4}^{16} = E_{a,b} Sigma_r |(d_{a,b} f)^(r)|^4.  Since
d_{a,b} f(x) = f(x) conj(f(x - a)) conj(f(x - b)) f(x - a - b), the eight
pairs (+-a, +-b), (+-b, +-a) share one spectrum |(d_{a,b} f)^|, mirrored
r -> -r for the pairs with one sign flipped: swapping a and b changes
nothing, negating both translates, and negating one conjugates a translate.
`_orbit_slots` lays out one representative per orbit with each pair's slot
and mirror flag, and `_orbit_spectra` transforms the representatives in
batches of p^n rows, so memory stays O(p^{2n}).  That pass has two readers:
`derivative2_peaks`, whose power and peaks `uk_norm(f, 4)` and the gate and
peak map read, and `trilinear.tri_correlation`.  `derivative2_spectra`
yields whole rows of spectra, for `trilinear.u3_lower` only.  The direct
5-fold sum exists only as an oracle for |G| <= 32.  The defining averages
are provably real, so any imaginary residue above 1e-9 raises instead of
being dropped silently.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ulab.core import GroupFn, GroupParams, _sub_table, char_transform

__all__ = [
    "NormReport",
    "derivative",
    "derivative2",
    "derivative2_spectra",
    "derivative2_peaks",
    "uk_norm",
    "norm_from_power",
]

_IMAG_TOL = 1e-9
_DIRECT_CAP = 32
# a spectrum's peak is the lowest frequency within this of its maximum, so
# exact ties (common on corrupted inputs) do not depend on rounding
PEAK_TIE_TOL = 1e-9


@dataclass(frozen=True)
class NormReport:
    k: int
    value: float
    method: str


def _real_guard(x: complex, what: str) -> float:
    if abs(x.imag) > _IMAG_TOL:
        raise ArithmeticError("%s has imaginary residue %.3g" % (what, x.imag))
    v = x.real
    if v < -_IMAG_TOL:
        raise ArithmeticError("%s is negative: %.3g" % (what, v))
    return max(v, 0.0)


def derivative(f: GroupFn, a) -> GroupFn:
    """d_a f(x) = f(x) conj(f(x - a)); d_0 f = |f|^2."""
    ai = a.index if hasattr(a, "index") else int(a)
    return f.mul(f.translate(ai).conj())


def derivative2(f: GroupFn, a, b) -> GroupFn:
    return derivative(derivative(f, a), b)


def _u2_pow4(fhat_sq_abs: np.ndarray) -> float:
    return float((fhat_sq_abs**2).sum())


def _batch_hat_abs(rows: np.ndarray, params: GroupParams) -> np.ndarray:
    """|f_hat| per row of a (M, N) batch of functions."""
    return np.abs(char_transform(rows, params, axis=1))


def _first_derivatives(f: GroupFn) -> tuple[np.ndarray, np.ndarray]:
    """D[a, x] = f(x) conj(f(x - a)), and the gather table T[a, x] = x - a."""
    sub_t = _sub_table(f.params.p, f.params.n).T
    return f.values[None, :] * f.values[sub_t].conj(), sub_t


def _derivative2_rows(d1: np.ndarray, sub_t: np.ndarray, a, b) -> np.ndarray:
    """Second derivatives from the first-derivative table d1 and the gather
    table sub_t of `_first_derivatives`, one row per shift pair:
    D2[j, x] = d1[a_j, x] conj(d1[a_j, x - b_j]).

    a is one first shift or an index array, b an index array (or a slice of
    sub_t's rows) of the second shifts.  The rows are one gather of d1,
    conjugated and multiplied in that buffer, and equal
    `derivative2(f, a_j, b_j).values` bit for bit.
    """
    a = np.asarray(a)
    d2 = d1[a[..., None], sub_t[b]]
    np.conjugate(d2, out=d2)
    np.multiply(d1[a], d2, out=d2)
    return d2


def derivative2_spectra(f: GroupFn) -> Iterator[np.ndarray]:
    """Yield, for a = 0, 1, ..., N - 1 in turn, the (N, N) array
    S[b, r] = |(d_{a,b} f)^(r)|.

    The first-derivative table is built once; row a's N second derivatives
    come from one gather of it (`_derivative2_rows`) and go through one
    batched transform.  Only one row is alive at a time, so memory is
    O(N^2), never O(N^3).  Only `trilinear.u3_lower` reads whole spectra
    from it; every other reader takes the orbit representatives' spectra
    from `_orbit_spectra`.
    """
    d1, sub_t = _first_derivatives(f)
    for a in range(f.params.size):
        yield _batch_hat_abs(_derivative2_rows(d1, sub_t, a, slice(None)), f.params)


def _orbit_table(params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """For each (a, b), the key a' N + b' of its orbit's representative, the
    least key among the eight images (+-a, +-b), (+-b, +-a), and whether its
    spectrum is the representative's mirrored r -> -r (one sign flipped).

    A running minimum over the images, in int32, so the table costs O(N^2)
    and never holds the eight images at once.
    """
    N = params.size
    idx = np.arange(N, dtype=np.int32)
    neg = params.neg(idx).astype(np.int32)
    rep = idx[:, None] * np.int32(N) + idx[None, :]
    mirror = np.zeros((N, N), dtype=bool)
    less = np.empty((N, N), dtype=bool)
    for u, v, flip in ((idx, idx, False), (idx, neg, True), (neg, idx, True), (neg, neg, False)):
        # the images (u(a), v(b)) and (v(b), u(a))
        for key in (u[:, None] * np.int32(N) + v[None, :], v[None, :] * np.int32(N) + u[:, None]):
            np.less(key, rep, out=less)
            np.copyto(rep, key, where=less)
            mirror[less] = flip
    return rep, mirror


def _orbit_slots(params: GroupParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, slot, mirror): the keys a N + b of the orbit representatives
    of `_orbit_table`, in key order, and for each pair (a, b) the slot of
    its representative among them and whether its spectrum is the
    representative's mirrored r -> -r."""
    N = params.size
    rep, mirror = _orbit_table(params)
    is_rep = rep.ravel() == np.arange(N * N, dtype=np.int32)
    slot = (np.cumsum(is_rep, dtype=np.int32) - 1)[rep]
    return np.flatnonzero(is_rep), slot, mirror


def _orbit_spectra(f: GroupFn, reps: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (s, S) for each batch of N representatives reps[s : s + N]:
    S[j] = |(d_{a,b} f)^| with (a, b) = divmod(reps[s + j], N).  A batch is
    one gather of the first-derivative table, transformed in place and
    dropped before the yield, so no more than two are alive at once."""
    params = f.params
    N = params.size
    d1, sub_t = _first_derivatives(f)
    for s in range(0, len(reps), N):
        a, b = np.divmod(reps[s : s + N], N)
        d2 = _derivative2_rows(d1, sub_t, a, b)
        spec = np.abs(char_transform(d2, params, axis=1, out=d2))
        del d2
        yield s, spec


def derivative2_peaks(f: GroupFn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three (N, N) arrays over the shift pairs (a, b), read off the spectra
    S = |(d_{a,b} f)^|: the power Sigma_r S(r)^4, whose mean is
    |f|_{U^4}^16; the peak, the lowest r with S(r) within PEAK_TIE_TOL of
    max S; and the peak magnitude S(peak).

    Only the orbit representatives of `_orbit_slots` are transformed
    (`_orbit_spectra`).  Each representative's power and two peaks go to
    every pair of its orbit: the lowest candidate r, and for a mirrored
    pair the lowest r whose -r is a candidate, so the tie rule is the one
    each pair's own spectrum would give.
    """
    params = f.params
    N = params.size
    neg = params.neg(np.arange(N))
    reps, slot, mirror = _orbit_slots(params)
    power = np.empty(len(reps))
    lo, hi = np.empty(len(reps), dtype=np.int64), np.empty(len(reps), dtype=np.int64)
    mag_lo, mag_hi = np.empty(len(reps)), np.empty(len(reps))
    for s, spec in _orbit_spectra(f, reps):
        rows = np.arange(len(spec))
        # squared twice in one buffer: the same bits as (spec**2)**2
        sq = np.square(spec)
        np.square(sq, out=sq)
        power[s : s + N] = sq.sum(axis=1)
        del sq
        cand = spec >= spec.max(axis=1, keepdims=True) - PEAK_TIE_TOL
        lo[s : s + N] = r = np.argmax(cand, axis=1)
        mag_lo[s : s + N] = spec[rows, r]
        hi[s : s + N] = r = np.argmax(cand[:, neg], axis=1)
        mag_hi[s : s + N] = spec[rows, neg[r]]
    peak, mag = lo[slot], mag_lo[slot]
    flipped = slot[mirror]
    peak[mirror], mag[mirror] = hi[flipped], mag_hi[flipped]
    return power[slot], peak, mag


def _nested_pow(f: GroupFn, k: int) -> float:
    """U^k norm to the power 2^k via the nested recursion."""
    params = f.params
    if k == 1:
        return abs(f.values.mean()) ** 2
    if k == 2:
        return _u2_pow4(_batch_hat_abs(f.values[None, :], params)[0] ** 2)
    if k == 3:
        d1, _ = _first_derivatives(f)
        return float(np.mean([_u2_pow4(r) for r in _batch_hat_abs(d1, params) ** 2]))
    if k == 4:
        return float(derivative2_peaks(f)[0].mean())
    raise ValueError("k must be in 1..4")


def _direct_pow(f: GroupFn, k: int) -> float:
    """Literal 2^k-fold sum: builds the k-1 fold derivative table and closes
    the last two averages as |E_x .|^2.  Cost O(|G|^{k+1}), |G| <= 32."""
    params = f.params
    N = params.size
    if N > _DIRECT_CAP:
        raise ValueError("direct method limited to |G| <= %d" % _DIRECT_CAP)
    sub = _sub_table(params.p, params.n)
    t = f.values  # shape (N,), axis 0 is x
    for _ in range(k - 1):
        # t'[x, a, rest...] = t[x, rest...] conj(t[x - a, rest...])
        t = t[:, None, ...] * t[sub, ...].conj()
    m = t.mean(axis=0)
    return float((np.abs(m) ** 2).mean()) if k > 1 else float(abs(m) ** 2)


def uk_norm(f: GroupFn, k: int, method: str = "nested") -> NormReport:
    """U^k norm for k in 1..4.

    method "nested" uses the derivative recursion ending at the transform
    identity for U^2; "direct" is the literal sum oracle for |G| <= 32.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("k must be in 1..4")
    if method == "direct":
        power = _direct_pow(f, k)
    elif method == "nested":
        power = _nested_pow(f, k)
    else:
        raise ValueError("unknown method %r" % method)
    return norm_from_power(power, k, method)


def norm_from_power(power: float, k: int, method: str = "nested") -> NormReport:
    """The U^k norm from its 2^k-th power, after the realness guard."""
    power = _real_guard(complex(power), "U^%d power" % k)
    return NormReport(k, power ** (1.0 / 2**k), method)
