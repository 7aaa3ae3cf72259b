"""Derivative operators and the U^k and box norms.

The U^4 norm is always evaluated through the nested identity
|f|_{U^4}^{16} = E_{a,b} Sigma_r |(d_{a,b} f)^(r)|^4.  Its p^{2n} spectra
come from `derivative2_spectra`, one batched transform of p^n rows per
first shift a, so memory stays O(p^{2n}); the pipeline reads its gate and
its peak map off the same pass.  The direct 5-fold sum exists only as an
oracle for |G| <= 32.  The defining averages are provably real, so any
imaginary residue above 1e-9 raises instead of being dropped silently.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ulab.core import SIZE_CAP, BudgetError, GroupFn, GroupParams, tensor_transform
from ulab.grid import GridFn

__all__ = [
    "NormReport",
    "derivative",
    "derivative2",
    "derivative2_spectra",
    "u4_row_power",
    "uk_norm",
    "norm_from_power",
    "u4_via_u3",
    "box_norm2",
    "box_norm3",
]

_IMAG_TOL = 1e-9
_DIRECT_CAP = 32


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


def _sub_table(params: GroupParams) -> np.ndarray:
    """sub_table[x, a] = x - a, as indices."""
    N = params.size
    idx = np.arange(N, dtype=np.int64)
    return params.sub(idx[:, None], idx[None, :])


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
    p, n = params.p, params.n
    M = rows.shape[0]
    arr = rows.reshape((M,) + (p,) * n)
    return np.abs(tensor_transform(arr, p, n, -1, True, start_axis=1).reshape(M, params.size))


def _first_derivatives(f: GroupFn) -> tuple[np.ndarray, np.ndarray]:
    """D[a, x] = f(x) conj(f(x - a)), and the gather table T[a, x] = x - a."""
    sub_t = _sub_table(f.params).T
    return f.values[None, :] * f.values[sub_t].conj(), sub_t


def derivative2_spectra(f: GroupFn) -> Iterator[np.ndarray]:
    """Yield, for a = 0, 1, ..., N - 1 in turn, the (N, N) array
    S[b, r] = |(d_{a,b} f)^(r)|.

    The first-derivative table is built once; row a's N second derivatives
    come from one gather of it and go through one batched transform.  Only
    one row is alive at a time, so memory is O(N^2), never O(N^3).
    """
    d1, sub_t = _first_derivatives(f)
    for a in range(f.params.size):
        # d2[b, x] = d1[a, x] conj(d1[a, x - b]), built in the gathered buffer
        d2 = d1[a][sub_t]
        np.conjugate(d2, out=d2)
        np.multiply(d1[a][None, :], d2, out=d2)
        yield _batch_hat_abs(d2, f.params)


def u4_row_power(spec: np.ndarray) -> float:
    """E_b Sigma_r S[b, r]^4 for one row of `derivative2_spectra`; the sum
    of these over a, divided by N, is |f|_{U^4}^16."""
    # squared twice in one buffer: the same bits as (spec**2)**2
    sq = np.square(spec)
    np.square(sq, out=sq)
    return float(sq.sum(axis=1).mean())


def _nested_pow(f: GroupFn, k: int) -> float:
    """U^k norm to the power 2^k via the nested recursion."""
    params = f.params
    N = params.size
    if k == 1:
        return abs(f.values.mean()) ** 2
    if k == 2:
        return _u2_pow4(_batch_hat_abs(f.values[None, :], params)[0] ** 2)
    if k == 3:
        d1, _ = _first_derivatives(f)
        return float(np.mean([_u2_pow4(r) for r in _batch_hat_abs(d1, params) ** 2]))
    if k == 4:
        acc = 0.0
        for spec in derivative2_spectra(f):
            acc += u4_row_power(spec)
        return acc / N
    raise ValueError("k must be in 1..4")


def _direct_pow(f: GroupFn, k: int) -> float:
    """Literal 2^k-fold sum: builds the k-1 fold derivative table and closes
    the last two averages as |E_x .|^2.  Cost O(|G|^{k+1}), |G| <= 32."""
    params = f.params
    N = params.size
    if N > _DIRECT_CAP:
        raise BudgetError("direct method limited to |G| <= %d" % _DIRECT_CAP)
    sub = _sub_table(params)
    t = f.values  # shape (N,), axis 0 is x
    for _ in range(k - 1):
        # t'[x, a, rest...] = t[x, rest...] conj(t[x - a, rest...])
        t = t[:, None, ...] * t[sub, ...].conj()
    m = t.mean(axis=0)
    return float((np.abs(m) ** 2).mean()) if k > 1 else float(abs(m) ** 2)


def uk_norm(f: GroupFn, k: int, method: str = "nested") -> NormReport:
    """U^k norm for k in 1..4.

    method "nested" uses the derivative recursion ending at the transform
    identity for U^2; "fourier" is the transform route for k = 2 only;
    "direct" is the literal sum oracle for |G| <= 32.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("k must be in 1..4")
    if method == "direct":
        power = _direct_pow(f, k)
    elif method == "fourier":
        if k != 2:
            raise ValueError("fourier method applies to k = 2 only")
        power = _nested_pow(f, 2)
    elif method == "nested":
        power = _nested_pow(f, k)
    else:
        raise ValueError("unknown method %r" % method)
    return norm_from_power(power, k, method)


def norm_from_power(power: float, k: int, method: str = "nested") -> NormReport:
    """The U^k norm from its 2^k-th power, after the realness guard."""
    power = _real_guard(complex(power), "U^%d power" % k)
    return NormReport(k, power ** (1.0 / 2**k), method)


def u4_via_u3(f: GroupFn) -> NormReport:
    """U^4 through the other nesting, E_a |d_a f|_{U^3}^8."""
    N = f.params.size
    acc = 0.0
    for a in range(N):
        acc += _nested_pow(derivative(f, a), 3)
    return NormReport(4, (acc / N) ** (1.0 / 16), "nested")


# ============================================================
# box norms
# ============================================================


def _box2_pow4(values: np.ndarray, params: GroupParams) -> float:
    """E_{x,y,a,b} F(x,y) conj(F(x-a,y)) conj(F(x,y-b)) F(x-a,y-b).

    Row transforms in the first coordinate give M[r, y]; pairing rows of M
    yields the gram matrix C with the identity box2^4 = sum_{r,r'} |C|^2.
    """
    p, n = params.p, params.n
    N = params.size
    arr = values.reshape((p,) * n + (N,))
    m = tensor_transform(arr, p, n, -1, True, start_axis=0).reshape(N, N)
    c = (m @ m.conj().T) / N
    return float((np.abs(c) ** 2).sum())


def box_norm2(F: GridFn) -> float:
    """Two-variable box norm (fourth root of the 4-fold alternating average)."""
    val = _box2_pow4(F.values, F.params)
    if val < -_IMAG_TOL:
        raise ArithmeticError("box norm power is negative: %.3g" % val)
    return max(val, 0.0) ** 0.25


def box_norm3(params: GroupParams, values: np.ndarray) -> float:
    """Three-variable box norm: eighth root of the 8-fold alternating average.

    values has shape (N, N, N) indexed (x, y, z).  Each (z, c) pair
    contributes the two-variable power of D(x, y) = F(x,y,z) conj(F(x,y,z-c)).
    """
    N = params.size
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (N, N, N):
        raise ValueError("values must have shape (N, N, N)")
    if N**3 > SIZE_CAP:
        raise BudgetError("|G|^3 exceeds the size cap %d" % SIZE_CAP)
    sub = _sub_table(params)
    acc = 0.0
    for z in range(N):
        for c in range(N):
            d = vals[:, :, z] * vals[:, :, sub[z, c]].conj()
            acc += _box2_pow4(d, params)
    val = acc / N**2
    if val < -_IMAG_TOL:
        raise ArithmeticError("box norm power is negative: %.3g" % val)
    return max(val, 0.0) ** 0.125
