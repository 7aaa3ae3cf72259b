"""Arithmetic over F_p^n: elements, subspaces, phase polynomials, and the
Fourier transform with its convolution laws.
Every character transform in the package is `char_transform`.

Every elimination over F_p in the package is `_echelon`, one row reduction
of a stack of matrices: `gf_rowreduce`, `gf_rank`, `gf_nullspace`,
`_gf_matinv`, `_solve_stack` and `gf_family_ranks` are views of it.  The
one exception is the fit's row scan, `ulab.pipeline._first_independent_rows`:
it stops after d pivots among up to N^2 design rows, where `_echelon` on the
transposed design picks the same rows at about twice the cost.

Conventions used throughout the package:

* Elements of F_p^n are encoded as integers in [0, p^n) via little-endian
  base-p digits, x = sum_i x_i p^i.  All dense arrays are indexed by this
  encoding.
* The physical side is averaged (E_x) and the dual side is summed (Sigma_r).
  Concretely f_hat(r) = E_x f(x) omega^{-x.r} and the inversion formula is
  f(x) = Sigma_r f_hat(r) omega^{x.r}.
* "Bounded" means sup-norm at most 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Hard ceiling on p^n (`GroupParams` refuses beyond it) and the block size of
# the blocked passes, which hold about this many values at once.  No kernel
# refuses on it: the pipeline's work budget is `PipelineConfig.size_cap`,
# checked once before a run.
SIZE_CAP = 10**6

__all__ = [
    "SIZE_CAP",
    "GroupParams",
    "GroupElem",
    "Subspace",
    "PolyPhase",
    "GroupFn",
    "gf_rowreduce",
    "gf_rank",
    "gf_nullspace",
    "gf_family_ranks",
    "inv_mod",
    "char_transform",
    "dft",
    "idft",
    "barconv",
    "conv",
    "poly_phase_fn",
    "correlation",
    "group_fn_to_json",
    "group_fn_from_json",
]


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse mod p (p prime, a not divisible by p)."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 mod %d" % p)
    return pow(a, p - 2, p)


@lru_cache(maxsize=None)
def _powers(p: int, n: int) -> np.ndarray:
    w = p ** np.arange(n, dtype=np.int64)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _digit_table(p: int, n: int) -> np.ndarray:
    idx = np.arange(p**n, dtype=np.int64)
    out = np.empty((p**n, n), dtype=np.int64)
    for j in range(n):
        out[:, j] = (idx // p**j) % p
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _cayley_table(p: int, n: int, op: str) -> np.ndarray:
    """(N, N) read-only table of GroupParams(p, n).add or .sub (op) on indices."""
    idx = np.arange(p**n, dtype=np.int64)
    out = getattr(GroupParams(p, n), op)(idx[:, None], idx[None, :])
    out.setflags(write=False)
    return out


def _add_table(p: int, n: int) -> np.ndarray:
    """(N, N) table of a + b over F_p^n, read-only."""
    return _cayley_table(p, n, "add")


def _sub_table(p: int, n: int) -> np.ndarray:
    """(N, N) table of a - b over F_p^n, read-only."""
    return _cayley_table(p, n, "sub")


@dataclass(frozen=True)
class GroupParams:
    """The group G = F_p^n."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        # bound p^n before the trial-division primality test, so an
        # oversized p or n is rejected at once
        self._check_size(self.p, self.n, "p^n for p = %d, n = %d" % (self.p, self.n))
        if not _is_prime(self.p):
            raise ValueError("p = %r is not prime" % (self.p,))

    @staticmethod
    def _check_size(p: int, n: int, what: str) -> None:
        """Refuse p^n above SIZE_CAP, named `what`, without forming a huge power."""
        if p >= 2 and (n >= SIZE_CAP.bit_length() or p**n > SIZE_CAP):
            raise ValueError("%s exceeds the size cap %d" % (what, SIZE_CAP))

    @property
    def size(self) -> int:
        return self.p**self.n

    def digits(self, idx):
        """Digit vector(s) of the given index/indices, shape (..., n)."""
        # np.take gathers table rows several times faster than fancy indexing
        return np.take(_digit_table(self.p, self.n), idx, axis=0)

    def index(self, digits) -> np.ndarray | np.int64:
        d = np.asarray(digits, dtype=np.int64) % self.p
        return d @ _powers(self.p, self.n)

    def add(self, a, b):
        return self.index(self.digits(a) + self.digits(b))

    def sub(self, a, b):
        return self.index(self.digits(a) - self.digits(b))

    def neg(self, a):
        return self.index(-self.digits(a))

    def dot(self, a, b):
        """Pairing x.y = sum_i x_i y_i mod p, vectorized over indices."""
        return (self.digits(a) * self.digits(b)).sum(axis=-1) % self.p


@dataclass(frozen=True)
class GroupElem:
    params: GroupParams
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.params.size:
            raise ValueError("index %d out of range" % self.index)

    @property
    def digits(self) -> np.ndarray:
        return self.params.digits(self.index)

    def _check(self, other: "GroupElem") -> None:
        if other.params != self.params:
            raise ValueError("mismatched group parameters")

    def __add__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        return GroupElem(self.params, int(self.params.add(self.index, other.index)))

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        return GroupElem(self.params, int(self.params.sub(self.index, other.index)))

    def __neg__(self) -> "GroupElem":
        return GroupElem(self.params, int(self.params.neg(self.index)))

    def dot(self, other: "GroupElem") -> int:
        self._check(other)
        return int(self.params.dot(self.index, other.index))


# ============================================================
# linear algebra over F_p
# ============================================================


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """Read-only table of a^{-1} mod p for a in [0, p), with 0 mapped to 0."""
    out = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)
    out.setflags(write=False)
    return out


def _echelon(p: int, stack) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms R over F_p of a (..., r, c) stack, and the
    (..., c) masks of their pivot columns: a matrix's rank is its mask's sum
    and its i-th row carries its i-th pivot.

    Column by column, vectorised over the batch, the first non-zero row at
    or below a matrix's next pivot row is swapped up, normalised to 1 and
    cleared from every other row.
    """
    a = np.array(stack, dtype=np.int64) % p
    shape = a.shape
    r, c = shape[-2:]
    a = a.reshape(math.prod(shape[:-2]), r, c)
    pivots = np.zeros((a.shape[0], c), dtype=bool)
    batch, rows = np.arange(a.shape[0]), np.arange(r)
    nxt = np.zeros(a.shape[0], dtype=np.int64)
    for j in range(c):
        cand = (a[:, :, j] != 0) & (rows >= nxt[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        # a matrix without a pivot here swaps its row t with itself and scales it by 1
        t = np.minimum(nxt, r - 1)
        i = np.where(has, cand.argmax(axis=1), t)
        prow = a[batch, i]
        a[batch, i] = a[batch, t]
        prow *= np.where(has, _inverses(p)[prow[:, j]], 1)[:, None]
        prow %= p
        a[batch, t] = prow
        # the rows at or below t are zero left of j, so only columns j: change
        fac = a[:, :, j] * has[:, None]
        fac[batch, t] = 0
        a[:, :, j:] -= fac[:, :, None] * prow[:, None, j:]
        a[:, :, j:] %= p
        pivots[:, j] = has
        nxt += has
        if nxt.min() == r:
            break
    return a.reshape(shape), pivots.reshape(shape[:-2] + (c,))


def gf_rowreduce(p: int, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p by `_echelon`: (R, pivots), R only
    the nonzero rows, each pivot entry 1 and pivot columns cleared elsewhere."""
    red, piv = _echelon(p, np.atleast_2d(mat))
    pivots = np.flatnonzero(piv).tolist()
    return red[: len(pivots)], pivots


def _gf_matinv(p: int, mat) -> np.ndarray:
    """Inverse of a square matrix over F_p; raises ValueError if singular."""
    n = len(mat)
    red, piv = _echelon(p, np.concatenate([np.asarray(mat, dtype=np.int64), np.eye(n, dtype=np.int64)], axis=1))
    if not piv[:n].all():
        raise ValueError("matrix is singular over F_p")
    return red[:, n:]


def gf_rank(p: int, mat):
    """Rank over F_p: an int for one matrix, an array for a (..., r, c) stack."""
    ranks = _echelon(p, np.atleast_2d(mat))[1].sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def gf_nullspace(p: int, mat) -> np.ndarray:
    """Rows spanning {x : mat @ x = 0 mod p}; shape (dim_null, cols)."""
    red, piv = _echelon(p, np.atleast_2d(mat))
    free = np.flatnonzero(~piv)
    basis = np.zeros((free.size, piv.size), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = -red[: piv.sum()][:, free].T % p
    return basis


def _solve_stack(p: int, systems) -> tuple[np.ndarray, np.ndarray]:
    """(consistent, x) of a (..., r, c + 1) stack of augmented systems
    [A | b] over F_p: the mask of the solvable ones and a solution of each,
    read off its pivots with the free entries 0 (x = 0 where inconsistent).
    """
    red, piv = _echelon(p, systems)
    consistent = ~piv[..., -1]
    piv = piv[..., :-1] & consistent[..., None]
    x = np.zeros(piv.shape, dtype=np.int64)
    # the i-th pivot column of a system takes the last entry of its i-th row
    x[piv] = red[..., -1][np.arange(red.shape[-2]) < piv.sum(axis=-1)[..., None]]
    return consistent, x


def gf_family_ranks(p: int, mats) -> np.ndarray:
    """Rank of sum_s u_s mats[..., s, :, :] for every u in F_p^k, in index order.

    mats has shape (..., k, r, c) and the ranks shape (..., p^k): leading
    axes are a batch of families of k matrices each, and k = 0 gives the one
    rank 0 of the zero combination.  One `_echelon` call per block of about
    SIZE_CAP entries, every family's members of a block in it; ValueError
    when the p^k combinations exceed SIZE_CAP.
    """
    m = np.asarray(mats, dtype=np.int64) % p
    *batch, k, r, c = m.shape
    m = m.reshape(math.prod(batch), k, r, c)
    GroupParams._check_size(p, k, "p^k for p = %d, k = %d (the combinations of %d matrices)" % (p, k, k))
    total = p**k
    block = max(1, SIZE_CAP // max(1, len(m) * r * c))
    ranks = np.empty((len(m), total), dtype=np.int64)
    for lo in range(0, total, block):
        u = np.arange(lo, min(lo + block, total), dtype=np.int64)[:, None] // _powers(p, k) % p
        # (members, families, r, c), ranked in one call
        ranks[:, lo : lo + len(u)] = _echelon(p, np.tensordot(u, m, axes=(1, 1)))[1].sum(axis=-1).T
    return ranks.reshape(*batch, total)


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^n given by an echelon-reduced basis of element indices."""

    params: GroupParams
    basis: tuple[int, ...]

    @classmethod
    def from_generators(cls, params: GroupParams, gens) -> "Subspace":
        red, _ = gf_rowreduce(params.p, params.digits(np.array([int(g) for g in gens], dtype=np.int64)))
        return cls(params, tuple(params.index(red).tolist()))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.params.n - self.dim

    def matrix(self) -> np.ndarray:
        """Basis digit rows, shape (dim, n)."""
        if not self.basis:
            return np.zeros((0, self.params.n), dtype=np.int64)
        return self.params.digits(np.asarray(self.basis, dtype=np.int64))

    def member_indices(self) -> np.ndarray:
        """All p^dim member indices, sorted."""
        p = self.params.p
        if not self.basis:
            return np.zeros(1, dtype=np.int64)
        coeffs = _digit_table(p, self.dim)
        pts = (coeffs @ self.matrix()) % p
        idx = self.params.index(pts)
        return np.sort(np.unique(idx))

    def indicator(self) -> np.ndarray:
        out = np.zeros(self.params.size, dtype=bool)
        out[self.member_indices()] = True
        return out

    def contains(self, idx: int) -> bool:
        mat = self.matrix()
        aug = np.concatenate([mat, self.params.digits(int(idx)).reshape(1, -1)], axis=0)
        return gf_rank(self.params.p, aug) == self.dim

    def annihilator(self) -> "Subspace":
        """The dual subspace {r : r.x = 0 for all x in self} under the dot pairing."""
        return Subspace.from_generators(self.params, self.params.index(gf_nullspace(self.params.p, self.matrix())))


# ============================================================
# phase polynomials and character sums
# ============================================================


def _canon_terms(p: int, coeffs) -> tuple[tuple[tuple[int, ...], int], ...]:
    acc: dict[tuple[int, ...], int] = {}
    for mono, c in dict(coeffs).items():
        key = tuple(sorted(int(v) for v in mono))
        if len(key) > 3:
            raise ValueError("degree above 3 is not supported")
        acc[key] = (acc.get(key, 0) + int(c)) % p
    return tuple(sorted((k, v) for k, v in acc.items() if v))


@dataclass(frozen=True)
class PolyPhase:
    """Polynomial F_p^n -> F_p of degree at most 3.

    Monomials are multisets of variable indices, e.g. () for the constant
    term, (0,) for x_0, (0, 0, 1) for x_0^2 x_1.
    """

    params: GroupParams
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_coeffs(cls, params: GroupParams, coeffs) -> "PolyPhase":
        return cls(params, _canon_terms(params.p, coeffs))

    @property
    def coeffs(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def phase_table(self) -> np.ndarray:
        """Values mod p at every point, shape (p^n,)."""
        dig = _digit_table(self.params.p, self.params.n)
        out = np.zeros(self.params.size, dtype=np.int64)
        for mono, c in self.terms:
            term = np.full(self.params.size, c, dtype=np.int64)
            for v in mono:
                term = (term * dig[:, v]) % self.params.p
            out = (out + term) % self.params.p
        return out

    def __add__(self, other: "PolyPhase") -> "PolyPhase":
        if other.params != self.params:
            raise ValueError("mismatched group parameters")
        merged = self.coeffs
        for m, c in other.terms:
            merged[m] = merged.get(m, 0) + c
        return PolyPhase.from_coeffs(self.params, merged)

    def __sub__(self, other: "PolyPhase") -> "PolyPhase":
        return self + other.scale(-1)

    def scale(self, c: int) -> "PolyPhase":
        return PolyPhase.from_coeffs(self.params, {m: c * v for m, v in self.terms})


# ============================================================
# functions on G and the transform
# ============================================================


@dataclass(eq=False)
class GroupFn:
    """Complex function on G as a dense array; optional exact phase table.

    When ``phases`` is present the values satisfy f(x) = omega^{phases[x]}
    and derivative-type operations can stay exact mod p.
    """

    params: GroupParams
    values: np.ndarray
    phases: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.params.size,):
            raise ValueError("values must have shape (p^n,)")
        if self.phases is not None:
            self.phases = np.asarray(self.phases, dtype=np.int64) % self.params.p

    @classmethod
    def constant(cls, params: GroupParams, c: complex = 1.0) -> "GroupFn":
        ph = np.zeros(params.size, dtype=np.int64) if c == 1.0 else None
        return cls(params, np.full(params.size, c, dtype=np.complex128), ph)

    @classmethod
    def indicator(cls, params: GroupParams, points) -> "GroupFn":
        v = np.zeros(params.size, dtype=np.complex128)
        v[np.asarray(points, dtype=np.int64)] = 1.0
        return cls(params, v)

    @classmethod
    def from_phases(cls, params: GroupParams, table) -> "GroupFn":
        t = np.asarray(table, dtype=np.int64) % params.p
        return cls(params, np.exp(2j * np.pi * t / params.p), t)

    def mean(self) -> complex:
        return complex(self.values.mean())

    def norm_l1(self) -> float:
        return float(np.abs(self.values).mean())

    def norm_l2(self) -> float:
        return float(np.sqrt((np.abs(self.values) ** 2).mean()))

    def norm_linf(self) -> float:
        return float(np.abs(self.values).max())

    def inner(self, other: "GroupFn") -> complex:
        """E_x f(x) conj(g(x))."""
        return complex((self.values * other.values.conj()).mean())

    def conj(self) -> "GroupFn":
        ph = (-self.phases) % self.params.p if self.phases is not None else None
        return GroupFn(self.params, self.values.conj(), ph)

    def translate(self, a: int) -> "GroupFn":
        """x -> f(x - a)."""
        src = self.params.sub(np.arange(self.params.size, dtype=np.int64), int(a))
        ph = self.phases[src] if self.phases is not None else None
        return GroupFn(self.params, self.values[src], ph)

    def mul(self, other: "GroupFn") -> "GroupFn":
        ph = None
        if self.phases is not None and other.phases is not None:
            ph = (self.phases + other.phases) % self.params.p
        return GroupFn(self.params, self.values * other.values, ph)


def char_transform(
    values: np.ndarray,
    params: GroupParams,
    axis: int = -1,
    inverse: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The character transform of F_p^n along one axis of length p^n.

    Forward, it is the averaged f_hat(r) = E_x f(x) omega^{-x.r}; with
    inverse=True it is the summed f(x) = Sigma_r f_hat(r) omega^{x.r}, the
    exact inverse.  The other axes are a batch.  The axis splits into its
    (p,)*n digit axes, on which the character transform is an n-dimensional
    DFT; this is the package's one route to numpy's FFT.  A contiguous
    complex `out` of the same shape receives the result; it may be `values`
    itself, which transforms in place without a temporary per digit axis.
    """
    axis %= values.ndim
    shape = values.shape[:axis] + (params.p,) * params.n + values.shape[axis + 1 :]
    fft = np.fft.ifftn if inverse else np.fft.fftn
    if out is not None:
        out = out.reshape(shape)
    out = fft(values.reshape(shape), axes=tuple(range(axis, axis + params.n)), norm="forward", out=out)
    return out.reshape(values.shape)


def dft(f: GroupFn) -> GroupFn:
    """f_hat(r) = E_x f(x) omega^{-x.r}, by `char_transform`."""
    return GroupFn(f.params, char_transform(f.values, f.params))


def idft(fh: GroupFn) -> GroupFn:
    """f(x) = Sigma_r fh(r) omega^{x.r}; exact inverse of dft, by `char_transform`."""
    return GroupFn(fh.params, char_transform(fh.values, fh.params, inverse=True))


def barconv(f: GroupFn, g: GroupFn) -> GroupFn:
    """(f bar* g)(x) = E_u f(u) conj(g(u - x)); transform law fhat.conj(ghat)."""
    if f.params != g.params:
        raise ValueError("mismatched group parameters")
    h = dft(f).values * dft(g).values.conj()
    return idft(GroupFn(f.params, h))


def conv(f: GroupFn, g: GroupFn) -> GroupFn:
    """(f * g)(x) = E_{u+v=x} f(u) g(v); transform law fhat.ghat."""
    if f.params != g.params:
        raise ValueError("mismatched group parameters")
    h = dft(f).values * dft(g).values
    return idft(GroupFn(f.params, h))


def poly_phase_fn(q: PolyPhase) -> GroupFn:
    return GroupFn.from_phases(q.params, q.phase_table())


def correlation(f: GroupFn, q: PolyPhase) -> complex:
    """E_x f(x) omega^{-q(x)}."""
    t = q.phase_table()
    return complex((f.values * np.exp(-2j * np.pi * t / q.params.p)).mean())


# ============================================================
# serialization
# ============================================================


def group_fn_to_json(f: GroupFn) -> dict:
    if f.phases is not None:
        return {"p": f.params.p, "n": f.params.n, "phases": [int(v) for v in f.phases]}
    return {
        "p": f.params.p,
        "n": f.params.n,
        "values": [[float(v.real), float(v.imag)] for v in f.values],
    }


def _json_fields(obj, what: str, *keys: str) -> list:
    """The values of `keys` in a JSON object; ValueError if obj is not an
    object or lacks one of them."""
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object, got %s" % (what, type(obj).__name__))
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError("%s lacks %s" % (what, ", ".join(repr(k) for k in missing)))
    return [obj[k] for k in keys]


def _json_index(v, bound: int, what: str) -> int:
    """A JSON integer in [0, bound); ValueError otherwise."""
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < bound:
        raise ValueError("%s must be an integer in [0, %d), got %r" % (what, bound, v))
    return v


def _json_params(obj, what: str) -> GroupParams:
    """GroupParams from the integer fields 'p' and 'n' of a JSON object."""
    p, n = _json_fields(obj, what, "p", "n")
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (p, n)):
        raise ValueError("%s: p and n must be integers, got %r and %r" % (what, p, n))
    return GroupParams(p, n)


def group_fn_from_json(obj) -> GroupFn:
    if isinstance(obj, str):
        obj = json.loads(obj)
    params = _json_params(obj, "function")
    if "phases" in obj:
        return GroupFn.from_phases(params, np.asarray(obj["phases"], dtype=np.int64))
    if "values" not in obj:
        raise ValueError("function needs 'values' or 'phases'")
    vals = np.asarray(obj["values"], dtype=np.float64)
    if vals.shape != (params.size, 2):
        raise ValueError("values must be a list of [re, im] pairs of length p^n")
    return GroupFn(params, vals[:, 0] + 1j * vals[:, 1])
