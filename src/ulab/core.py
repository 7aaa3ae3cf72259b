"""Arithmetic over F_p^n: elements, subspaces, phase polynomials, exact
character sums, and the Fourier transform with its convolution laws.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Hard ceiling on p^n; constructors reject anything larger.  Keeps accidental
# p^{2n} blowups from allocating silly amounts of memory.
SIZE_CAP = 10**6

__all__ = [
    "SIZE_CAP",
    "BudgetError",
    "GroupParams",
    "GroupElem",
    "Subspace",
    "PolyPhase",
    "CharacterSum",
    "GroupFn",
    "gf_rowreduce",
    "gf_rank",
    "gf_nullspace",
    "gf_solve",
    "inv_mod",
    "omega",
    "dft",
    "idft",
    "barconv",
    "conv",
    "poly_phase_fn",
    "correlation",
    "group_fn_to_json",
    "group_fn_from_json",
]


class BudgetError(ValueError):
    """A computation would exceed a fixed size budget (such as `SIZE_CAP`)
    and was refused before allocating; the pipeline reports it as a
    "budget" halt."""


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


def omega(p: int) -> complex:
    return np.exp(2j * np.pi / p)


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
def _char_matrix(p: int, sign: int) -> np.ndarray:
    r = np.arange(p)
    m = np.exp(sign * 2j * np.pi * np.outer(r, r) / p)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class GroupParams:
    """The group G = F_p^n."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        # bound p^n before the trial-division primality test and without
        # forming a huge power, so an oversized p or n is rejected at once
        if self.p >= 2 and (self.n >= SIZE_CAP.bit_length() or self.p**self.n > SIZE_CAP):
            raise ValueError("p^n for p = %d, n = %d exceeds the size cap %d" % (self.p, self.n, SIZE_CAP))
        if not _is_prime(self.p):
            raise ValueError("p = %r is not prime" % (self.p,))

    @property
    def size(self) -> int:
        return self.p**self.n

    def digits(self, idx):
        """Digit vector(s) of the given index/indices, shape (..., n)."""
        return _digit_table(self.p, self.n)[idx]

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

    def elem(self, index: int) -> "GroupElem":
        return GroupElem(self, int(index) % self.size)


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


def gf_rowreduce(p: int, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivots) where R contains only the nonzero rows, each pivot
    entry is 1 and pivot columns are cleared elsewhere.
    """
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        a = np.atleast_2d(a)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = np.nonzero(a[r:, c])[0]
        if sel.size == 0:
            continue
        i = r + int(sel[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * inv_mod(int(a[r, c]), p)) % p
        others = np.nonzero(a[:, c])[0]
        for j in others:
            if j != r:
                a[j] = (a[j] - a[j, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _gf_matinv(p: int, mat) -> np.ndarray:
    """Inverse of a square matrix over F_p; raises ValueError if singular."""
    m = np.asarray(mat, dtype=np.int64) % p
    n = m.shape[0]
    red, pivots = gf_rowreduce(p, np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over F_p")
    return red[:, n:]


def gf_rank(p: int, mat) -> int:
    return gf_rowreduce(p, mat)[0].shape[0]


def gf_nullspace(p: int, mat) -> np.ndarray:
    """Rows spanning {x : mat @ x = 0 mod p}; shape (dim_null, cols)."""
    a = np.asarray(mat, dtype=np.int64)
    cols = a.shape[1] if a.ndim == 2 else a.shape[0]
    red, pivots = gf_rowreduce(p, a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-red[r, c]) % p
    return basis


def gf_solve(p: int, mat, rhs) -> np.ndarray | None:
    """One solution x of mat @ x = rhs mod p, or None if inconsistent."""
    a = np.array(mat, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64) % p
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    red, pivots = gf_rowreduce(p, aug)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, cols]
    return x


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^n given by an echelon-reduced basis of element indices."""

    params: GroupParams
    basis: tuple[int, ...]

    @classmethod
    def from_generators(cls, params: GroupParams, gens) -> "Subspace":
        gens = [int(g) for g in gens]
        if not gens:
            return cls(params, ())
        mat = params.digits(np.asarray(gens, dtype=np.int64))
        red, _ = gf_rowreduce(params.p, mat)
        idx = params.index(red)
        return cls(params, tuple(int(i) for i in np.atleast_1d(idx)))

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
        null = gf_nullspace(self.params.p, self.matrix())
        if null.shape[0] == 0:
            return Subspace(self.params, ())
        idx = self.params.index(null)
        return Subspace.from_generators(self.params, np.atleast_1d(idx))


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

    @property
    def degree(self) -> int:
        return max((len(m) for m, _ in self.terms), default=0)

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


@dataclass(eq=False)
class CharacterSum:
    """Exact sum of p-th roots of unity, kept as integer counts per residue.

    counts[c] is the number of summands equal to omega^c; the complex value
    only materializes at the boundary, so rank computations can stay in
    integer or rational arithmetic.
    """

    p: int
    counts: np.ndarray

    @classmethod
    def from_values(cls, p: int, vals) -> "CharacterSum":
        v = np.asarray(vals, dtype=np.int64) % p
        return cls(p, np.bincount(v.ravel(), minlength=p).astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def complex_value(self) -> complex:
        return complex(self.counts @ np.exp(2j * np.pi * np.arange(self.p) / self.p))

    def complex_mean(self) -> complex:
        return self.complex_value() / self.total

    def rational_mean(self) -> Fraction:
        """Exact rational value of the mean.

        Valid only when counts[1:] are all equal, in which case the
        nontrivial roots collapse: the mean equals
        (counts[0] - counts[1]) / total.  Raises otherwise.
        """
        rest = self.counts[1:]
        if rest.size and np.any(rest != rest[0]):
            raise ValueError("character sum is not rational: counts %r" % (self.counts.tolist(),))
        c1 = int(rest[0]) if rest.size else 0
        return Fraction(int(self.counts[0]) - c1, self.total)


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


def tensor_transform(arr: np.ndarray, p: int, n: int, sign: int, normalize: bool, start_axis: int = 0) -> np.ndarray:
    """Radix-p character transform along n consecutive axes of length p.

    sign -1 with normalize=True is the forward (averaged) transform; sign +1
    with normalize=False is its exact inverse (summed).
    """
    m = _char_matrix(p, sign)
    for ax in range(start_axis, start_axis + n):
        arr = np.moveaxis(np.tensordot(m, np.moveaxis(arr, ax, 0), axes=(1, 0)), 0, ax)
        if normalize:
            arr = arr / p
    return arr


def _axis_transform(values: np.ndarray, p: int, n: int, sign: int, normalize: bool) -> np.ndarray:
    return tensor_transform(values.reshape((p,) * n), p, n, sign, normalize).reshape(p**n)


def dft(f: GroupFn) -> GroupFn:
    """f_hat(r) = E_x f(x) omega^{-x.r}, as n radix-p passes."""
    return GroupFn(f.params, _axis_transform(f.values, f.params.p, f.params.n, -1, True))


def idft(fh: GroupFn) -> GroupFn:
    """f(x) = Sigma_r fh(r) omega^{x.r}; exact inverse of dft."""
    return GroupFn(fh.params, _axis_transform(fh.values, fh.params.p, fh.params.n, +1, False))


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
