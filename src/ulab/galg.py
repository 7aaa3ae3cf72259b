"""Group-algebra-valued functions and homomorphism-quality measurement.

An element of the group algebra of H = F_p^m is a sparse non-negative weight
map (`Dist`).  A weight map of total 1 is a distribution; the distance
between two distributions u, v is d(u, v) = total(u) total(v) - <u, v>,
which extends bilinearly to arbitrary non-negative elements.

Grid functions valued in the algebra (`DistFn`) support the same mixed
convolution as scalar grid functions, with conjugation replaced by the
adjoint.  It is computed through the characters of H: the character
transform turns the algebra product into a pointwise product and the
adjoint into conjugation, so a table becomes a stack of |H| scalar grid
functions, one per character, each convolved by `ulab.grid` and transformed
back.  By Parseval over H the squared norm of the mixed convolution is the
mean over characters of the scalar arrangement functional.  For a point map
on A the character average keeps exactly the 4-arrangements in A whose
Morse-signed value sum vanishes, so that norm measures how close the map is
to respecting every 4-arrangement (`respected_density`, `bihom_defect`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ulab.core import GroupParams
from ulab.grid import GridFn, arr_functional, horiz_conv, mixed_conv, vert_conv

__all__ = [
    "Dist",
    "DistFn",
    "RoundingResult",
    "dist_product",
    "adjoint",
    "ddist",
    "vert_conv_dist",
    "horiz_conv_dist",
    "mixed_conv_dist",
    "grid_inner_dist",
    "respected_density",
    "bihom_defect",
    "gen_inner",
    "line_conv",
    "line_adjoint",
    "hom_defect",
    "round_stability",
    "is_freiman_hom",
    "dist_fn_to_json",
    "dist_fn_from_json",
]

_TRUNC = 1e-15
_TOTAL_TOL = 1e-12


@dataclass(frozen=True)
class Dist:
    """Sparse non-negative element of the group algebra of `params`."""

    params: GroupParams
    weights: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for w in self.weights.values():
            if w < 0:
                raise ValueError("negative weight %r" % w)

    @classmethod
    def delta(cls, params: GroupParams, g: int, w: float = 1.0) -> "Dist":
        return cls(params, {int(g) % params.size: float(w)})

    @classmethod
    def zero(cls, params: GroupParams) -> "Dist":
        return cls(params, {})

    @classmethod
    def uniform(cls, params: GroupParams) -> "Dist":
        w = 1.0 / params.size
        return cls(params, {g: w for g in range(params.size)})

    @classmethod
    def from_dense(cls, params: GroupParams, vec: np.ndarray) -> "Dist":
        (support,) = np.nonzero(vec >= _TRUNC)
        return cls(params, {int(g): float(vec[g]) for g in support})

    def dense(self) -> np.ndarray:
        out = np.zeros(self.params.size)
        for g, w in self.weights.items():
            out[g] = w
        return out

    def total(self) -> float:
        return float(sum(self.weights.values()))

    def is_distribution(self) -> bool:
        t = self.total()
        return t == 0.0 or abs(t - 1.0) <= _TOTAL_TOL

    def scale(self, c: float) -> "Dist":
        if c == 0.0:
            return Dist.zero(self.params)
        if c < 0:
            raise ValueError("scale factor must be non-negative")
        return Dist(self.params, {g: w * c for g, w in self.weights.items()})

    def inner(self, other: "Dist") -> float:
        a, b = self.weights, other.weights
        if len(b) < len(a):
            a, b = b, a
        return float(sum(w * b[g] for g, w in a.items() if g in b))

    def argmax(self) -> tuple[int, bool]:
        """Index of the largest weight; ties go to the lowest index and are
        reported via the second component."""
        if not self.weights:
            raise ValueError("argmax of the zero element")
        top = max(self.weights.values())
        near = sorted(g for g, w in self.weights.items() if w >= top - _TOTAL_TOL)
        return near[0], len(near) > 1


def dist_product(u: Dist, v: Dist) -> Dist:
    """(uv)(c) = sum_{a+b=c} u(a) v(b); totals multiply."""
    params = u.params
    if not u.weights or not v.weights:
        return Dist.zero(params)
    ka = np.fromiter(u.weights.keys(), dtype=np.int64)
    kb = np.fromiter(v.weights.keys(), dtype=np.int64)
    wa = np.fromiter(u.weights.values(), dtype=np.float64)
    wb = np.fromiter(v.weights.values(), dtype=np.float64)
    out = np.zeros(params.size)
    np.add.at(out, params.add(ka[:, None], kb[None, :]).ravel(), np.outer(wa, wb).ravel())
    return Dist.from_dense(params, out)


def adjoint(u: Dist) -> Dist:
    """u*(a) = u(-a); weights are real so conjugation is trivial."""
    neg = u.params.neg
    return Dist(u.params, {int(neg(np.int64(g))): w for g, w in u.weights.items()})


def ddist(u: Dist, v: Dist) -> float:
    return u.total() * v.total() - u.inner(v)


# ============================================================
# algebra-valued grid functions and their mixed convolution
# ============================================================


@dataclass(frozen=True)
class DistFn:
    """Sparse map (x, y) -> Dist; absent points are the zero element."""

    params: GroupParams  # domain group of each coordinate
    value_params: GroupParams  # group of the algebra the values live in
    table: dict[tuple[int, int], Dist] = field(default_factory=dict)

    @classmethod
    def from_point_map(
        cls, params: GroupParams, value_params: GroupParams, points: dict[tuple[int, int], int]
    ) -> "DistFn":
        tab = {
            (int(x), int(y)): Dist.delta(value_params, g) for (x, y), g in points.items()
        }
        return cls(params, value_params, tab)

    def get(self, x: int, y: int) -> Dist:
        return self.table.get((x, y), Dist.zero(self.value_params))

    def scaled_by(self, mu: GridFn) -> "DistFn":
        """Pointwise scaling by a non-negative scalar grid function."""
        vals = mu.values.real
        tab = {}
        for (x, y), u in self.table.items():
            c = float(vals[x, y])
            if c > 0:
                tab[(x, y)] = u.scale(c)
        return DistFn(self.params, self.value_params, tab)

    def totals_ok(self) -> bool:
        return all(u.is_distribution() for u in self.table.values())


def _value_axes(vp: GroupParams) -> tuple[int, ...]:
    return tuple(range(2, 2 + vp.n))


def _char_stack(phi: DistFn, mu: GridFn | None = None) -> np.ndarray:
    """hat[x, y, s] = sum_g mu(x, y) phi(x, y)(g) omega^{-s.g}, shape (N, N, |H|).

    The value index splits into its (p,)*m digit axes, so an FFT over those
    axes is the character transform of H = F_p^m.  Slice s is a scalar grid
    function; the algebra product becomes the pointwise product of slices
    and the adjoint becomes conjugation.
    """
    N, vp = phi.params.size, phi.value_params
    dense = np.zeros((N, N, vp.size))
    for (x, y), u in phi.table.items():
        for g, w in u.weights.items():
            dense[x, y, g] = w
    if mu is not None:
        dense *= np.maximum(mu.values.real, 0.0)[:, :, None]
    digits = dense.reshape((N, N) + (vp.p,) * vp.n)
    return np.fft.fftn(digits, axes=_value_axes(vp)).reshape(N, N, vp.size)


def _from_char_stack(params: GroupParams, vp: GroupParams, hat: np.ndarray) -> DistFn:
    """Inverse of _char_stack: back to weights, dropping cells with none left."""
    N = params.size
    digits = hat.reshape((N, N) + (vp.p,) * vp.n)
    dense = np.fft.ifftn(digits, axes=_value_axes(vp)).real.reshape(N, N, vp.size)
    cells = zip(*np.nonzero((dense >= _TRUNC).any(axis=2)))
    return DistFn(
        params, vp, {(int(x), int(y)): Dist.from_dense(vp, dense[x, y]) for x, y in cells}
    )


def _per_character(conv, *fns: DistFn) -> DistFn:
    """Apply a scalar grid convolution to every character slice of the inputs."""
    f = fns[0]
    if any(g.params != f.params or g.value_params != f.value_params for g in fns):
        raise ValueError("mismatched parameters")
    hats = [_char_stack(g) for g in fns]
    out = np.empty_like(hats[0])
    for s in range(out.shape[2]):
        out[..., s] = conv(*(GridFn(f.params, h[..., s]) for h in hats)).values
    return _from_char_stack(f.params, f.value_params, out)


def vert_conv_dist(f: DistFn, g: DistFn) -> DistFn:
    """(x, h) -> E_y f(x, y) g(x, y - h)*; the algebra-valued column pass."""
    return _per_character(vert_conv, f, g)


def horiz_conv_dist(f: DistFn, g: DistFn) -> DistFn:
    """(w, y) -> E_x f(x, y) g(x - w, y)*; the algebra-valued row pass."""
    return _per_character(horiz_conv, f, g)


def mixed_conv_dist(f1: DistFn, f2: DistFn, f3: DistFn, f4: DistFn) -> DistFn:
    """Column pass on (f1, f2) and (f3, f4), then a row pass across the two."""
    return _per_character(mixed_conv, f1, f2, f3, f4)


def grid_inner_dist(F: DistFn, G: DistFn) -> float:
    """E_{w,h} <F(w,h), G(w,h)> with the plain-sum algebra inner product."""
    N2 = F.params.size ** 2
    keys = F.table.keys() & G.table.keys()
    return sum(F.table[k].inner(G.table[k]) for k in keys) / N2


def gen_inner(phis) -> float:
    """Inner product of the mixed convolutions of two quadruples."""
    if len(phis) != 8:
        raise ValueError("exactly eight functions required")
    return grid_inner_dist(mixed_conv_dist(*phis[:4]), mixed_conv_dist(*phis[4:]))


def respected_density(phi: DistFn, mu: GridFn | None = None) -> float:
    """|mixed_conv_dist(mu phi)|_2^2, as the mean over characters s of H of
    arr_functional(s-th character slice of mu phi) (Parseval over H).

    For a point map phi on A and mu = 1_A (or no mu), the s-average keeps
    exactly the 4-arrangements in A whose Morse-signed value sum vanishes, so
    this is the respected-arrangement count divided by |G|^8.
    """
    hat = _char_stack(phi, mu)
    K = hat.shape[2]
    return sum(arr_functional(GridFn(phi.params, hat[..., s])) for s in range(K)) / K


def bihom_defect(phi: DistFn, mu: GridFn) -> float:
    """Smallest eta with |mixed_conv(mu phi)|_2^2 >= (1 - eta) |mixed_conv(mu)|_2^2.

    mu must be non-negative; a mu whose mixed convolution vanishes leaves the
    defect undefined and raises.
    """
    if np.any(mu.values.real < -1e-12) or np.max(np.abs(mu.values.imag)) > 1e-12:
        raise ValueError("mu must be non-negative real")
    denom = arr_functional(mu)
    if denom <= 0.0:
        raise ArithmeticError("mixed convolution of mu vanishes; defect undefined")
    return 1.0 - respected_density(phi, mu) / denom


# ============================================================
# one-variable stability rounding
# ============================================================


@dataclass(frozen=True)
class RoundingResult:
    omega: np.ndarray  # omega[x] = rounded value index
    agreement: float  # E_x d(phi(x), delta_{omega(x)})
    tie_flagged: bool


def line_adjoint(phi: list[Dist], params: GroupParams) -> list[Dist]:
    """phi*(x) = phi(-x)*."""
    neg = params.neg
    return [adjoint(phi[int(neg(np.int64(x)))]) for x in range(params.size)]


def line_conv(phi: list[Dist], psi: list[Dist], params: GroupParams) -> list[Dist]:
    """(phi * psi)(x) = E_{u+v=x} phi(u) psi(v)."""
    N = params.size
    sub = params.sub
    vp = phi[0].params
    out = []
    for x in range(N):
        acc = np.zeros(vp.size)
        for u in range(N):
            prod = dist_product(phi[u], psi[int(sub(np.int64(x), np.int64(u)))])
            for c, w in prod.weights.items():
                acc[c] += w
        out.append(Dist.from_dense(vp, acc / N))
    return out


def hom_defect(phi: list[Dist], params: GroupParams) -> float:
    """E over additive quadruples x - y = z - w of d(phi(x)phi(y)*, phi(z)phi(w)*)."""
    N = params.size
    add, sub = params.add, params.sub
    pairs = {}
    for x in range(N):
        for y in range(N):
            pairs[(x, y)] = dist_product(phi[x], adjoint(phi[y]))
    total = 0.0
    for x in range(N):
        for y in range(N):
            left = pairs[(x, y)]
            for z in range(N):
                w = int(sub(np.int64(z), sub(np.int64(x), np.int64(y))))
                total += ddist(left, pairs[(z, w)])
    return total / N**3


def round_stability(phi: list[Dist], params: GroupParams, eta: float) -> RoundingResult:
    """Round a near-homomorphism G -> Sigma(A) to a concrete map G -> group.

    Forms psi = phi * phi^adj and theta = phi * psi^adj, then takes the
    per-point argmax of theta.  For a (1 - eta)-homomorphism with eta < 1/18
    the result is an exact Freiman homomorphism with agreement at most 5 eta.
    """
    if not eta < 1 / 18:
        raise ValueError("eta must be < 1/18")
    if len(phi) != params.size:
        raise ValueError("phi must be defined on all of G")
    for u in phi:
        t = u.total()
        if abs(t - 1.0) > _TOTAL_TOL:
            raise ValueError("phi values must be distributions; got total %r" % t)
    psi = line_conv(phi, line_adjoint(phi, params), params)
    theta = line_conv(phi, line_adjoint(psi, params), params)
    omega = np.zeros(params.size, dtype=np.int64)
    tied = False
    for x in range(params.size):
        g, t = theta[x].argmax()
        omega[x] = g
        tied = tied or t
    vp = phi[0].params
    agree = float(
        np.mean([ddist(phi[x], Dist.delta(vp, int(omega[x]))) for x in range(params.size)])
    )
    return RoundingResult(omega, agree, tied)


def is_freiman_hom(dom: GroupParams, val: GroupParams, omega: np.ndarray) -> bool:
    """True iff x -> omega(x) - omega(0) is additive on all of G x G."""
    lam = val.sub(np.asarray(omega, dtype=np.int64), np.int64(omega[0]))
    idx = np.arange(dom.size, dtype=np.int64)
    u, v = np.meshgrid(idx, idx, indexing="ij")
    return bool(np.array_equal(lam[dom.add(u, v)], val.add(lam[u], lam[v])))


# ============================================================
# serialization
# ============================================================


def dist_fn_to_json(phi: DistFn) -> list[dict]:
    out = []
    for (x, y) in sorted(phi.table):
        u = phi.table[(x, y)]
        ent = [{"g": g, "w": u.weights[g]} for g in sorted(u.weights)]
        out.append({"x": x, "y": y, "dist": ent})
    return out


def dist_fn_from_json(
    params: GroupParams, value_params: GroupParams, data: list[dict]
) -> DistFn:
    tab = {}
    for row in data:
        weights = {int(e["g"]): float(e["w"]) for e in row["dist"]}
        tab[(int(row["x"]), int(row["y"]))] = Dist(value_params, weights)
    return DistFn(params, value_params, tab)
