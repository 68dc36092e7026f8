"""Integer lattices, unimodular affine self-maps, and aperiodicity bounds.

The dynamics happen on ``Z^d``.  A homeomorphism is modelled by an affine
map ``x -> A x + b`` with an integer matrix ``A`` of determinant ``+-1``,
so that the inverse is again an integer affine map and arbitrary forward
and backward iterates compose exactly, with no rounding anywhere.

All values in this module are immutable and hashable; coordinates are
Python integers, so iterates never wrap silently (arbitrary precision).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

Point = tuple  # a lattice point is a tuple of ints, one entry per dimension


class DomainError(ValueError):
    """Raised for ill-formed maps, regions, or out-of-contract arguments."""


def _as_point(x: Sequence[int]) -> Point:
    return tuple(int(c) for c in x)


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    m = [[int(v) for v in row] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _int_inverse(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(rows)
    aug = [
        [Fraction(rows[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise DomainError("linear part is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            v = aug[i][n + j]
            if v.denominator != 1:
                raise DomainError("inverse is not integral; determinant must be +-1")
            row.append(int(v))
        inv.append(tuple(row))
    return tuple(inv)


@dataclass(frozen=True)
class AffineLatticeMap:
    """Invertible lattice map ``x -> linear @ x + offset`` with ``det = +-1``."""

    linear: tuple
    offset: tuple

    def __post_init__(self):
        lin = tuple(tuple(int(v) for v in row) for row in self.linear)
        off = _as_point(self.offset)
        d = len(off)
        if d < 1:
            raise DomainError("dimension must be >= 1")
        if len(lin) != d or any(len(row) != d for row in lin):
            raise DomainError(f"linear part must be a {d}x{d} integer matrix")
        det = _int_det(lin)
        if det not in (1, -1):
            raise DomainError(f"linear part must be unimodular, got determinant {det}")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "offset", off)

    @classmethod
    def translation(cls, offset: Sequence[int]) -> "AffineLatticeMap":
        off = _as_point(offset)
        d = len(off)
        eye = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        return cls(eye, off)

    @classmethod
    def identity(cls, dimension: int) -> "AffineLatticeMap":
        return cls.translation((0,) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.offset)

    @property
    def is_translation(self) -> bool:
        d = self.dimension
        return all(
            self.linear[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d)
        )

    def apply(self, x: Sequence[int]) -> Point:
        """Image of a single point, exact integer arithmetic."""
        pt = _as_point(x)
        if len(pt) != self.dimension:
            raise DomainError(f"point has dimension {len(pt)}, map has {self.dimension}")
        return tuple(
            sum(self.linear[i][j] * pt[j] for j in range(self.dimension)) + self.offset[i]
            for i in range(self.dimension)
        )

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized image of an ``(m, d)`` int64 array of points.

        Raises :class:`DomainError` unless every coordinate of the image is
        bounded by ``2**62`` a priori, so int64 arithmetic never wraps (the
        exact scalar path never does).
        """
        lin, off, row_l1, max_off = self._int64_constants
        # a uint64 view keeps |INT64_MIN| = 2**63 from wrapping negative
        if int(np.abs(pts).view(np.uint64).max(initial=0)) * row_l1 + max_off > 2**62:
            raise DomainError("coordinate range exceeded in vectorized map application")
        return pts @ lin.T + off

    @property
    def _int64_constants(self) -> tuple:
        """``(linear, offset)`` as int64 arrays, the largest row L1 norm of
        the linear part and the largest ``|offset|``, as Python ints."""
        consts = getattr(self, "_consts", None)
        if consts is None:
            consts = (
                np.array(self.linear, dtype=np.int64),
                np.array(self.offset, dtype=np.int64),
                max(sum(abs(v) for v in row) for row in self.linear),
                max(abs(c) for c in self.offset),
            )
            object.__setattr__(self, "_consts", consts)
        return consts

    @property
    def inverse(self) -> "AffineLatticeMap":
        inv = getattr(self, "_inv", None)
        if inv is None:
            lin_inv = _int_inverse(self.linear)
            d = self.dimension
            off_inv = tuple(
                -sum(lin_inv[i][j] * self.offset[j] for j in range(d)) for i in range(d)
            )
            inv = AffineLatticeMap(lin_inv, off_inv)
            object.__setattr__(self, "_inv", inv)
        return inv

    def compose(self, other: "AffineLatticeMap") -> "AffineLatticeMap":
        """The map ``x -> self(other(x))``."""
        if other.dimension != self.dimension:
            raise DomainError("composition of maps with different dimensions")
        d = self.dimension
        lin = tuple(
            tuple(
                sum(self.linear[i][k] * other.linear[k][j] for k in range(d))
                for j in range(d)
            )
            for i in range(d)
        )
        off = tuple(
            sum(self.linear[i][k] * other.offset[k] for k in range(d)) + self.offset[i]
            for i in range(d)
        )
        return AffineLatticeMap(lin, off)

    def describe(self) -> dict:
        return {"linear": [list(r) for r in self.linear], "offset": list(self.offset)}


@dataclass(frozen=True)
class Region:
    """A non-empty finite set of lattice points (a compact set at desk scale)."""

    points: frozenset

    def __post_init__(self):
        pts = frozenset(_as_point(p) for p in self.points)
        if not pts:
            raise DomainError("region must be non-empty")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise DomainError("region mixes points of different dimensions")
        object.__setattr__(self, "points", pts)

    @classmethod
    def of(cls, pts: Iterable[Sequence[int]]) -> "Region":
        return cls(frozenset(_as_point(p) for p in pts))

    @classmethod
    def box(cls, bounds: Sequence[Sequence[int]]) -> "Region":
        """All lattice points of the box ``prod_i [lo_i, hi_i]`` (inclusive)."""
        ranges = []
        for i, (lo, hi) in enumerate(bounds):
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise DomainError(f"box bound {i}: hi < lo")
            ranges.append(range(lo, hi + 1))
        pts = [()]
        for rng in ranges:
            pts = [p + (c,) for p in pts for c in rng]
        return cls(frozenset(pts))

    @property
    def dimension(self) -> int:
        return len(next(iter(self.points)))

    def sorted_points(self) -> list:
        return sorted(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, x) -> bool:
        return _as_point(x) in self.points

    def image(self, m: AffineLatticeMap) -> "Region":
        return Region(frozenset(m.apply(p) for p in self.points))


def iterate_point(m: AffineLatticeMap, n: int, x: Sequence[int]) -> Point:
    """The n-fold iterate ``m^n(x)``; negative ``n`` uses the exact inverse.

    Uses square-and-multiply on the affine pair, so large ``|n|`` costs
    ``O(log |n|)`` exact matrix products.
    """
    pt = _as_point(x)
    if n == 0:
        if len(pt) != m.dimension:
            raise DomainError("point dimension mismatch")
        return pt
    base = m if n > 0 else m.inverse
    k = abs(n)
    d = base.dimension
    lin = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    off = (0,) * d

    def comp(a, b):
        # (A2,b2) after (A1,b1): x -> A2(A1 x + b1) + b2
        (a2, b2), (a1, b1) = a, b
        lin_ = tuple(
            tuple(sum(a2[i][t] * a1[t][j] for t in range(d)) for j in range(d))
            for i in range(d)
        )
        off_ = tuple(sum(a2[i][t] * b1[t] for t in range(d)) + b2[i] for i in range(d))
        return lin_, off_

    acc = (lin, off)
    sq = (base.linear, base.offset)
    while k:
        if k & 1:
            acc = comp(sq, acc)
        k >>= 1
        if k:
            sq = comp(sq, sq)
    a, b = acc
    return tuple(sum(a[i][j] * pt[j] for j in range(d)) + b[i] for i in range(d))


def aperiodicity_bound(m: AffineLatticeMap, region: Region, horizon: int) -> Optional[int]:
    """Smallest ``N <= horizon`` with ``K ∩ m^n(K) = ∅`` for all ``n in [N, horizon]``.

    Verified by direct enumeration of the iterated images; ``None`` when the
    last checked iterate still meets ``K`` (so no bound up to the horizon).
    The result is a semi-decision: it says nothing about ``n > horizon``.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    base = region.points
    img = base
    last_hit = 0
    for n in range(1, horizon + 1):
        img = frozenset(m.apply(p) for p in img)
        if img & base:
            last_hit = n
    if last_hit == horizon:
        return None
    return last_hit + 1


def disjoint_aperiodicity_bound(
    maps: Sequence[AffineLatticeMap],
    powers: Sequence[int],
    region: Region,
    horizon: int,
) -> Optional[int]:
    """Smallest ``M <= horizon`` so that for every ``n in [M, horizon]`` the sets
    ``m_l^{r_l n}(K)`` are disjoint from ``K`` and pairwise disjoint.

    ``powers`` is the strictly increasing sequence ``r_1 < ... < r_N``.
    """
    if len(maps) < 2:
        raise DomainError("need at least two maps")
    if len(powers) != len(maps):
        raise DomainError("powers and maps must have equal length")
    r = [int(p) for p in powers]
    if any(p < 1 for p in r) or any(b <= a for a, b in zip(r, r[1:])):
        raise DomainError("powers must be strictly increasing positive integers")
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    base = region.points
    imgs = [base] * len(maps)
    last_viol = 0
    for n in range(1, horizon + 1):
        nxt = []
        for m, rl, img in zip(maps, r, imgs):
            for _ in range(rl):
                img = frozenset(m.apply(p) for p in img)
            nxt.append(img)
        imgs = nxt
        viol = any(img & base for img in imgs) or any(
            imgs[s] & imgs[l] for s in range(len(imgs)) for l in range(s + 1, len(imgs))
        )
        if viol:
            last_viol = n
    if last_viol == horizon:
        return None
    return last_viol + 1
