"""Integer lattices, unimodular affine self-maps, and aperiodicity bounds.

The dynamics happen on ``Z^d``.  A homeomorphism is modelled by an affine
map ``x -> A x + b`` with an integer matrix ``A`` of determinant ``+-1``,
so that the inverse is again an integer affine map and arbitrary forward
and backward iterates compose exactly, with no rounding anywhere.

All values in this module are immutable and hashable; coordinates are
Python integers, so iterates never wrap silently (arbitrary precision).

Orbits are stepped a block of iterates at a time: ``_orbit_block`` returns
the exact-length block ``m(X), ..., m^L(X)`` as one ``(L, |X|, d)`` int64
array from the exact powers ``m^1 .. m^L``, which each map caches as
stacked int64 arrays (a power table, grown by doubling in Python integers),
its only int64 copy: ``apply_many`` multiplies by the first row.  A block
of a translation is a sum, ``X`` plus the offsets of the powers; a linear
part of order ``p < L`` (a glide, a signed permutation, a rotation) takes
``p`` products, reused every ``p`` steps; other maps one broadcast product
with all ``L`` powers.  Both raise ``DomainError`` rather than wrap.  The
operator walk (and with it the criteria scan) and the orbit walk of the
bounds take their orbits from it.  ``_apply_stack`` takes one step of many
maps at once, each under its own ``apply_many`` guard, for the semi-mode
checker.

The aperiodicity and separation bounds are decided exactly up to the stated
horizon without stepping one iterate at a time.  When every linear part has
finite order (translations, glides, signed permutations, rotations), some
power of each map is a translation, and the bounds are decided per residue
class of ``n`` in Python integers, whatever the horizon and the coordinates.
Other maps (shears, hyperbolic maps) walk the orbit of ``K`` in int64
blocks of iterates, falling back to the exact Python-int enumeration
wherever int64 could not hold the arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

Point = tuple  # a lattice point is a tuple of ints, one entry per dimension


class DomainError(ValueError):
    """Raised for ill-formed maps, regions, or out-of-contract arguments."""


def _as_point(x: Sequence[int]) -> Point:
    return tuple(int(c) for c in x)


def _check_range(pts: np.ndarray, row_l1: int, max_off: int) -> int:
    """The guard of an int64 product with a map of largest row L1 norm
    ``row_l1`` and largest ``|offset|`` ``max_off``: :class:`DomainError`
    unless ``|x| * row_l1 + max_off <= 2**62`` for every coordinate ``x`` of
    ``pts``.  Returns the largest ``|x|``.  A uint64 view keeps
    ``|INT64_MIN| = 2**63`` from wrapping."""
    top = int(np.abs(pts).view(np.uint64).max(initial=0))
    if top * row_l1 + max_off > 2**62:
        raise DomainError("coordinate range exceeded in vectorized map application")
    return top


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
    """Exact inverse ``det * adj`` of an integer matrix with determinant +-1."""
    n, det = len(rows), _int_det(rows)

    def cofactor(i: int, j: int) -> int:
        minor = [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]
        return (-1) ** (i + j) * (_int_det(minor) if minor else 1)

    return tuple(tuple(det * cofactor(j, i) for j in range(n)) for i in range(n))


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
        """Vectorized image of an ``(m, d)`` int64 array of points, the first
        row of the map's power table (:class:`_PowerTable`).

        Raises :class:`DomainError` unless every coordinate of the image is
        bounded by ``2**62`` a priori, so int64 arithmetic never wraps (the
        exact scalar path never does).
        """
        lin, off, row_l1, max_off = self._table.powers(1)
        _check_range(pts, row_l1, max_off)
        return pts @ lin[0].T + off[0]

    @functools.cached_property
    def _table(self) -> "_PowerTable":
        """The cached int64 powers ``m^1, m^2, ...`` of this map, grown as
        :func:`_orbit_block` asks for them."""
        return _PowerTable(self)

    @functools.cached_property
    def inverse(self) -> "AffineLatticeMap":
        lin_inv = _int_inverse(self.linear)
        d = self.dimension
        off_inv = tuple(
            -sum(lin_inv[i][j] * self.offset[j] for j in range(d)) for i in range(d)
        )
        return AffineLatticeMap(lin_inv, off_inv)

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


def _power(m: AffineLatticeMap, k: int) -> AffineLatticeMap:
    """The map ``m^k`` for ``k >= 0``, composed exactly by square-and-multiply
    (``m`` itself for ``k = 1``)."""
    acc, sq = None, m
    while k:
        if k & 1:
            acc = sq if acc is None else sq.compose(acc)
        k >>= 1
        if k:
            sq = sq.compose(sq)
    return AffineLatticeMap.identity(m.dimension) if acc is None else acc


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
    return _power(m if n > 0 else m.inverse, abs(n)).apply(pt)


# ---------------------------------------------------------------------------
# Orbit blocks

_BLOCK_CELLS = 2**12  # cap on L |K| d, the int64 entries of one orbit block
# What a block of steps computed ahead may raise at a step that a
# step-by-step walk reaches later or never: the range guard and a missing
# table value (ValueError), and a floating-point fault (ArithmeticError, or
# RuntimeWarning where warnings are errors).  Its callers retry shorter.
_BLOCK_ERRORS = (ValueError, ArithmeticError, RuntimeWarning)


class _PowerTable:
    """The exact powers ``m^1 .. m^h`` of one map as stacked int64 arrays,
    ``lin`` of shape ``(h, d, d)`` and ``off`` of shape ``(h, d)``.

    It grows by doubling in exact Python integers: with ``m^1 .. m^h`` in
    hand, ``m^h`` composed with each of them gives ``m^(h+1) .. m^(2h)``.
    It keeps only the prefix of powers whose row L1 norms and offsets are
    at most ``2**62``, the range :meth:`AffineLatticeMap.apply_many` keeps
    to; once a power falls outside, the table is at its ``edge`` and
    never grows again.  Row ``j`` of ``reach`` holds the largest row L1 norm
    and the largest ``|offset|`` among ``m^1 .. m^(j+1)``.  Row 0 is ``m``
    itself, the one int64 copy that ``apply_many`` multiplies by.  The
    ``period`` of the map's linear part is learnt when first asked.
    """

    def __init__(self, m: AffineLatticeMap):
        self.map = m
        # row 0 in Python ints: many maps are built for one apply_many
        reach = [max(sum(map(abs, row)) for row in m.linear), max(map(abs, m.offset))]
        self.edge = max(reach) > 2**62
        h, d = 0 if self.edge else 1, m.dimension
        self.lin = np.array([m.linear][:h], dtype=np.int64).reshape(h, d, d)
        self.off = np.array([m.offset][:h], dtype=np.int64).reshape(h, d)
        self.reach = np.array([reach][:h], dtype=np.int64).reshape(h, 2)

    def _keep(self, lin: np.ndarray, off: np.ndarray):
        """Append the exact powers ``lin``, ``off`` (object arrays of Python
        ints) up to the first one outside the int64 range."""
        sizes = np.stack([np.abs(lin).sum(axis=2).max(axis=1), np.abs(off).max(axis=1)], axis=1)
        out = np.flatnonzero((sizes > 2**62).any(axis=1))
        h = int(out[0]) if out.size else len(sizes)
        self.edge = bool(out.size)
        prev = self.reach[-1:]
        reach = np.maximum.accumulate(np.concatenate([prev, sizes[:h].astype(np.int64)]))
        self.reach = np.concatenate([self.reach, reach[len(prev) :]])
        self.lin = np.concatenate([self.lin, lin[:h].astype(np.int64)])
        self.off = np.concatenate([self.off, off[:h].astype(np.int64)])

    @functools.cached_property
    def period(self) -> Optional[int]:
        """The order ``p`` of the map's linear part (1 for a translation), by
        :func:`_period` when first asked; ``None`` above ``_MAX_ORDER``."""
        found = _period(self.map)
        return None if found is None else found[0]

    def powers(self, length: int) -> tuple:
        """``(lin, off, row_l1, max_off)`` for ``m^1 .. m^length``: the
        first ``length`` rows of the table and, as Python ints, row
        ``length - 1`` of ``reach``.  :class:`DomainError` when the int64
        prefix is shorter."""
        while len(self.lin) < length and not self.edge:
            lin, off = self.lin.astype(object), self.off.astype(object)
            self._keep(lin[-1] @ lin, off @ lin[-1].T + off[-1])
        if len(self.lin) < length:
            raise DomainError("coordinate range exceeded in vectorized map application")
        row_l1, max_off = self.reach[length - 1].tolist()
        return self.lin[:length], self.off[:length], row_l1, max_off


def _orbit_block(m: AffineLatticeMap, X: np.ndarray, length: int) -> np.ndarray:
    """The images ``m(X), ..., m^length(X)`` of the ``(k, d)`` int64 rows
    ``X``, as a ``(length, k, d)`` array, exactly.

    The cached int64 powers of ``m`` (see :class:`_PowerTable`) give the
    whole block.  When the linear part ``A`` has an order ``p`` below
    ``length`` (the table learns it for the first block longer than one
    step), its powers repeat: ``m^j(X)`` is ``X A^((j-1) mod p + 1)ᵀ`` plus
    the offset of ``m^j``, so a translation (``p = 1``) needs no product and
    a rotation only ``p`` of them.  Otherwise one broadcast product with
    ``m^1 .. m^length``.  It runs only when the a-priori guard
    ``|X| * row_l1 + max|offset| <= 2**62`` holds with the largest row L1
    norm and ``|offset|`` among ``m^1 .. m^length``, so int64 never wraps.
    The block is returned only if the guard of ``m`` itself also holds at
    ``X, ..., m^{length-1}(X)``: a returned block is what ``length`` calls
    of ``m.apply_many`` return.  That check is skipped where the first
    guard's bound already proves it.  Otherwise :class:`DomainError`, also
    where only the guard of a power fails, so a caller that needs the images
    one step further retries shorter.
    """
    table = m._table
    lin, off, row_l1, max_off = table.powers(length)
    top = _check_range(X, row_l1, max_off)
    p = table.period if length > 1 else None
    # the offsets written out row by row, then the images added in place:
    # a broadcast add of (length, 1, d) offsets loops over d entries at a time
    out = np.repeat(off, len(X), axis=0).reshape(length, *X.shape)
    if p == 1:
        out += X
    elif p is not None and p < length:
        out += (X @ lin[:p].transpose(0, 2, 1))[np.arange(length) % p]
    else:
        out += X @ lin.transpose(0, 2, 1)
    r1, o1 = table.reach[0].tolist()
    if (top * row_l1 + max_off) * r1 + o1 > 2**62:
        _check_range(out[:-1], r1, o1)
    return out


# ---------------------------------------------------------------------------
# Stacks of maps: one step of many maps at once


def _stack(linear: np.ndarray, offset: np.ndarray) -> tuple:
    """``(lin, off, row_l1, max_off)``: the ``(M, d, d)`` linear parts and
    ``(M, d)`` offsets of ``M`` maps, given as object arrays of Python ints,
    as int64 arrays, with each map's largest row L1 norm and ``|offset|``,
    the reach of its :meth:`~AffineLatticeMap.apply_many` guard.
    :class:`DomainError` where a map lies beyond the ``2**62`` range, the
    edge of its power table."""
    row_l1 = np.abs(linear).sum(axis=2).max(axis=1)
    max_off = np.abs(offset).max(axis=1)
    if (np.maximum(row_l1, max_off) > 2**62).any():
        raise DomainError("coordinate range exceeded in vectorized map application")
    return tuple(a.astype(np.int64) for a in (linear, offset, row_l1, max_off))


def _map_stacks(maps: Sequence[AffineLatticeMap], d: int) -> tuple:
    """The stacks (see :func:`_stack`) of ``maps`` and of their exact
    inverses, each inverse ``x -> A^{-1} x - A^{-1} b`` formed in Python ints
    once per distinct linear part.  :class:`DomainError` for a map whose
    dimension is not ``d``."""
    for m in maps:
        if m.dimension != d:
            raise DomainError(f"point has dimension {d}, map has {m.dimension}")
    linear = [m.linear for m in maps]
    inverses = {A: _int_inverse(A) for A in set(linear)}
    lin = np.array(linear, dtype=object).reshape(-1, d, d)
    off = np.array([m.offset for m in maps], dtype=object).reshape(-1, d)
    lin_inv = np.array([inverses[A] for A in linear], dtype=object).reshape(-1, d, d)
    off_inv = -(lin_inv @ off[:, :, None])[:, :, 0]
    return _stack(lin, off), _stack(lin_inv, off_inv)


def _apply_stack(stack: tuple, X: np.ndarray) -> np.ndarray:
    """``m_i(X_i)`` for the ``M`` maps of ``stack`` and the ``(M, k, d)``
    int64 rows ``X`` (one ``(k, d)`` array serves every map), as an
    ``(M, k, d)`` array: what ``m_i.apply_many(X_i)`` returns, under the
    same guard.  :class:`DomainError` unless
    ``|x| * row_l1_i + max_off_i <= 2**62`` for every coordinate ``x`` of
    every ``X_i``."""
    lin, off, row_l1, max_off = stack
    top = np.minimum(np.abs(X).view(np.uint64).max(axis=(-2, -1)), 2**62 + 1).astype(np.int64)
    # the guard as |x| <= (2**62 - max_off) // row_l1, which int64 holds
    if (top > (2**62 - max_off) // row_l1).any():
        raise DomainError("coordinate range exceeded in vectorized map application")
    return X @ lin.transpose(0, 2, 1) + off[:, None]


# ---------------------------------------------------------------------------
# Aperiodicity and separation bounds
#
# Both bounds are ``last + 1`` (``None`` when ``last`` is the horizon) for
# ``last``, the last ``n <= horizon`` at which some image ``g_l^n(K)``,
# ``g_l = m_l^{r_l}``, meets ``K`` or two of the images meet each other.
# ``_last_meeting`` decides it per residue class of ``n`` in Python integers
# when every linear part has finite order.  Otherwise it walks int64 orbit
# blocks, and falls back to the Python-int enumeration
# ``_last_meeting_enumerated`` when int64 would not hold the arithmetic.

_MAX_ORDER = 12  # every finite order of a d x d integer matrix, d <= 5, is at most 12


def _last_meeting(maps, powers, region: Region, horizon: int) -> int:
    """The last ``n <= horizon`` at which some ``m_l^{r_l n}(K)`` meets ``K``
    or two of these images meet each other; 0 when there is none."""
    for m in maps:
        if m.dimension != region.dimension:
            raise DomainError(
                f"point has dimension {region.dimension}, map has {m.dimension}"
            )
    gs = [_power(m, r) for m, r in zip(maps, powers)]
    periods = [_period(g) for g in gs]
    if None not in periods:
        return _last_meeting_periodic(gs, periods, region, horizon)
    try:
        return _last_meeting_orbits(gs, region, horizon)
    except DomainError:
        return _last_meeting_enumerated(maps, powers, region, horizon)


def _period(g: AffineLatticeMap) -> Optional[tuple]:
    """``(p, t)``: the least ``p <= _MAX_ORDER`` with ``A^p = I`` for the
    linear part ``A`` of ``g``, and the offset ``t`` of the translation
    ``g^p``, exactly in Python ints; ``None`` when there is no such ``p``."""
    h = g
    for p in range(1, _MAX_ORDER + 1):
        if h.is_translation:
            return p, h.offset
        h = h.compose(g)
    return None


def _int64_rows(pts: Sequence[Point]) -> np.ndarray:
    """``pts`` as an ``(m, d)`` int64 array; :class:`DomainError` when a
    coordinate does not fit in int64 (numpy's conversion refuses it)."""
    try:
        return np.array(pts, dtype=np.int64)
    except OverflowError:
        raise DomainError("coordinate does not fit in int64") from None


class _RowIndex:
    """Exact membership of int64 rows in a fixed set of lattice points.

    Each point is keyed by its row-major offset in the set's bounding box,
    so the keys of the sorted points are sorted and a query is a box test
    and a binary search.  :class:`DomainError` when the keys would not fit
    in int64.
    """

    def __init__(self, pts: Sequence[Point]):
        pts = sorted(pts)
        lo = [min(c) for c in zip(*pts)]
        hi = [max(c) for c in zip(*pts)]
        strides = [1] * len(lo)
        for i in range(len(lo) - 2, -1, -1):
            strides[i] = strides[i + 1] * (hi[i + 1] - lo[i + 1] + 1)
        if strides[0] * (hi[0] - lo[0] + 1) > 2**62 or max(map(abs, lo + hi)) >= 2**63:
            raise DomainError("coordinate range exceeded in vectorized lookup")
        self.lo, self.hi, self.strides = lo, hi, strides
        self.keys = np.array(
            [sum((c - l) * s for c, l, s in zip(p, lo, strides)) for p in pts], dtype=np.int64
        )

    def find(self, rows: np.ndarray) -> tuple:
        """``(i, pos)``: the indices of the ``rows`` that are in the set and
        their positions among its sorted points.

        The box test and the key fold over the ``d`` columns: numpy reduces
        an axis this short at several times the cost of a column operation.
        """
        inside = np.ones(len(rows), dtype=bool)
        for col, l, h in zip(rows.T, self.lo, self.hi):
            inside &= (col >= l) & (col <= h)
        inside = np.flatnonzero(inside)
        cols = rows[inside].T
        key = (cols[0] - self.lo[0]) * self.strides[0]
        for col, l, s in zip(cols[1:], self.lo[1:], self.strides[1:]):
            key += (col - l) * s
        pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        on = self.keys[pos] == key
        return inside[on], pos[on]


def _last_meeting_periodic(gs, periods, region: Region, horizon: int) -> int:
    """The last meeting for maps ``g_l`` whose linear parts ``A_l`` have
    finite order, decided per residue class ``s`` of ``n = P q + s``,
    whatever the horizon; ``periods`` holds each map's :func:`_period`.

    For ``P`` the lcm of the orders, ``g_l^P`` is the translation by some
    ``t_l``, and ``A_l t_l = t_l`` (``g_l`` commutes with its powers), so
    ``g_l^{P q + s}(K) = g_l^s(K) + q t_l``.  Within a class every meeting
    is one of translates: ``S_j + q (t_j - t_i)`` meets ``S_i`` for two of
    the sets ``S_0 = K`` (``t_0 = 0``) and ``S_l = g_l^s(K)``.  The bounding
    boxes of the two sets bound ``q`` (:func:`_shift_range`), and
    :func:`_last_shift_meeting` finds the last ``q`` in what is left.  The
    images are products of object arrays of Python ints, so exact at any
    coordinate size.
    """
    P = math.lcm(*(p for p, _ in periods))
    K = np.array(region.sorted_points(), dtype=object)
    drifts = [(0,) * K.shape[1]] + [tuple(P // p * c for c in t) for p, t in periods]
    images = [K] * len(gs)
    boxes = [(K.min(axis=0).tolist(), K.max(axis=0).tolist())] * (len(gs) + 1)
    last = 0
    for s in range(min(P, horizon + 1)):
        if s:
            images = [
                X @ np.array(g.linear, dtype=object).T + np.array(g.offset, dtype=object)
                for g, X in zip(gs, images)
            ]
            boxes[1:] = [(X.min(axis=0).tolist(), X.max(axis=0).tolist()) for X in images]
        top = (horizon - s) // P
        sets = [K, *images]
        for i, Y in enumerate(sets):
            for j in range(i + 1, len(sets)):
                v = [b - a for a, b in zip(drifts[i], drifts[j])]
                lo, hi = _shift_range(boxes[j], boxes[i], v, (last - s) // P + 1, top)
                if lo > hi:
                    continue
                q = _last_shift_meeting(sets[j], v, Y, lo, hi)
                if q is not None:
                    last = P * q + s
    return last


def _shift_range(box_x, box_y, v: list, lo: int, hi: int) -> tuple:
    """The part of ``[lo, hi]`` (empty when ``lo > hi``) that holds every
    ``q`` with ``x + q v = y`` for some ``x`` in the box ``box_x`` and ``y``
    in ``box_y``, each box a pair ``(min, max)`` of coordinate lists.

    ``x + q v = y`` puts ``q v_c`` between ``min y_c - max x_c`` and
    ``max y_c - min x_c`` in each coordinate ``c``; a zero ``v_c`` leaves
    ``q`` free where the boxes overlap in ``c`` and empties the range where
    they do not.
    """
    for a, b, c, e, w in zip(*box_x, *box_y, v):
        low, high = c - b, e - a  # q w lies in [low, high]
        if w < 0:
            low, high, w = -high, -low, -w
        if w:
            lo, hi = max(lo, -(-low // w)), min(hi, high // w)
        elif low > 0 or high < 0:
            return lo, lo - 1
    return lo, hi


def _last_shift_meeting(X: np.ndarray, v: list, Y: np.ndarray, lo: int, hi: int):
    """The largest ``q`` in ``[lo, hi]`` (``0 <= lo <= hi``) at which the
    points ``X + q v`` meet the points ``Y``, both ``(k, d)`` object arrays
    of Python ints; ``None`` when there is none.

    At ``v = 0`` every ``q`` meets or none does.  Otherwise each point ``p``
    lies on the line ``b + Z v`` at position ``t = p_c // v_c``, with ``c``
    the first coordinate where ``v_c != 0`` and ``b = p - t v``, and
    ``x + q v = y`` exactly when ``x`` and ``y`` share a line and
    ``q = t_y - t_x``.  One bisection per point of ``X`` into the sorted
    positions of ``Y`` on its line finds the largest such ``q``, so the cost
    does not depend on the range of ``q``.
    """
    if not any(v):
        return hi if not set(map(tuple, X.tolist())).isdisjoint(map(tuple, Y.tolist())) else None
    c = next(i for i, w in enumerate(v) if w)
    step = np.array(v, dtype=object)

    def lines(pts):
        t = pts[:, c] // v[c]
        return zip(map(tuple, (pts - t[:, None] * step).tolist()), t.tolist())

    positions = {}
    for b, t in lines(Y):
        positions.setdefault(b, []).append(t)
    for ts in positions.values():
        ts.sort()
    best = lo - 1
    for b, t in lines(X):
        ts = positions.get(b, ())
        i = bisect.bisect_right(ts, t + hi) - 1
        if i >= 0:
            best = max(best, ts[i] - t)
    return best if best >= lo else None


def _meets(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Whether ``X[t]`` and ``Y[t]`` share a row, for each ``t``: ``X`` and
    ``Y`` are ``(T, k, d)`` and ``(T, k', d)`` int64 arrays, and each
    ``X[t]`` and each ``Y[t]`` a set of distinct rows (an image of a set
    under a bijection).  The sets meet iff their rows stacked together
    repeat one, which sorting them together puts side by side; only the
    ``t`` whose bounding boxes overlap are sorted."""
    d = X.shape[2]
    near = ((X.max(axis=1) >= Y.min(axis=1)) & (Y.max(axis=1) >= X.min(axis=1))).all(axis=1)
    hit = np.zeros(len(X), dtype=bool)
    sel = np.flatnonzero(near)
    if sel.size:
        rows = np.concatenate([X[sel], Y[sel]], axis=1).reshape(-1, d)
        t = np.repeat(sel, X.shape[1] + Y.shape[1])
        order = np.lexsort((*rows.T, t))
        rows, t = rows[order], t[order]
        same = t[1:] == t[:-1]
        for col in rows.T:  # cheaper than a reduction along rows this short
            same &= col[1:] == col[:-1]
        hit[t[1:][same]] = True
    return hit


def _last_meeting_orbits(gs, region: Region, horizon: int) -> int:
    """Int64 orbits of ``K``, a block of iterates at a time.

    A block holds the images ``g^{t+1}(K) .. g^{t+B}(K)`` of each
    ``g_l = m_l^{r_l}`` as a ``(B, |K|, d)`` array (``B`` a power of two):
    the :func:`_orbit_block` of ``K`` for the first, and of the last image
    of the block before for each next one, so :class:`DomainError` rather
    than wrap.  Membership in ``K`` is looked up in a :class:`_RowIndex`,
    and :func:`_meets` tells where two images meet.  Memory is
    ``O(_BLOCK_CELLS)``.
    """
    K = _int64_rows(region.sorted_points())
    k, d = K.shape
    index = _RowIndex(region.points)
    size = 1 << (max(1, min(horizon, _BLOCK_CELLS // (k * d))).bit_length() - 1)
    blocks = [_orbit_block(g, K, size) for g in gs]

    def meets_K(X):
        hit = np.zeros(len(X), dtype=bool)
        hit[index.find(X.reshape(-1, d))[0] // k] = True
        return hit

    last = 0
    for start in range(0, horizon, size):
        if start:
            blocks = [_orbit_block(g, X[-1], size) for g, X in zip(gs, blocks)]
        cur = [X[: horizon - start] for X in blocks]
        hit = np.zeros(len(cur[0]), dtype=bool)
        for X in cur:
            hit |= meets_K(X)
        for s in range(len(cur)):
            for l in range(s + 1, len(cur)):
                hit |= _meets(cur[s], cur[l])
        if hit.any():
            last = start + int(np.flatnonzero(hit)[-1]) + 1
    return last


def _last_meeting_enumerated(maps, powers, region: Region, horizon: int) -> int:
    """The exact reference: iterate Python-int images of ``K`` one ``n`` at
    a time, up to the horizon."""
    base = region.points
    imgs = [base] * len(maps)
    last = 0
    for n in range(1, horizon + 1):
        nxt = []
        for m, r, img in zip(maps, powers, imgs):
            for _ in range(r):
                img = frozenset(m.apply(p) for p in img)
            nxt.append(img)
        imgs = nxt
        if any(img & base for img in imgs) or any(
            imgs[s] & imgs[l] for s in range(len(imgs)) for l in range(s + 1, len(imgs))
        ):
            last = n
    return last


def aperiodicity_bound(m: AffineLatticeMap, region: Region, horizon: int) -> Optional[int]:
    """Smallest ``N <= horizon`` with ``K ∩ m^n(K) = ∅`` for all ``n in [N, horizon]``.

    Decided exactly up to the horizon: per residue class of ``n`` when the
    linear part of ``m`` has finite order, else along the orbit of ``K`` in
    int64 blocks of iterates (Python ints when int64 would not suffice).
    ``None`` when ``m^horizon(K)`` still meets ``K``
    (so no bound up to the horizon).  The result is a semi-decision: it says
    nothing about ``n > horizon``.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    last = _last_meeting([m], [1], region, horizon)
    return None if last == horizon else last + 1


def disjoint_aperiodicity_bound(
    maps: Sequence[AffineLatticeMap],
    powers: Sequence[int],
    region: Region,
    horizon: int,
) -> Optional[int]:
    """Smallest ``M <= horizon`` so that for every ``n in [M, horizon]`` the sets
    ``m_l^{r_l n}(K)`` are disjoint from ``K`` and pairwise disjoint.

    ``powers`` is the strictly increasing sequence ``r_1 < ... < r_N``.
    Decided exactly up to the horizon, like :func:`aperiodicity_bound`.
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
    last = _last_meeting(maps, r, region, horizon)
    return None if last == horizon else last + 1
