"""Solid norms, weights, and finitely supported sample functions on the lattice.

Three norm families are provided: counting ``l^p``, Orlicz with a Luxemburg
gauge computed by bisection, and a discrete Morrey norm built from cubes
(``l^inf`` balls).  A weighted space is obtained by pairing any of them with
a strictly positive weight ``eta``: the weighted norm of ``f`` is the plain
norm of the pointwise product ``f * eta``.

Weights are functions on the lattice; radial weights take an optional real
``scale`` that maps lattice units to real coordinates before evaluating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import AffineLatticeMap, DomainError, Point, Region

_LOG_MAX = math.log(np.finfo(np.float64).max)  # ~709.78


class SpaceError(ValueError):
    """Raised for invalid norm parameters or malformed sample functions."""


class WeightError(ValueError):
    """Violation report for a weight: non-positive or missing values.

    Carries the offending points so callers can show where the weight fails.
    """

    def __init__(self, message: str, points: Sequence[Point] = ()):
        super().__init__(message)
        self.points = tuple(points)


# ---------------------------------------------------------------------------
# Sample functions


class SampleFunction:
    """A finitely supported complex-valued function on the lattice.

    Zero values are pruned, so equality is support-wise.  Instances are
    immutable by convention; all arithmetic returns new objects.

    ``_data`` maps points to values and always holds these invariants: every
    key is a tuple of Python ``int`` and all keys have one length; every
    value is a nonzero Python ``complex`` with no negative-zero part (the
    public constructor's ``0 + value`` makes a ``-0.0`` part ``+0.0``); a
    point appears once.  The public constructor establishes them from any
    input.  Arithmetic that builds its dict from data that already holds
    them (:meth:`restrict`, :meth:`scaled_by`, ``+``, scalar ``*``, and
    ``iterate`` in :mod:`wcodyn.operators`) hands it to :meth:`_trusted`,
    which checks nothing.  Those that compute new values still pass each
    through ``complex()``, drop every one that came out zero (an underflow)
    and add ``0`` to the others, so the result is bit for bit the public
    constructor's.
    """

    __slots__ = ("_data",)
    # numpy scalars hand ``scalar * f`` to ``__rmul__`` instead of taking
    # ``f`` for a sequence
    __array_ufunc__ = None

    def __init__(self, data: Mapping[Point, complex] | Iterable = ()):
        items = data.items() if isinstance(data, Mapping) else data
        d = {}
        dim = None
        for pt, val in items:
            pt = tuple(int(c) for c in pt)
            if dim is None:
                dim = len(pt)
            elif len(pt) != dim:
                raise SpaceError("sample function mixes point dimensions")
            val = complex(val)
            if val != 0:
                d[pt] = d.get(pt, 0) + val
                if d[pt] == 0:
                    del d[pt]
        self._data = d

    @classmethod
    def _trusted(cls, data: dict) -> "SampleFunction":
        """Wrap ``data``, which must already hold the class invariants."""
        f = object.__new__(cls)
        f._data = data
        return f

    @classmethod
    def indicator(cls, points: Iterable[Sequence[int]] | Region) -> "SampleFunction":
        pts = points.points if isinstance(points, Region) else points
        return cls({tuple(int(c) for c in p): 1.0 for p in pts})

    @classmethod
    def zero(cls) -> "SampleFunction":
        return cls({})

    @property
    def support(self) -> frozenset:
        return frozenset(self._data)

    def items(self) -> list:
        """Support/value pairs in sorted point order (deterministic)."""
        return sorted(self._data.items())

    def __getitem__(self, pt) -> complex:
        return self._data.get(tuple(int(c) for c in pt), 0j)

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, SampleFunction) and self._data == other._data

    def __hash__(self):
        return hash(frozenset(self._data.items()))

    def __add__(self, other: "SampleFunction") -> "SampleFunction":
        out = dict(self._data)
        for pt, v in other._data.items():
            s = out.get(pt, 0) + v
            if s == 0:
                out.pop(pt, None)
            else:
                out[pt] = s
        return SampleFunction._trusted(out)

    def __sub__(self, other: "SampleFunction") -> "SampleFunction":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "SampleFunction":
        return SampleFunction._trusted(
            {pt: s + 0 for pt, v in self._data.items() if (s := complex(scalar * v))}
        )

    def __neg__(self) -> "SampleFunction":
        return (-1) * self

    def restrict(self, points: Iterable[Point] | Region) -> "SampleFunction":
        """The product ``f * chi_E`` for a finite set ``E``."""
        keep = points.points if isinstance(points, Region) else set(map(tuple, points))
        return SampleFunction._trusted({pt: v for pt, v in self._data.items() if pt in keep})

    def scaled_by(self, weight: "Weight") -> "SampleFunction":
        """Pointwise product ``f * w`` on the support (``w`` takes float values)."""
        data = self._data
        return SampleFunction._trusted(
            {
                pt: s + 0
                for (pt, v), w in zip(data.items(), weight._values_at(list(data)))
                if (s := complex(v * w))
            }
        )

    def compose(self, m: AffineLatticeMap) -> "SampleFunction":
        """The pullback ``f ∘ m``, supported on ``m^{-1}(supp f)``."""
        inv = m.inverse
        return SampleFunction({inv.apply(pt): v for pt, v in self._data.items()})

    def sup_abs(self) -> float:
        return max((abs(v) for v in self._data.values()), default=0.0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{pt}: {v:g}" for pt, v in self.items())
        return f"SampleFunction({{{inner}}})"


# ---------------------------------------------------------------------------
# Young functions and norms


@dataclass(frozen=True)
class PowerYoung:
    """Young function ``t -> t^p`` with ``p >= 1``."""

    p: float = 2.0

    def __post_init__(self):
        if self.p < 1:
            raise SpaceError(f"young.p: must be >= 1, got {self.p}")

    def __call__(self, t: float) -> float:
        """``Phi(t)`` for ``t >= 0``: the modular of one term at ``lam = 1``."""
        return self.modular([t], 1.0)

    def modular(self, mags: list, lam: float) -> float:
        """``sum Phi(m / lam)`` over ``mags``, correctly rounded."""
        p = self.p
        return math.fsum([(m / lam) ** p for m in mags])

    def inverse_at_one(self) -> float:
        return 1.0

    def bracket(self, mags: list) -> tuple:
        """``(a, b)`` with ``modular(mags, lam) > 1`` for every ``lam <= a`` and
        ``<= 1`` for every ``lam >= b``, from the closed form: the modular is
        ``(M / lam)^p S`` with ``M = max m`` and ``S = sum (m / M)^p``.  A
        side that cannot be certified is ``-inf`` or ``inf``.

        ``r = M S^(1/p)`` and ``a, b = r (1 -+ 2^-44)`` are the candidates,
        each kept only where ``_verdict`` certifies its side."""
        a, b = -math.inf, math.inf
        M = max(mags)
        S = math.fsum([(m / M) ** self.p for m in mags])  # in [1, n]: the max term is 1
        r = M * S ** (1.0 / self.p)
        if self._verdict(M, S, lo := r * (1.0 - 2.0**-44)) > 0:
            a = lo
        if self._verdict(M, S, hi := r * (1.0 + 2.0**-44)) < 0:
            b = hi
        return a, b

    def _verdict(self, M: float, S: float, c: float) -> int:
        """``1`` where the computed ``modular`` is certified ``> 1`` at every
        ``lam <= c``, ``-1`` where it is certified ``< 1`` at every
        ``lam >= c``, else ``0``; ``M`` and ``S`` are ``bracket``'s.

        The estimate ``S / (c / M)^p`` must exceed ``1 + beta`` (be below
        ``1 - beta``), ``beta = (3p + 10) 2^-52``.  With ``u = 2^-53`` and
        libm ``pow`` within 1 ulp (``2u``), the computed modular is the true
        one within a relative ``(p + 3) u`` to first order: ``u`` from each
        division, raised to ``p``, ``2u`` from ``pow`` and ``u`` from
        ``fsum``.  The estimate is within ``(2p + 6) u``: ``(p + 3) u`` in
        ``S`` the same way, ``(p + 2) u`` in ``(c / M)^p`` and ``u`` from the
        last division.  Terms that underflow add at most ``n 2^-1073`` in
        all, below ``u`` since ``S >= 1``.  The true modular strictly
        decreases in ``lam``, so ``beta``, twice the first-order total
        ``(3p + 10) u``, carries the estimate's verdict at ``c`` to the
        computed modular at every ``lam <= c`` (at every ``lam >= c``) while
        ``beta <= 1/2`` bounds the higher-order terms.  Beyond that ``p``, or
        where ``c`` or ``(c / M)^p`` leaves the normal range, there is no
        verdict.
        """
        beta = (3 * self.p + 10) * 2.0**-52
        if beta > 0.5:
            return 0
        cp = (c / M) ** self.p if 0.0 < c < math.inf else 0.0
        if not cp >= 2.0**-1022:
            return 0
        est = S / cp
        return 1 if est > 1.0 + beta else -1 if est < 1.0 - beta else 0

    def describe(self) -> dict:
        return {"kind": "power", "p": self.p}


@dataclass(frozen=True)
class ExpYoung:
    """Young function ``t -> e^t - 1``."""

    def __call__(self, t: float) -> float:
        """``Phi(t)`` for ``t >= 0``: the modular of one term at ``lam = 1``."""
        return self.modular([t], 1.0)

    def modular(self, mags: list, lam: float) -> float:
        """``sum Phi(m / lam)`` over ``mags``, correctly rounded."""
        return math.fsum(
            [math.expm1(t) if (t := m / lam) < _LOG_MAX else math.inf for m in mags]
        )

    def inverse_at_one(self) -> float:
        return math.log(2.0)

    def bracket(self, mags: list) -> tuple:
        """No certified bracket: every bisection step evaluates the modular."""
        return -math.inf, math.inf

    def describe(self) -> dict:
        return {"kind": "exp"}


@dataclass(frozen=True)
class EllPNorm:
    """Counting-measure ``l^p`` norm, ``p in [1, inf]``."""

    p: float = 1.0

    def __post_init__(self):
        if not (self.p >= 1):
            raise SpaceError(f"norm.p: must be >= 1 (or inf), got {self.p}")

    def value(self, f: SampleFunction) -> float:
        """``(sum |f|^p)^(1/p)``; only where a power or the sum overflows is it
        taken as ``M (sum (|f| / M)^p)^(1/p)`` with ``M`` the largest
        magnitude (:func:`_rescaled`)."""
        mags = [abs(v) for v in f._data.values()]
        if not mags:
            return 0.0
        p = self.p
        if math.isinf(p):
            return max(mags)
        norm = lambda ms: math.fsum([m**p for m in ms]) ** (1.0 / p)
        try:
            return norm(mags)
        except OverflowError:
            return _rescaled(norm, mags, "l^p")

    def describe(self) -> dict:
        return {"kind": "ell_p", "p": self.p}


@dataclass(frozen=True)
class OrliczNorm:
    """Luxemburg gauge ``inf{lam > 0 : sum Phi(|f|/lam) <= 1}`` by bisection.

    The bisection runs to machine precision so that the norm is monotone in
    ``|f|`` to ~1e-15, which the solidity axiom relies on; ``tol`` is only
    validated and echoed by :meth:`describe`.  Each modular is one call of
    the Young function's ``modular``: a list of scalar terms, each a Python
    float ``/`` and ``**`` (or ``math.expm1``), summed by ``math.fsum``.
    The terms are scalar libm calls on purpose: numpy's vectorised ``pow``
    and ``expm1`` may use SIMD kernels whose results differ from libm's in
    the last bit.  ``fsum`` is correctly rounded, so the order of the terms
    (support order, unsorted) does not change the sum.

    The Young function's ``bracket`` gives ``a <= lam* <= b`` whose
    comparisons are certified (:meth:`PowerYoung._verdict` derives its
    slack; ``ExpYoung`` has none).  A bisection point ``<= a`` moves ``lo`` and one
    ``>= b`` moves ``hi`` without evaluating the modular, since the
    evaluation there is certain to decide the same way; only points strictly
    inside ``(a, b)`` are evaluated.  The midpoints, the comparison outcomes
    and the result are those of evaluating at every step, bit for bit, and a
    power-Young norm of normal magnitudes takes 9-13 evaluations instead of
    52-57, the first at ``lo``, which settles a one-point support.  Only
    where the magnitudes (or, for a bisection, its upper end
    ``sum / Phi^-1(1)``) pass the float range is the gauge taken of the
    magnitudes divided by the largest one and multiplied back
    (:func:`_rescaled`).
    """

    young: PowerYoung | ExpYoung = PowerYoung(2.0)
    tol: float = 1e-10

    def __post_init__(self):
        if self.tol <= 0:
            raise SpaceError("norm.tol: must be positive")

    def value(self, f: SampleFunction) -> float:
        mags = [abs(v) for v in f._data.values()]
        if not mags:
            return 0.0
        try:
            return self._gauge(mags)
        except OverflowError:  # the magnitudes sum past the float range
            return _rescaled(self._gauge, mags, "orlicz")

    def _gauge(self, mags: list) -> float:
        modular = self.young.modular
        inv1 = self.young.inverse_at_one()
        lo = max(mags) / inv1  # modular(lo) >= Phi(max/lo) = 1
        hi = math.fsum(mags) / inv1  # modular(hi) <= Phi(sum/hi) = 1 by convexity
        if modular(mags, lo) <= 1.0:
            return lo
        if hi == math.inf:  # the bisection would end at inf; _rescaled decides the norm
            raise OverflowError("orlicz bracket exceeds the float range")
        a, b = self.young.bracket(mags)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            # modular(mags, mid) <= 1.0, evaluated only inside (a, b)
            if mid >= b or (mid > a and modular(mags, mid) <= 1.0):
                hi = mid
            else:
                lo = mid
        return hi

    def describe(self) -> dict:
        return {"kind": "orlicz", "young": self.young.describe(), "tol": self.tol}


@dataclass(frozen=True)
class MorreyNorm:
    """Discrete Morrey norm: sup over lattice cubes ``B`` of
    ``|B|^(1/p - 1/q) * (sum_{x in B} |f(x)|^q)^(1/q)``.

    The sup runs over all ``l^inf`` balls of radius ``0..max_radius``, so it
    is finite, reproducible and translation invariant.  Only balls centred
    within ``max_radius`` of the support hold mass: the cost is
    ``O(|supp| (2 max_radius + 1)^d)`` however far apart the points lie.
    Those centres are int64 points, so a support coordinate within
    ``max_radius`` of either int64 end raises :class:`DomainError`.

    Point ``x`` puts its mass into the bucket ``(x + o, |o|_inf)`` for every
    offset ``o``, and equal centres ``x + o`` share one int64 key: the
    row-major offset of ``x + o`` in the support's bounding box grown by
    ``max_radius``, which is the key of ``x`` plus the key of ``o``.  Where
    that box has at most ``_DENSE`` cells per (point, offset) cell, the key
    is the bucket's row: one ``np.bincount`` fills a ``(box, max_radius + 1)``
    array, never larger than the sort path's array can grow, and its empty
    buckets add only zeros to the max.  A sparser support numbers the
    centres that occur by the ranks of an ``argsort`` of the keys and a
    "differs from the previous one" mask; row-major order in the box is
    lexicographic order, so these are the ranks a lexicographic sort of the
    coordinates gives.  A grown box of more than ``2**62`` cells, whose keys
    come near the int64 end, is ranked by ``np.lexsort`` over the
    coordinates.  On every path ``bincount`` adds each bucket's terms in
    support order from 0.0, so the paths agree bit for bit.  The offsets,
    their rings and the cube weights are made once per dimension and kept on
    the instance.
    """

    p: float = 2.0
    q: float = 1.0
    max_radius: int = 10

    _DENSE = 1  # box cells per (point, offset) cell up to which every box cell is a bucket

    def __post_init__(self):
        if not (1 <= self.q < self.p):
            raise SpaceError(
                f"norm.q: must satisfy 1 <= q < p, got q={self.q}, p={self.p}"
            )
        if math.isinf(self.p):
            raise SpaceError("norm.p: must be finite for the morrey norm")
        if self.max_radius < 0:
            raise SpaceError("norm.max_radius: must be >= 0")
        object.__setattr__(self, "_grids", {})

    def _grid(self, d: int) -> tuple:
        """``(offsets, rings, weights)`` in dimension ``d``: the ``(M, d)``
        offsets of ``l^inf`` norm at most ``max_radius`` in lexicographic
        order, the norm of each, and the cube factor of each radius."""
        grid = self._grids.get(d)
        if grid is None:
            r_max = self.max_radius
            axis = np.arange(-r_max, r_max + 1)
            offsets = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
            weights = ((2 * np.arange(r_max + 1) + 1) ** d) ** (1.0 / self.p - 1.0 / self.q)
            grid = self._grids[d] = (offsets, np.abs(offsets).max(axis=1), weights)
        return grid

    def value(self, f: SampleFunction) -> float:
        items = f.items()
        if not items:
            return 0.0
        r_max = self.max_radius
        m, d = len(items), len(items[0][0])
        try:  # from one flat list, several times faster than from the tuples
            pts = np.array([c for pt, _ in items for c in pt], dtype=np.int64).reshape(m, d)
            lows, highs = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
            if min(lows) - r_max < -(2**63) or max(highs) + r_max > 2**63 - 1:
                raise OverflowError
        except OverflowError:
            raise DomainError(
                f"morrey cubes of radius {r_max} around the support leave int64"
            ) from None
        mags_q = np.array([abs(v) ** self.q for _, v in items])
        offsets, rings, weights = self._grid(d)
        low = [lo - r_max for lo in lows]
        sides = [hi + r_max + 1 - lo for hi, lo in zip(highs, low)]
        box = math.prod(sides)
        labels = None
        if box <= 2**62:
            strides = np.array([math.prod(sides[i + 1 :]) for i in range(d)])  # row-major
            keys = ((pts - low) @ strides)[:, None] + offsets @ strides
            if box <= self._DENSE * keys.size:
                labels, n = keys, box
            else:
                order = np.argsort(keys, axis=None)
                ranked = keys.ravel()[order][:, None]
        else:
            cells = (pts[:, None, :] + offsets).reshape(-1, d)
            order = np.lexsort(cells.T[::-1])
            ranked = cells[order]
        if labels is None:
            new = np.zeros(len(order), dtype=bool)
            new[0] = True
            for col in ranked.T:  # cheaper than a reduction along rows this short
                new[1:] |= col[1:] != col[:-1]
            labels = np.empty(len(order), dtype=np.intp)
            labels[order] = np.cumsum(new) - 1
            labels, n = labels.reshape(m, -1), int(new.sum())
        # np.bincount sums each (centre, ring) bucket in the order of the
        # cells, that is in support order, from 0.0; cumsum runs over the radii
        mass = np.bincount(
            (labels * (r_max + 1) + rings).ravel(),
            weights=np.repeat(mags_q, len(offsets)),
            minlength=n * (r_max + 1),
        ).reshape(n, r_max + 1)
        return float((weights * np.cumsum(mass, axis=1) ** (1.0 / self.q)).max())

    def describe(self) -> dict:
        return {
            "kind": "morrey",
            "p": self.p,
            "q": self.q,
            "max_radius": self.max_radius,
        }


def _rescaled(norm, mags: list, kind: str) -> float:
    """``M * norm(mags / M)`` with ``M = max(mags)``, for a homogeneous
    ``norm`` whose unscaled form overflowed; :class:`SpaceError` where the
    norm itself lies beyond the float range."""
    top = max(mags)
    if top < math.inf:
        value = top * norm([m / top for m in mags])
        if value < math.inf:
            return value
    raise SpaceError(f"{kind} norm exceeds the float range")


def norm(spec, f: SampleFunction) -> float:
    """The solid norm ``||f||_F`` for any of the norm specs."""
    return spec.value(f)


# ---------------------------------------------------------------------------
# Weights


class Weight:
    """A strictly positive function on the lattice.

    Subclasses implement scalar ``value_at`` and may override the vectorized
    ``values``/``log_values`` (used heavily by the criterion scanners).
    """

    def value_at(self, pt: Point) -> float:
        raise NotImplementedError

    def log_value_at(self, pt: Point) -> float:
        return math.log(self.value_at(pt))

    def _values_at(self, pts: list) -> Iterable[float]:
        """``value_at(pt)`` for every point tuple in ``pts``, in order and bit
        for bit.  The default calls ``value_at`` lazily, so an error surfaces
        at the point where a loop over ``value_at`` would raise it."""
        return map(self.value_at, pts)

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.array([self.value_at(tuple(int(c) for c in row)) for row in pts])

    def log_values(self, pts: np.ndarray) -> np.ndarray:
        return np.log(self.values(pts))

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantWeight(Weight):
    c: float = 1.0

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise WeightError(f"constant weight must be positive, got {self.c}")
        object.__setattr__(self, "c", float(self.c))  # a float32 c would round products

    def value_at(self, pt: Point) -> float:
        return self.c

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.full(len(pts), self.c)

    def log_values(self, pts: np.ndarray) -> np.ndarray:
        return np.full(len(pts), math.log(self.c))

    def describe(self) -> dict:
        return {"kind": "constant", "value": self.c}


@dataclass(frozen=True)
class RadialPowerWeight(Weight):
    """``w(x) = 1`` inside the unit ball and ``||x*scale||^{-p}`` outside.

    ``scale`` converts lattice units to real coordinates before taking the
    Euclidean norm, so the same formula serves any lattice resolution.
    """

    p: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.p <= 0:
            raise WeightError("radial power weight needs p > 0")
        if self.scale <= 0:
            raise WeightError("scale must be positive")

    def value_at(self, pt: Point) -> float:
        r = self.scale * math.sqrt(sum(float(c) * float(c) for c in pt))
        return 1.0 if r <= 1.0 else r**-self.p

    def _values_at(self, pts: list) -> Iterable[float]:
        """``value_at`` of each point tuple: the radii are ``_radii``'s, whose
        fold starting at ``x_0*x_0`` gives the bits of ``value_at``'s sum
        starting at ``0.0``, then ``r ** -p`` is Python's float pow (libm) per
        point.  numpy's vectorised ``pow`` is avoided: its SIMD kernel may
        differ from libm in the last bit.  A square past the float range is
        ``inf`` without a warning, as in ``value_at``; a coordinate beyond
        the float range, which ``value_at`` cannot convert, sends the points
        through the default's lazy ``value_at``, so the error surfaces where
        it would."""
        if not pts:
            return []
        q = -self.p
        try:
            with np.errstate(over="ignore"):
                r = self._radii(np.array(pts, dtype=np.float64))
        except OverflowError:
            return super()._values_at(pts)
        return [1.0 if x <= 1.0 else x**q for x in r.tolist()]

    def _radii(self, pts: np.ndarray) -> np.ndarray:
        """``scale * sqrt(x_0*x_0 + x_1*x_1 + ...)`` per row, the squares added
        left to right one column at a time, which is how numpy sums a row
        this short, at a fraction of the cost of a reduction along it."""
        sq = pts.astype(np.float64)
        sq *= sq
        total = sq[:, 0].copy()
        for col in sq.T[1:]:
            total += col
        return self.scale * np.sqrt(total)

    def values(self, pts: np.ndarray) -> np.ndarray:
        r = self._radii(pts)
        out = np.ones(len(pts))
        m = r > 1.0
        out[m] = r[m] ** -self.p
        return out

    def log_values(self, pts: np.ndarray) -> np.ndarray:
        r = self._radii(pts)
        out = np.zeros(len(pts))
        m = r > 1.0
        out[m] = -self.p * np.log(r[m])
        return out

    def describe(self) -> dict:
        return {"kind": "radial_power", "p": self.p, "scale": self.scale}


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


class TableWeight(Weight):
    """Explicit point -> value table, optionally with a default off-table value."""

    def __init__(self, values: Mapping[Point, float], default: float | None = None):
        tbl = {}
        bad = []
        for pt, v in values.items():
            pt = tuple(int(c) for c in pt)
            v = float(v)
            if not (v > 0 and math.isfinite(v)):
                bad.append(pt)
            tbl[pt] = v
        if bad:
            raise WeightError("table weight has non-positive entries", bad)
        if default is not None and not (default > 0 and math.isfinite(default)):
            raise WeightError("table default must be positive")
        self._table = tbl
        self.default = None if default is None else float(default)
        self._lookups = {}

    def value_at(self, pt: Point) -> float:
        pt = tuple(int(c) for c in pt)
        v = self._table.get(pt)
        if v is None:
            if self.default is None:
                raise WeightError(f"weight table has no value at {pt}", [pt])
            return self.default
        return v

    def _lookup(self, d: int):
        """``(index, values)`` of the ``d``-dimensional entries, the values in
        the order of the sorted points; ``None`` when there are none or their
        keys would not fit in int64."""
        if d not in self._lookups:
            pts = sorted(p for p in self._table if len(p) == d)
            try:
                lookup = (_RowIndex(pts), np.array([self._table[p] for p in pts])) if pts else None
            except DomainError:
                lookup = None
            self._lookups[d] = lookup
        return self._lookups[d]

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts)
        lookup = self._lookup(pts.shape[1]) if pts.ndim == 2 and len(pts) else None
        if lookup is None:
            return super().values(pts)
        index, vals = lookup
        found, pos = index.find(pts.astype(np.int64, copy=False))
        if self.default is None:
            if len(found) < len(pts):
                missing = np.ones(len(pts), dtype=bool)
                missing[found] = False
                missing = list(dict.fromkeys(tuple(int(c) for c in row) for row in pts[missing]))
                more = f" and {len(missing) - 1} more points" if len(missing) > 1 else ""
                raise WeightError(f"weight table has no value at {missing[0]}{more}", missing)
            return vals[pos]
        out = np.full(len(pts), self.default, dtype=float)
        out[found] = vals[pos]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TableWeight)
            and self._table == other._table
            and self.default == other.default
        )

    def describe(self) -> dict:
        return {
            "kind": "table",
            "entries": len(self._table),
            "default": self.default,
        }


@dataclass(frozen=True)
class ProductWeight(Weight):
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise WeightError("product weight needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    def value_at(self, pt: Point) -> float:
        out = 1.0
        for w in self.factors:
            out *= w.value_at(pt)
        return out

    def values(self, pts: np.ndarray) -> np.ndarray:
        out = np.ones(len(pts))
        for w in self.factors:
            out *= w.values(pts)
        return out

    def log_values(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pts))
        for w in self.factors:
            out += w.log_values(pts)
        return out

    def describe(self) -> dict:
        return {"kind": "product", "factors": [w.describe() for w in self.factors]}


# ---------------------------------------------------------------------------
# Operations pairing norms and weights


def weighted_norm(spec, eta: Weight, f: SampleFunction) -> float:
    """``||f||_{F_eta} = ||f * eta||_F``, exactly by construction."""
    return spec.value(f.scaled_by(eta))


def _failing(pts: list, vals) -> list:
    """The points whose weight value is non-positive or non-finite."""
    return [x for x, v in zip(pts, vals) if not (v > 0 and math.isfinite(v))]


def validate_weight(eta: Weight, m: AffineLatticeMap, region: Region) -> float:
    """Estimated admissibility constant ``K`` on the region.

    Returns the largest of ``eta(m(x))/eta(x)`` and ``eta(m^{-1}(x))/eta(x)``
    over the region.  Raises :class:`WeightError` (the violation report) when
    eta is non-positive or non-finite anywhere sampled.

    Both images of the region come from one product of object arrays of
    Python ints per map, exact at any coordinate size, and the weight is read
    in one ``_values_at`` call over the triples ``(x, m(x), m^{-1}(x))`` in
    sorted order of ``x``.  The triples are checked one at a time in that
    order, so the first failing triple raises, with its failing points, as a
    loop over ``value_at`` meets it.
    """
    if region.dimension != m.dimension:
        raise DomainError(f"point has dimension {region.dimension}, map has {m.dimension}")
    pts = region.sorted_points()
    X = np.array(pts, dtype=object)
    fwd, bwd = (
        (X @ np.array(g.linear, dtype=object).T + np.array(g.offset, dtype=object)).tolist()
        for g in (m, m.inverse)
    )
    triples = [pt for x, y, z in zip(pts, fwd, bwd) for pt in (x, tuple(y), tuple(z))]
    vals = iter(eta._values_at(triples))
    k = 0.0
    for i, (v0, v1, v2) in enumerate(zip(vals, vals, vals)):
        if bad := _failing(triples[3 * i : 3 * i + 3], (v0, v1, v2)):
            raise WeightError("weight is non-positive on sampled points", bad)
        k = max(k, v1 / v0, v2 / v0)
    return k


def inf_weight_on(eta: Weight, region: Region) -> float:
    """``m_K``: the minimum of the weight over the finite set ``K``.

    Raises :class:`WeightError` naming every point of ``K`` where the weight
    is non-positive or non-finite."""
    pts = region.sorted_points()
    vals = list(eta._values_at(pts))
    if bad := _failing(pts, vals):
        more = f" and {len(bad) - 1} more points" if len(bad) > 1 else ""
        raise WeightError(f"weight is non-positive on the region at {bad[0]}{more}", bad)
    return min(vals)


def sup_weight_on(w: Weight, region: Region) -> float:
    return max(w._values_at(region.sorted_points()))
