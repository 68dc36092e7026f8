"""Weighted composition operators ``f -> w * (f ∘ alpha)`` and their iterates.

Iterates use the closed product formulas

    forward:  (T^n f)(x) = prod_{j=0..n-1} w(alpha^j(x)) * f(alpha^n(x))
    backward: (S^n f)(x) = prod_{j=1..n}  w(alpha^{-j}(x))^{-1} * f(alpha^{-n}(x))

with the weight products accumulated as sums of logarithms, so magnitudes
like ``2^100000`` stay representable as logs.  The support points walk
together, a block of steps per numpy call: the orbit block comes from
:func:`wcodyn.domain._orbit_block`, one broadcast product with the powers
of the map that the map caches, ``log w`` is evaluated once over it, and
``np.add.accumulate`` sums it in the order of a step-by-step walk, so every
bit is that walk's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    _BLOCK_CELLS,
    _BLOCK_ERRORS,
    AffineLatticeMap,
    Region,
    _int64_rows,
    _orbit_block,
)
from .spaces import (
    SampleFunction,
    Weight,
    sup_weight_on,
    validate_weight,
)

_EXP_LIMIT = math.log(np.finfo(np.float64).max)  # beyond this, exp overflows


class OperatorError(ValueError):
    """Raised for invalid operator construction or unrepresentable results."""


@dataclass(frozen=True)
class WeightedCompositionOperator:
    """Operator ``T f = symbol * (f ∘ map)`` with symbol bounds over a region.

    The symbol and its reciprocal must be bounded over ``region`` (its min
    ``m_w > 0`` and its max ``M_w`` finite), which is what makes the
    operator invertible.
    """

    map: AffineLatticeMap
    symbol: Weight
    region: Region

    def __post_init__(self):
        vals = list(self.symbol._values_at(self.region.sorted_points()))
        m_w, M_w = min(vals), max(vals)
        if not (m_w > 0 and math.isfinite(M_w)):
            raise OperatorError(
                f"symbol must be bounded away from 0 and infinity, got [{m_w}, {M_w}]"
            )

    def apply(self, f: SampleFunction) -> SampleFunction:
        """``(Tf)(x) = w(x) * f(map(x))``; the support moves by ``map^{-1}``."""
        inv = self.map.inverse
        out = {}
        for y, v in f.items():
            x = inv.apply(y)
            out[x] = v * self.symbol.value_at(x)
        return SampleFunction(out)

    def apply_inverse(self, f: SampleFunction) -> SampleFunction:
        """``(Sf)(x) = f(map^{-1}(x)) / w(map^{-1}(x))``; support moves by ``map``."""
        out = {}
        for y, v in f.items():
            out[self.map.apply(y)] = v / self.symbol.value_at(y)
        return SampleFunction(out)

    def walk_blocks(self, pts: np.ndarray, acc: np.ndarray, steps: int, backward: bool = False):
        """Yield the walk of ``steps`` steps from the ``(m, d)`` int64 rows
        ``pts`` with log-sums ``acc``, a block at a time: ``(points, sums)``
        of shapes ``(L, m, d)`` and ``(L, m)``, whose row ``i`` is the state
        ``i + 1`` steps on.  The inputs are not modified.

        A forward step adds ``log w`` at the point, then applies the map; a
        backward step applies the inverse, then adds ``log w`` at the image.
        A block is one :func:`~wcodyn.domain._orbit_block` and one
        ``log_values`` call, summed by ``np.add.accumulate`` seeded with the
        carried sums: the sequential ``+=`` of a step-by-step walk, bit for
        bit.  A block holds at most ``_BLOCK_CELLS`` int64 entries and is
        made when the consumer asks for it.  One that fails is retried at
        half its length, and at length 1 the step is taken as a step-by-step
        walk takes it, so an error (``DomainError`` at the int64 edge, a
        ``WeightError`` off a table) surfaces at the step where that walk
        would raise it, not at a step computed ahead.
        """
        mp = self.map.inverse if backward else self.map
        m, d = pts.shape
        cap = max(1, _BLOCK_CELLS // max(1, m * d))
        while steps > 0:
            L = min(cap, steps)
            if L == 1:
                if not backward:
                    acc = acc + self.symbol.log_values(pts)
                pts = mp.apply_many(pts)
                if backward:
                    acc = acc + self.symbol.log_values(pts)
                yield pts[None], acc[None]
            else:
                try:
                    P = _orbit_block(mp, pts, L)
                    at = P if backward else np.concatenate([pts[None], P[:-1]])
                    logs = self.symbol.log_values(at.reshape(-1, d)).reshape(L, m)
                except _BLOCK_ERRORS:  # the block ran ahead into a failing step
                    cap = L // 2
                    continue
                A = np.add.accumulate(np.concatenate([acc[None], logs]))[1:]
                pts, acc = P[-1], A[-1]
                yield P, A
            steps -= L

    def walk(self, pts: np.ndarray, acc: np.ndarray, steps: int, backward: bool = False):
        """Step the ``(m, d)`` int64 array ``pts`` ``steps`` times in place,
        adding ``log w`` along the orbit to ``acc`` (also in place), through
        :meth:`walk_blocks`.  The criteria scan's cross leg,
        :meth:`iterate_log` and the feasibility oracle step through it."""
        for P, A in self.walk_blocks(pts, acc, steps, backward):
            pts[...], acc[...] = P[-1], A[-1]

    def iterate_log(self, n: int, f: SampleFunction) -> dict:
        """Log-space iterate: point -> (log magnitude, unit phase).

        This is the overflow-free core of :meth:`iterate`; the linear-scale
        value at a point is ``phase * exp(log_magnitude)``.
        """
        items = f.items()
        if not items or n == 0:
            return {
                pt: (math.log(abs(v)), v / abs(v)) for pt, v in items
            }
        pts = _int64_rows([pt for pt, _ in items])
        acc = np.zeros(len(items))
        # T^n: prod_{j=0..n-1} w(alpha^j(x)) at x = alpha^{-n}(y) equals
        # prod_{i=1..n} w(alpha^{-i}(y)), a backward walk from the support.
        # S^m: prod_{i=0..m-1} w(alpha^i(y))^{-1}, a forward walk, negated.
        self.walk(pts, acc, abs(n), backward=n > 0)
        if n < 0:
            acc = -acc
        return {
            pt: (math.log(abs(v)) + a, v / abs(v))
            for pt, (_, v), a in zip(map(tuple, pts.tolist()), items, acc.tolist())
        }

    def iterate(self, n: int, f: SampleFunction) -> SampleFunction:
        """``T^n f`` (``S^{|n|} f`` for negative ``n``) via the product formulas.

        Raises :class:`OperatorError` when a value's magnitude exceeds the
        float range; use :meth:`iterate_log` for such regimes.
        """
        logs = self.iterate_log(n, f)
        out = {}
        for pt, (mag, phase) in logs.items():
            if mag > _EXP_LIMIT:
                raise OperatorError(
                    f"iterate value exceeds float range at {pt} "
                    f"(log magnitude {mag:.6g}); use iterate_log"
                )
            v = phase * math.exp(mag)
            if v:  # exp underflows to 0 below a log magnitude of about -745
                out[pt] = v + 0
        # the map is a bijection, so the points stay distinct int tuples
        return SampleFunction._trusted(out)

    def describe(self) -> dict:
        return {"map": self.map.describe(), "symbol": self.symbol.describe()}


def apply(T: WeightedCompositionOperator, f: SampleFunction) -> SampleFunction:
    return T.apply(f)


def apply_inverse(T: WeightedCompositionOperator, f: SampleFunction) -> SampleFunction:
    return T.apply_inverse(f)


def iterate(T: WeightedCompositionOperator, n: int, f: SampleFunction) -> SampleFunction:
    return T.iterate(n, f)


def iterate_log(T: WeightedCompositionOperator, n: int, f: SampleFunction) -> dict:
    return T.iterate_log(n, f)


def operator_norm_bound(
    T: WeightedCompositionOperator, eta: Weight, region: Region
) -> float:
    """Upper bound ``M_w * K`` for the operator norm on the weighted space.

    ``K`` is the weight admissibility constant estimated on ``region`` and
    ``M_w`` the symbol supremum there.
    """
    k_alpha = validate_weight(eta, T.map, region)
    return sup_weight_on(T.symbol, region) * k_alpha
