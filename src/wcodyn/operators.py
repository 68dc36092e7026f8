"""Weighted composition operators ``f -> w * (f ∘ alpha)`` and their iterates.

Iterates use the closed product formulas

    forward:  (T^n f)(x) = prod_{j=0..n-1} w(alpha^j(x)) * f(alpha^n(x))
    backward: (S^n f)(x) = prod_{j=1..n}  w(alpha^{-j}(x))^{-1} * f(alpha^{-n}(x))

with the weight products accumulated as sums of logarithms, one pass per
support point, so magnitudes like ``2^100000`` stay representable as logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import AffineLatticeMap, Region
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

    ``m_w`` and ``M_w`` are the min/max of the symbol over ``region``; the
    symbol and its reciprocal must be bounded there (``m_w > 0``), which is
    what makes the operator invertible.
    """

    map: AffineLatticeMap
    symbol: Weight
    region: Region

    def __post_init__(self):
        m_w = min(self.symbol.value_at(x) for x in self.region.sorted_points())
        M_w = sup_weight_on(self.symbol, self.region)
        if not (m_w > 0 and math.isfinite(M_w)):
            raise OperatorError(
                f"symbol must be bounded away from 0 and infinity, got [{m_w}, {M_w}]"
            )
        object.__setattr__(self, "_m_w", m_w)
        object.__setattr__(self, "_M_w", M_w)

    @property
    def m_w(self) -> float:
        return self._m_w

    @property
    def M_w(self) -> float:
        return self._M_w

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

    def walk(self, pts: np.ndarray, acc: np.ndarray, steps: int, backward: bool = False):
        """Step the ``(m, d)`` int64 array ``pts`` ``steps`` times in place,
        adding ``log w`` along the orbit to ``acc`` (also in place).

        A forward step adds ``log w`` at the point, then applies the map; a
        backward step applies the inverse, then adds ``log w`` at the image.
        This is the one vectorized orbit walk: the criteria scan and
        :meth:`iterate_log` both step through it.
        """
        mp = self.map.inverse if backward else self.map
        for _ in range(steps):
            if not backward:
                acc += self.symbol.log_values(pts)
            pts[...] = mp.apply_many(pts)
            if backward:
                acc += self.symbol.log_values(pts)

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
        pts = np.array([pt for pt, _ in items], dtype=np.int64)
        acc = np.zeros(len(items))
        # T^n: prod_{j=0..n-1} w(alpha^j(x)) at x = alpha^{-n}(y) equals
        # prod_{i=1..n} w(alpha^{-i}(y)), a backward walk from the support.
        # S^m: prod_{i=0..m-1} w(alpha^i(y))^{-1}, a forward walk, negated.
        self.walk(pts, acc, abs(n), backward=n > 0)
        if n < 0:
            acc = -acc
        out = {}
        for row, (_, v), a in zip(pts, items, acc):
            mag = math.log(abs(v)) + float(a)
            out[tuple(int(c) for c in row)] = (mag, v / abs(v))
        return out

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
            out[pt] = phase * math.exp(mag)
        return SampleFunction(out)

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
