"""Decision procedures for transitivity of weighted composition operators.

Three checkers are provided:

* :func:`check_transitivity` — single operator on the weighted space,
* :func:`check_disjoint_transitivity` — powers ``T_l^{r_l n}`` of several
  operators simultaneously,
* :func:`check_semi_transitivity` — a family indexed by ``t`` with positive
  scalars, certified on a tail ``t >= t0`` of the index range.

Each checker constructs admissible subsets ``E ⊆ K`` by thresholding the
relevant weight-product quantities and searches for a strictly increasing
sequence of iterate counts along which all quantities decay.  Verdicts are
semi-decisions: a found witness sequence is certifiable (see the witness
module), while "no witness up to the horizon" is evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .domain import (
    AffineLatticeMap,
    Region,
    aperiodicity_bound,
    disjoint_aperiodicity_bound,
)
from .operators import WeightedCompositionOperator
from .spaces import SampleFunction, Weight, inf_weight_on, validate_weight

WITNESS_FOUND = "WitnessFound"
NO_WITNESS = "NoWitnessUpToHorizon"
TAIL_FOUND = "TailFound"
NO_TAIL = "NoTailFound"

_TIE = 1e-12  # slack for comparisons against the dyadic residual schedule


class CriterionError(ValueError):
    """Raised for out-of-contract checker arguments."""


class DisjointAperiodicityError(CriterionError):
    """The separation condition on iterated images is unattainable up to the
    horizon, so no iterate count qualifies at all (distinct from a mere
    no-witness verdict)."""


def _safe_exp(x: float) -> float:
    return math.inf if x > 709.0 else math.exp(x)


# ---------------------------------------------------------------------------
# Systems under test


@dataclass(frozen=True)
class Scenario:
    """A norm, a weight eta, and one operator, with an estimation region for
    the admissibility and symbol constants."""

    norm: object
    eta: Weight
    operator: WeightedCompositionOperator
    region: Region

    def __post_init__(self):
        k = validate_weight(self.eta, self.operator.map, self.region)
        object.__setattr__(self, "_k_alpha", k)

    @property
    def k_alpha(self) -> float:
        return self._k_alpha

    def describe(self) -> dict:
        return {
            "norm": self.norm.describe(),
            "eta": self.eta.describe(),
            "operator": self.operator.describe(),
        }


@dataclass(frozen=True)
class DisjointSystem:
    """Several operators with strictly increasing powers ``r_1 < ... < r_N``."""

    norm: object
    eta: Weight
    operators: tuple
    powers: tuple

    def __post_init__(self):
        ops = tuple(self.operators)
        r = tuple(int(p) for p in self.powers)
        if len(ops) < 2:
            raise CriterionError("a disjoint system needs at least two operators")
        if len(r) != len(ops):
            raise CriterionError("powers and operators must have equal length")
        if any(p < 1 for p in r) or any(b <= a for a, b in zip(r, r[1:])):
            raise CriterionError("powers must be strictly increasing positive integers")
        for op in ops:
            validate_weight(self.eta, op.map, op.region)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "powers", r)

    @property
    def n_ops(self) -> int:
        return len(self.operators)

    def describe(self) -> dict:
        return {
            "norm": self.norm.describe(),
            "eta": self.eta.describe(),
            "operators": [op.describe() for op in self.operators],
            "powers": list(self.powers),
        }


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Families ``T_{t,l}`` over a finite integer index range ``t in S``.

    ``map_for(t, l)`` and ``symbol_for(t, l)`` produce the map and symbol of
    the l-th family member at index t (``l`` is 0-based).  The admissibility
    filter is the family of tails ``{t >= t0}`` of the index range.
    """

    norm: object
    eta: Weight
    n_ops: int
    index_set: tuple
    map_for: Callable[[int, int], AffineLatticeMap]
    symbol_for: Callable[[int, int], Weight]

    def __post_init__(self):
        if self.n_ops < 1:
            raise CriterionError("family needs at least one operator sequence")
        ts = tuple(sorted(set(int(t) for t in self.index_set)))
        if not ts:
            raise CriterionError("family index set is empty")
        object.__setattr__(self, "index_set", ts)

    def describe(self) -> dict:
        return {
            "norm": self.norm.describe(),
            "eta": self.eta.describe(),
            "n_ops": self.n_ops,
            "index_set": [self.index_set[0], self.index_set[-1]],
        }


# ---------------------------------------------------------------------------
# Pointwise criterion quantities


def lambda_forward(scenario: Scenario, n: int, x) -> float:
    """``eta(alpha^n(x)) * prod_{j=0..n-1} w(alpha^j(x))^{-1}`` in log space."""
    if n < 1:
        raise CriterionError("n must be >= 1")
    m = scenario.operator.map
    w = scenario.operator.symbol
    p = tuple(int(c) for c in x)
    acc = 0.0
    for _ in range(n):
        acc += w.log_value_at(p)
        p = m.apply(p)
    return scenario.eta.value_at(p) * _safe_exp(-acc)


def lambda_backward(scenario: Scenario, n: int, x) -> float:
    """``eta(alpha^{-n}(x)) * prod_{j=1..n} w(alpha^{-j}(x))`` in log space."""
    if n < 1:
        raise CriterionError("n must be >= 1")
    inv = scenario.operator.map.inverse
    w = scenario.operator.symbol
    p = tuple(int(c) for c in x)
    acc = 0.0
    for _ in range(n):
        p = inv.apply(p)
        acc += w.log_value_at(p)
    return scenario.eta.value_at(p) * _safe_exp(acc)


def gamma_cross(system: DisjointSystem, s: int, l: int, n: int, x) -> float:
    """The cross quantity tying operator ``s`` forward to operator ``l``
    backward at iterate count ``n`` (0-based indices, ``s != l``):

    ``eta(a_l^{-r_l n}(y)) * prod_{j=1..r_l n} w_l(a_l^{-j}(y))
      / prod_{j=0..r_s n - 1} w_s(a_s^j(x))`` with ``y = a_s^{r_s n}(x)``.
    """
    if s == l:
        raise CriterionError("cross indices must be distinct")
    if n < 1:
        raise CriterionError("n must be >= 1")
    op_s, op_l = system.operators[s], system.operators[l]
    r_s, r_l = system.powers[s], system.powers[l]
    p = tuple(int(c) for c in x)
    b = 0.0
    for _ in range(r_s * n):
        b += op_s.symbol.log_value_at(p)
        p = op_s.map.apply(p)
    a = 0.0
    inv = op_l.map.inverse
    for _ in range(r_l * n):
        p = inv.apply(p)
        a += op_l.symbol.log_value_at(p)
    return system.eta.value_at(p) * _safe_exp(a - b)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class CriterionStage:
    k: int
    n: int
    admissible: tuple
    sup_forward: float
    sup_backward: float
    chi_residual: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "admissible": [list(p) for p in self.admissible],
            "sup_forward": self.sup_forward,
            "sup_backward": self.sup_backward,
            "chi_residual": self.chi_residual,
        }


@dataclass
class CriterionProbe:
    n: int
    sup_forward: float
    sup_backward: float
    gamma_max: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "sup_forward": self.sup_forward,
            "sup_backward": self.sup_backward,
        }
        if self.gamma_max is not None:
            d["gamma_max"] = self.gamma_max
        return d


_SEMIDECISION_NOTE = (
    "WitnessFound is certifiable by witness construction; "
    "NoWitnessUpToHorizon is evidence up to the horizon, not proof."
)


@dataclass
class _ScanReport:
    """Fields and serialisation shared by the reports of the scanner; each
    subclass adds its bound field, then ``params``."""

    verdict: str
    m_K: float
    K: tuple
    horizon: int
    tol: float
    stages: list
    probes: list

    @property
    def n_sequence(self) -> list:
        return [st.n for st in self.stages]

    def last_stage(self):
        return self.stages[-1] if self.stages else None

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["K"] = [list(p) for p in self.K]
        d["stages"] = [st.to_dict() for st in self.stages]
        d["probes"] = [pr.to_dict() for pr in self.probes]
        d["semidecision_note"] = _SEMIDECISION_NOTE
        return d


@dataclass
class CriterionReport(_ScanReport):
    """Verdict for one operator, with the accepted stage curve."""

    aperiodicity_N: Optional[int]
    params: dict = field(default_factory=dict)


@dataclass
class DisjointStage:
    k: int
    n: int
    admissible: tuple
    sup_forward: tuple  # per operator
    sup_backward: tuple  # per operator
    gamma: dict  # (s, l) 0-based -> sup over admissible set
    chi_residual: float

    @property
    def gamma_max(self) -> float:
        return max(self.gamma.values()) if self.gamma else 0.0

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "admissible": [list(p) for p in self.admissible],
            "sup_forward": list(self.sup_forward),
            "sup_backward": list(self.sup_backward),
            "gamma": {f"s{s + 1}_l{l + 1}": v for (s, l), v in sorted(self.gamma.items())},
            "chi_residual": self.chi_residual,
        }


@dataclass
class DisjointReport(_ScanReport):
    """Verdict for several operator powers at once, with the accepted stage
    curve; candidates start at the separation bound."""

    separation_bound: int
    params: dict = field(default_factory=dict)


@dataclass
class SemiRow:
    t: int
    admissible: tuple
    chi_residual: float
    sup_forward: tuple  # per operator: sup eta(a_{t,l}(x)) / w_{t,l}(x)
    sup_backward: tuple  # per operator: sup eta(a^{-1}(x)) * w(a^{-1}(x))
    sup_cross: dict  # (s, l) -> sup of the cross quantity
    lambda_t: float
    pass_chi: bool
    pass_product: bool
    pass_cross: bool
    pass_aperiodic: bool

    @property
    def qualifies(self) -> bool:
        return self.pass_chi and self.pass_product and self.pass_cross and self.pass_aperiodic

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "admissible": [list(p) for p in self.admissible],
            "chi_residual": self.chi_residual,
            "sup_forward": list(self.sup_forward),
            "sup_backward": list(self.sup_backward),
            "sup_cross": {f"s{s + 1}_l{l + 1}": v for (s, l), v in sorted(self.sup_cross.items())},
            "lambda_t": self.lambda_t,
            "pass_chi": self.pass_chi,
            "pass_product": self.pass_product,
            "pass_cross": self.pass_cross,
            "pass_aperiodic": self.pass_aperiodic,
            "qualifies": self.qualifies,
        }


@dataclass
class EpsilonReport:
    """Per-epsilon tail certificate for an operator family.

    The underlying notion quantifies over every epsilon in (0,1); a run of
    the checker certifies the stated epsilon only.
    """

    verdict: str
    tail_start: Optional[int]
    m_K: float
    K: tuple
    epsilon: float
    rows: list
    params: dict = field(default_factory=dict)

    def row_for(self, t: int) -> SemiRow:
        for row in self.rows:
            if row.t == t:
                return row
        raise KeyError(f"no row for t={t}")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tail_start": self.tail_start,
            "m_K": self.m_K,
            "K": [list(p) for p in self.K],
            "epsilon": self.epsilon,
            "rows": [r.to_dict() for r in self.rows],
            "params": self.params,
            "semidecision_note": (
                "TailFound certifies the stated epsilon and compact set only."
            ),
        }


# ---------------------------------------------------------------------------
# Checkers


class _ChiNormCache:
    """Norms of indicator functions, keyed by the excluded point set."""

    def __init__(self, norm_spec):
        self.norm_spec = norm_spec
        self._cache = {}

    def __call__(self, points: frozenset) -> float:
        if not points:
            return 0.0
        v = self._cache.get(points)
        if v is None:
            v = self.norm_spec.value(SampleFunction.indicator(points))
            self._cache[points] = v
        return v


def _probe_schedule(horizon: int) -> set:
    ns = {horizon}
    n = 1
    while n <= horizon:
        ns.add(n)
        n *= 2
    return ns


def _check_args(K: Region, horizon: int, tol: float):
    if len(K) < 1:
        raise CriterionError("K must be non-empty")
    if horizon < 1:
        raise CriterionError("horizon must be >= 1")
    if not (0.0 < tol < 1.0):
        raise CriterionError("tol must lie in (0, 1)")


def _as_system(obj) -> tuple:
    """Normalize a Scenario or DisjointSystem to ``(norm, eta, ops, powers)``;
    a single operator is the system of one operator at power 1."""
    if isinstance(obj, Scenario):
        return obj.norm, obj.eta, (obj.operator,), (1,)
    if isinstance(obj, DisjointSystem):
        return obj.norm, obj.eta, obj.operators, obj.powers
    raise CriterionError(f"expected Scenario or DisjointSystem, got {type(obj).__name__}")


def _scan(norm, eta, ops, powers, K: Region, horizon: int, tol: float, start: int) -> dict:
    """Search for a common witness sequence of the powers ``T_l^{r_l n}``.

    Scans ``n = 1..horizon``.  At stage ``k`` a candidate ``n >= start`` is
    accepted as ``n_k`` when the admissible set ``E`` obtained by discarding
    points whose forward, backward or cross quantity exceeds ``m_K / 2^k``
    leaves an indicator residual ``||chi_{K\\E}||_F <= 4 / 2^k``.  The verdict
    becomes ``WitnessFound`` once the sups over ``E`` and the residual at a
    stage all drop to ``tol`` or below.  Returns the fields shared by the
    reports, with :class:`DisjointStage` stages.
    """
    m_K = inf_weight_on(eta, K)
    sorted_pts = K.sorted_points()
    pts = np.array(sorted_pts, dtype=np.int64)
    fwd_pts = [pts.copy() for _ in ops]
    bwd_pts = [pts.copy() for _ in ops]
    fwd_acc = [np.zeros(len(pts)) for _ in ops]
    bwd_acc = [np.zeros(len(pts)) for _ in ops]
    chi = _ChiNormCache(norm)
    probe_at = _probe_schedule(horizon)
    pairs = [(s, l) for s in range(len(ops)) for l in range(len(ops)) if s != l]

    def cross(n):
        # Operator s forward r_s n steps is the forward state at n; walk it
        # r_l n steps backward under operator l.
        out = {}
        for s, l in pairs:
            p, acc = fwd_pts[s].copy(), np.zeros(len(pts))
            ops[l].walk(p, acc, powers[l] * n, backward=True)
            out[(s, l)] = eta.values(p) * np.exp(acc - fwd_acc[s])
        return out

    def excluded(mask):
        return frozenset(pt for pt, keep in zip(sorted_pts, mask) if not keep)

    k = 1
    tau = m_K / 2.0
    target = 2.0
    stages: list = []
    probes: list = []
    verdict = NO_WITNESS
    with np.errstate(over="ignore", under="ignore"):
        for n in range(1, horizon + 1):
            for op, r, fp, fa, bp, ba in zip(ops, powers, fwd_pts, fwd_acc, bwd_pts, bwd_acc):
                op.walk(fp, fa, r)
                op.walk(bp, ba, r, backward=True)
            lam_f = [eta.values(p) * np.exp(-acc) for p, acc in zip(fwd_pts, fwd_acc)]
            lam_b = [eta.values(p) * np.exp(acc) for p, acc in zip(bwd_pts, bwd_acc)]
            gam = None
            if n in probe_at:
                gam = cross(n)
                probes.append(
                    CriterionProbe(
                        n,
                        max(float(v.max()) for v in lam_f),
                        max(float(v.max()) for v in lam_b),
                        gamma_max=max((float(g.max()) for g in gam.values()), default=None),
                    )
                )
            if n < start:
                continue
            mask = np.ones(len(pts), dtype=bool)
            for v in lam_f + lam_b:
                mask &= v <= tau
            if pairs and chi(excluded(mask)) > target + _TIE:
                continue  # cheap reject before the costly cross quantities
            if gam is None:
                gam = cross(n)
            for g in gam.values():
                mask &= g <= tau
            resid = chi(excluded(mask))
            if resid > target + _TIE:
                continue

            def _sup(vec):
                return float(vec[mask].max()) if mask.any() else 0.0

            sup_f = tuple(_sup(v) for v in lam_f)
            sup_b = tuple(_sup(v) for v in lam_b)
            gsup = {pair: _sup(g) for pair, g in gam.items()}
            admissible = tuple(pt for pt, keep in zip(sorted_pts, mask) if keep)
            stages.append(DisjointStage(k, n, admissible, sup_f, sup_b, gsup, resid))
            if all(v <= tol for v in (*sup_f, *sup_b, *gsup.values(), resid)):
                verdict = WITNESS_FOUND
                break
            k += 1
            tau *= 0.5
            target *= 0.5
    return dict(
        verdict=verdict,
        m_K=m_K,
        K=tuple(sorted_pts),
        horizon=horizon,
        tol=tol,
        stages=stages,
        probes=probes,
    )


def check_transitivity(
    scenario: Scenario, K: Region, horizon: int, tol: float
) -> CriterionReport:
    """Search for the witness sequence certifying transitivity over ``K``.

    This is the scan of one operator at power 1 with every ``n`` a
    candidate; the report also states the aperiodicity bound of the map.
    """
    _check_args(K, horizon, tol)
    scan = _scan(*_as_system(scenario), K, horizon, tol, start=1)
    scan["stages"] = [
        CriterionStage(
            st.k, st.n, st.admissible, st.sup_forward[0], st.sup_backward[0], st.chi_residual
        )
        for st in scan["stages"]
    ]
    return CriterionReport(
        **scan,
        aperiodicity_N=aperiodicity_bound(scenario.operator.map, K, horizon),
        params=scenario.describe(),
    )


def check_disjoint_transitivity(
    system: DisjointSystem, K: Region, horizon: int, tol: float
) -> DisjointReport:
    """Search for a common witness sequence for all operator powers at once.

    Candidates are restricted to iterate counts at or beyond the separation
    bound (images of ``K`` disjoint from ``K`` and pairwise); when no such
    bound exists up to the horizon, :class:`DisjointAperiodicityError` is
    raised since no candidate can ever qualify.
    """
    _check_args(K, horizon, tol)
    maps = [op.map for op in system.operators]
    sep = disjoint_aperiodicity_bound(maps, system.powers, K, horizon)
    if sep is None:
        raise DisjointAperiodicityError(
            "iterated images of K never separate up to the horizon"
        )
    return DisjointReport(
        **_scan(*_as_system(system), K, horizon, tol, start=sep),
        separation_bound=sep,
        params=system.describe(),
    )


def check_semi_transitivity(
    family: OperatorFamily, K: Region, epsilon: float
) -> EpsilonReport:
    """Find the smallest tail ``{t >= t0}`` of the index range on which the
    per-epsilon conditions hold for every member.

    For each ``t`` an admissible set ``E_t`` is built by discarding points
    where any single-application quantity exceeds ``m_K eps / (1 - eps)``;
    the conditions then compare the residual, the product of forward and
    backward sups, and the cross sups against their epsilon bounds (strict
    inequalities), and require the family images of ``K`` to separate.

    The strict inequalities carry a ``1e-12`` relative guard band, so a sup
    that meets its bound only through rounding never certifies.
    """
    if len(K) < 1:
        raise CriterionError("K must be non-empty")
    if not (0.0 < epsilon < 1.0):
        raise CriterionError("epsilon must lie in (0, 1)")
    m_K = inf_weight_on(family.eta, K)
    N = family.n_ops
    theta = m_K * epsilon / (1.0 - epsilon)
    chi_bound = (4 + 2 * N) * N * epsilon
    chi = _ChiNormCache(family.norm)
    sorted_pts = K.sorted_points()
    base = K.points
    pairs = [(s, l) for s in range(N) for l in range(N) if s != l]

    rows: list = []
    for t in family.index_set:
        maps = [family.map_for(t, l) for l in range(N)]
        syms = [family.symbol_for(t, l) for l in range(N)]
        invs = [m.inverse for m in maps]
        images = [frozenset(m.apply(p) for p in base) for m in maps]
        aper = all(not (img & base) for img in images) and all(
            not (frozenset(invs[l].apply(p) for p in images[s]) & base)
            for s, l in pairs
        )
        fwd = []  # eta(a_{t,l}(x)) / w_{t,l}(x)
        bwd = []  # eta(a^{-1}(x)) * w(a^{-1}(x))
        for l in range(N):
            fv, bv = [], []
            for x in sorted_pts:
                fv.append(family.eta.value_at(maps[l].apply(x)) / syms[l].value_at(x))
                y = invs[l].apply(x)
                bv.append(family.eta.value_at(y) * syms[l].value_at(y))
            fwd.append(fv)
            bwd.append(bv)
        cross = {}
        for s, l in pairs:
            cv = []
            for x in sorted_pts:
                y = invs[l].apply(maps[s].apply(x))
                cv.append(
                    family.eta.value_at(y)
                    * syms[l].value_at(y)
                    / syms[s].value_at(x)
                )
            cross[(s, l)] = cv
        keep = []
        for i in range(len(sorted_pts)):
            ok = all(fwd[l][i] <= theta and bwd[l][i] <= theta for l in range(N))
            ok = ok and all(cross[p][i] <= theta for p in pairs)
            keep.append(ok)
        admissible = tuple(p for p, m in zip(sorted_pts, keep) if m)
        excluded = frozenset(p for p, m in zip(sorted_pts, keep) if not m)
        resid = chi(excluded)

        def _sup(vals):
            kept = [v for v, m in zip(vals, keep) if m]
            return max(kept) if kept else 0.0

        sup_f = tuple(_sup(fwd[l]) for l in range(N))
        sup_b = tuple(_sup(bwd[l]) for l in range(N))
        sup_c = {p: _sup(cross[p]) for p in pairs}
        sum_f = math.fsum(sup_f)
        sum_b = math.fsum(sup_b)
        lam_t = math.sqrt(sum_f) / math.sqrt(sum_b) if sum_b > 0 else math.nan
        guard = 1.0 - 1e-12
        pass_chi = resid < chi_bound * guard
        pass_product = (max(sup_f) * max(sup_b)) < theta * theta * guard
        pass_cross = (
            all(v < theta * guard for v in sup_c.values()) if sup_c else True
        )
        rows.append(
            SemiRow(
                t=t,
                admissible=admissible,
                chi_residual=resid,
                sup_forward=sup_f,
                sup_backward=sup_b,
                sup_cross=sup_c,
                lambda_t=lam_t,
                pass_chi=pass_chi,
                pass_product=pass_product,
                pass_cross=pass_cross,
                pass_aperiodic=aper,
            )
        )

    tail_start: Optional[int] = None
    for row in reversed(rows):
        if row.qualifies:
            tail_start = row.t
        else:
            break
    verdict = TAIL_FOUND if tail_start is not None else NO_TAIL
    return EpsilonReport(
        verdict=verdict,
        tail_start=tail_start,
        m_K=m_K,
        K=tuple(sorted_pts),
        epsilon=epsilon,
        rows=rows,
        params=family.describe(),
    )
