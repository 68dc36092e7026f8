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

All three checkers evaluate their quantities over the sorted points of
``K`` as arrays.  Semi mode does so for the whole index range in one array
pass: the maps of every index ``t`` are stacked and applied together, each
weight is evaluated once over all the images it weighs, all ``t`` are
thresholded at once, and separation is the sort-based meeting test of the
orbit bounds; only each row's indicator residual and pass flags are formed
per ``t``.
The scalar ``lambda_*`` and ``gamma_cross`` are the exact reference: all
three share one walk of a single point in Python integers, independent of
the vectorised walk the checkers use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .domain import (
    _BLOCK_CELLS,
    _BLOCK_ERRORS,
    AffineLatticeMap,
    Region,
    _apply_stack,
    _int64_rows,
    _map_stacks,
    _meets,
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
        validate_weight(self.eta, self.operator.map, self.region)

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


def _walk_point(op: WeightedCompositionOperator, x, steps: int, backward: bool = False) -> tuple:
    """``(point, log_sum)`` after ``steps`` steps of ``op`` from ``x`` in exact
    integers: the scalar reference for :meth:`WeightedCompositionOperator.walk`."""
    mp = op.map.inverse if backward else op.map
    p = tuple(int(c) for c in x)
    acc = 0.0
    for _ in range(steps):
        if not backward:
            acc += op.symbol.log_value_at(p)
        p = mp.apply(p)
        if backward:
            acc += op.symbol.log_value_at(p)
    return p, acc


def lambda_forward(scenario: Scenario, n: int, x) -> float:
    """``eta(alpha^n(x)) * prod_{j=0..n-1} w(alpha^j(x))^{-1}`` in log space."""
    if n < 1:
        raise CriterionError("n must be >= 1")
    p, acc = _walk_point(scenario.operator, x, n)
    return scenario.eta.value_at(p) * _safe_exp(-acc)


def lambda_backward(scenario: Scenario, n: int, x) -> float:
    """``eta(alpha^{-n}(x)) * prod_{j=1..n} w(alpha^{-j}(x))`` in log space."""
    if n < 1:
        raise CriterionError("n must be >= 1")
    p, acc = _walk_point(scenario.operator, x, n, backward=True)
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
    y, b = _walk_point(system.operators[s], x, system.powers[s] * n)
    p, a = _walk_point(system.operators[l], y, system.powers[l] * n, backward=True)
    return system.eta.value_at(p) * _safe_exp(a - b)


# ---------------------------------------------------------------------------
# Reports


def _pair_key(pair) -> str:
    """The report key of the 0-based operator pair ``(s, l)``: ``s1_l2`` for ``(0, 1)``."""
    s, l = pair
    return f"s{s + 1}_l{l + 1}"


def _plain(value):
    """A report value as JSON data: records by their ``to_dict``, points and
    tuples as lists, and dicts sorted, with ``(s, l)`` keys by :func:`_pair_key`."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {
            _pair_key(k) if isinstance(k, tuple) else k: _plain(v)
            for k, v in sorted(value.items())
        }
    return value


class _Record:
    """Serialisation shared by the report records: every dataclass field in
    declaration order, then the attributes named in ``_extra``."""

    _extra = ()

    def to_dict(self) -> dict:
        names = [f.name for f in fields(self)] + list(self._extra)
        return {name: _plain(getattr(self, name)) for name in names}


@dataclass
class CriterionStage(_Record):
    k: int
    n: int
    admissible: tuple
    sup_forward: float
    sup_backward: float
    chi_residual: float


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


@dataclass
class _ScanReport(_Record):
    """Fields and serialisation shared by the reports of the scanner; each
    subclass adds its bound field, then ``params``."""

    verdict: str
    m_K: float
    K: tuple
    horizon: int
    tol: float
    stages: list
    probes: list

    semidecision_note = (
        "WitnessFound is certifiable by witness construction; "
        "NoWitnessUpToHorizon is evidence up to the horizon, not proof."
    )
    _extra = ("semidecision_note",)

    def last_stage(self):
        return self.stages[-1] if self.stages else None


@dataclass
class CriterionReport(_ScanReport):
    """Verdict for one operator, with the accepted stage curve."""

    aperiodicity_N: Optional[int]
    params: dict = field(default_factory=dict)


@dataclass
class DisjointStage(_Record):
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


@dataclass
class DisjointReport(_ScanReport):
    """Verdict for several operator powers at once, with the accepted stage
    curve; candidates start at the separation bound."""

    separation_bound: int
    params: dict = field(default_factory=dict)


@dataclass
class SemiRow(_Record):
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

    _extra = ("qualifies",)

    @property
    def qualifies(self) -> bool:
        return self.pass_chi and self.pass_product and self.pass_cross and self.pass_aperiodic


@dataclass
class EpsilonReport(_Record):
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

    semidecision_note = "TailFound certifies the stated epsilon and compact set only."
    _extra = ("semidecision_note",)

    def row_for(self, t: int) -> SemiRow:
        for row in self.rows:
            if row.t == t:
                return row
        raise KeyError(f"no row for t={t}")


# ---------------------------------------------------------------------------
# Checkers


def _chi_norm(norm_spec, points: list) -> Callable[[np.ndarray], float]:
    """``||chi_P||_F`` for ``P`` the ``points`` that a boolean mask over them
    leaves out, cached per mask."""

    @functools.cache
    def chi(mask: bytes) -> float:
        excluded = frozenset(pt for pt, keep in zip(points, mask) if not keep)
        if not excluded:
            return 0.0
        # the points are those of K, so the constructor would change nothing
        return norm_spec.value(SampleFunction._trusted(dict.fromkeys(excluded, 1 + 0j)))

    return lambda mask: chi(mask.tobytes())


def _probe_schedule(horizon: int) -> set:
    ns = {horizon}
    n = 1
    while n <= horizon:
        ns.add(n)
        n *= 2
    return ns


def _pairs(n: int) -> list:
    """The ordered pairs ``(s, l)``, ``s != l``, of ``n`` operators (0-based)."""
    return [(s, l) for s in range(n) for l in range(n) if s != l]


def _below(quantities, bound: float, mask: np.ndarray) -> np.ndarray:
    """``mask`` narrowed in place to the points where every quantity is at
    most ``bound``."""
    for v in quantities:
        mask &= v <= bound
    return mask


def _sup(vec: np.ndarray, mask: np.ndarray) -> float:
    """The sup of ``vec`` over the masked points; 0 over none."""
    return float(vec[mask].max()) if mask.any() else 0.0


def _admissible(points: list, mask: np.ndarray) -> tuple:
    return tuple(pt for pt, keep in zip(points, mask) if keep)


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


def _iterates(eta, ops, powers, pts: np.ndarray, horizon: int):
    """Yield the iterates ``n = 1..horizon`` in blocks
    ``(n0, lam_f, lam_b, top, f_rows)`` whose row ``i`` is iterate
    ``n0 + i``: per operator the forward and backward quantities over the
    rows ``pts`` as ``(L, |K|)`` arrays, their pointwise maximum ``top``,
    and per operator the forward states ``(points, log-sums)`` after
    ``r_l n`` steps, of shapes ``(L, |K|, d)`` and ``(L, |K|)``.

    The states come from :meth:`WeightedCompositionOperator.walk_blocks`
    (every ``r_l``-th row of ``r_l L`` steps) and the quantities from one
    ``eta`` call each.  Blocks start at one iterate and double up to the
    ``_BLOCK_CELLS`` cap, so the iterates computed ahead of the consumer are
    at most one more than those it has taken.  A block that fails is retried
    at half its length; at one iterate the calls are those of a step-by-step
    scan in its order, so an error surfaces at the iterate where that scan
    would raise it.
    """
    k, d = pts.shape
    zero = np.zeros(k)
    fwd = [(pts, zero)] * len(ops)
    bwd = [(pts, zero)] * len(ops)
    cap = max(1, _BLOCK_CELLS // (max(powers) * k * d))
    n, size = 1, 1

    def states(op, r, start, L, backward=False):
        blocks = list(op.walk_blocks(*start, r * L, backward))
        P, A = blocks[0] if len(blocks) == 1 else (np.concatenate(b) for b in zip(*blocks))
        return P[r - 1 :: r], A[r - 1 :: r]

    def lam(P, logs):
        return eta.values(P.reshape(-1, d)).reshape(logs.shape) * np.exp(logs)

    while n <= horizon:
        L = min(size, cap, horizon - n + 1)
        try:
            f_rows, b_rows = [], []
            for op, r, f, b in zip(ops, powers, fwd, bwd):
                f_rows.append(states(op, r, f, L))
                b_rows.append(states(op, r, b, L, backward=True))
            lam_f = [lam(P, -A) for P, A in f_rows]
            lam_b = [lam(P, A) for P, A in b_rows]
            top = np.maximum.reduce(lam_f + lam_b)
        except _BLOCK_ERRORS:
            if L == 1:
                raise
            cap = L // 2  # the block ran ahead into a failing iterate
            continue
        yield n, lam_f, lam_b, top, f_rows
        fwd = [(P[-1], A[-1]) for P, A in f_rows]
        bwd = [(P[-1], A[-1]) for P, A in b_rows]
        n += L
        size = 2 * L


def _runs(masks: np.ndarray) -> list:
    """``(a, b)`` for each run ``masks[a:b]`` of equal rows, in order."""
    cuts = [0, *(np.flatnonzero((masks[1:] != masks[:-1]).any(axis=1)) + 1), len(masks)]
    return list(zip(cuts[:-1], cuts[1:]))


def _scan(norm, eta, ops, powers, K: Region, horizon: int, tol: float, start: int) -> dict:
    """Search for a common witness sequence of the powers ``T_l^{r_l n}``.

    Scans ``n = 1..horizon``.  At stage ``k`` a candidate ``n >= start`` is
    accepted as ``n_k`` when the admissible set ``E`` obtained by discarding
    points whose forward, backward or cross quantity exceeds ``m_K / 2^k``
    leaves an indicator residual ``||chi_{K\\E}||_F <= 4 / 2^k``.  The verdict
    becomes ``WitnessFound`` once the sups over ``E`` and the residual at a
    stage all drop to ``tol`` or below.  Returns the fields shared by the
    reports, with :class:`DisjointStage` stages.

    The quantities come in blocks of iterates from :func:`_iterates`, and
    acceptance is decided a run of iterates at a time: the block's
    undecided rows are thresholded at once, and consecutive rows with the
    same mask share one indicator residual.  A single operator accepts the
    first run whose residual passes.  Several operators walk the cross leg
    at each row of such a run, in order, as the cross quantities narrow
    each row's mask on their own.  After an accepted stage the threshold
    halves and the rest of the block is thresholded again.  The stages,
    the probes and the order of the norm evaluations are those of a scan
    that decides one ``n`` at a time.
    """
    m_K = inf_weight_on(eta, K)
    sorted_pts = K.sorted_points()
    pts = _int64_rows(sorted_pts)
    chi = _chi_norm(norm, sorted_pts)
    pending = sorted(_probe_schedule(horizon))  # probe iterates not yet recorded
    pairs = _pairs(len(ops))

    def cross(n, fwd):
        # Operator s forward r_s n steps is the forward state at n; walk it
        # r_l n steps backward under operator l.
        out = {}
        for s, l in pairs:
            p, acc = fwd[s][0].copy(), np.zeros(len(pts))
            ops[l].walk(p, acc, powers[l] * n, backward=True)
            out[(s, l)] = eta.values(p) * np.exp(acc - fwd[s][1])
        return out

    k = 1
    tau = m_K / 2.0
    target = 2.0
    stages: list = []
    probes: list = []
    verdict = NO_WITNESS
    with np.errstate(over="ignore", under="ignore"):
        for n0, lam_f, lam_b, top, f_rows in _iterates(eta, ops, powers, pts, horizon):
            @functools.cache
            def gamma(i):
                return cross(n0 + i, [(P[i], A[i]) for P, A in f_rows])

            def probe_to(i):
                # record the probes at rows up to i, in order, before a
                # cross quantity of a later row is evaluated
                while pending and pending[0] <= n0 + i:
                    j = pending.pop(0) - n0
                    gam = gamma(j)
                    probes.append(
                        CriterionProbe(
                            n0 + j,
                            max(float(v[j].max()) for v in lam_f),
                            max(float(v[j].max()) for v in lam_b),
                            gamma_max=max((float(g.max()) for g in gam.values()), default=None),
                        )
                    )

            def next_stage(i):
                # the first row from i that passes at the current threshold,
                # with its mask and residual; None when no row does
                masks = top[i:] <= tau
                for a, b in _runs(masks):
                    if chi(masks[a]) > target + _TIE:
                        continue  # cheap reject before the costly cross quantities
                    # without cross quantities every row of the run passes
                    for j in range(i + a, i + b if pairs else i + a + 1):
                        probe_to(j)
                        mask = _below(gamma(j).values(), tau, masks[j - i].copy())
                        resid = chi(mask)
                        if resid <= target + _TIE:
                            return j, mask, resid
                return None

            i = max(0, start - n0)  # the first undecided row
            last = len(top) - 1  # the last row the scan reaches
            while i <= last and (hit := next_stage(i)) is not None:
                j, mask, resid = hit
                sup_f = tuple(_sup(v[j], mask) for v in lam_f)
                sup_b = tuple(_sup(v[j], mask) for v in lam_b)
                gsup = {pair: _sup(g, mask) for pair, g in gamma(j).items()}
                admissible = _admissible(sorted_pts, mask)
                stages.append(DisjointStage(k, n0 + j, admissible, sup_f, sup_b, gsup, resid))
                if all(v <= tol for v in (*sup_f, *sup_b, *gsup.values(), resid)):
                    verdict = WITNESS_FOUND
                    last = j
                    break
                k += 1
                tau *= 0.5
                target *= 0.5
                i = j + 1
            probe_to(last)
            if verdict == WITNESS_FOUND:
                break
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


def _semi_quantities(family: OperatorFamily, pts: np.ndarray, pairs: list) -> tuple:
    """The single-application quantities of every member at every index
    ``t`` of the family, over the ``(k, d)`` rows ``pts`` of ``K``, in one
    array pass over the index range: ``(fwd, bwd, cross, sep)``, the first
    three ``(T, N, k)``, ``(T, N, k)`` and ``(T, |pairs|, k)`` float arrays
    and ``sep`` whether the images ``a_{t,l}(K)`` miss ``K`` and each other.

    ``map_for`` is called once per ``(t, l)``.  The images ``a(K)``,
    ``a^{-1}(K)`` and ``a_l^{-1}(a_s(K))`` of all indices come from three
    stacked products (:func:`~wcodyn.domain._apply_stack`), each map under
    its own ``apply_many`` guard; ``eta`` is evaluated once over all of
    them, and each distinct symbol object once over ``K`` and the images it
    weighs.  Every quantity is formed as a per-``t`` evaluation forms it,
    so bit for bit.
    """
    ts, N, P = family.index_set, family.n_ops, len(pairs)
    T, (k, d) = len(ts), pts.shape
    M = T * N  # member (t, l) is row i * N + l for t = ts[i]
    maps = [family.map_for(t, l) for t in ts for l in range(N)]
    syms = [family.symbol_for(t, l) for t in ts for l in range(N)]
    forward, inverse = _map_stacks(maps, d)
    # the members s and l of each pair slot; slot (i, q) is row i * P + q
    first = np.arange(T)[:, None] * N
    s_of = (first + np.array([s for s, _ in pairs], dtype=np.intp)).ravel()
    l_of = (first + np.array([l for _, l in pairs], dtype=np.intp)).ravel()
    F = _apply_stack(forward, pts)
    B = _apply_stack(inverse, pts)
    C = _apply_stack(tuple(a[l_of] for a in inverse), F[s_of])
    e = family.eta.values(np.concatenate([F, B, C]).reshape(-1, d)).reshape(-1, k)
    w, sym_b, sym_c = np.empty((M, k)), np.empty((M, k)), np.empty((len(C), k))
    groups: dict = {}
    for i, sym in enumerate(syms):
        groups.setdefault(id(sym), (sym, []))[1].append(i)
    for sym, idx in groups.values():
        member = np.zeros(M, dtype=bool)
        member[idx] = True
        at = np.flatnonzero(member[l_of])
        vals = sym.values(np.concatenate([pts[None], B[idx], C[at]]).reshape(-1, d))
        vals = vals.reshape(-1, k)
        w[idx], sym_b[idx], sym_c[at] = vals[0], vals[1 : 1 + len(idx)], vals[1 + len(idx) :]
    fwd = e[:M] / w
    bwd = e[M : 2 * M] * sym_b
    cross = e[2 * M :] * sym_c / w[s_of]
    # the images a_{t,l}(K) are disjoint from K and from each other
    up = s_of < l_of  # each unordered pair once
    hit = _meets(
        np.concatenate([F, F[s_of[up]]]),
        np.concatenate([np.broadcast_to(pts, F.shape), F[l_of[up]]]),
    )
    met = np.concatenate([hit[:M].reshape(T, N), hit[M:].reshape(T, P // 2)], axis=1)
    return fwd.reshape(T, N, k), bwd.reshape(T, N, k), cross.reshape(T, P, k), ~met.any(axis=1)


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
    eta = family.eta
    m_K = inf_weight_on(eta, K)
    N = family.n_ops
    theta = m_K * epsilon / (1.0 - epsilon)
    chi_bound = (4 + 2 * N) * N * epsilon
    guard = 1.0 - 1e-12
    sorted_pts = K.sorted_points()
    chi = _chi_norm(family.norm, sorted_pts)
    pts = _int64_rows(sorted_pts)
    pairs = _pairs(N)

    fwd, bwd, cross, aper = _semi_quantities(family, pts, pairs)
    quantities = np.concatenate([fwd, bwd, cross], axis=1)  # (T, 2N + |pairs|, |K|)
    masks = (quantities <= theta).all(axis=1)
    sups = np.where(masks[:, None], quantities, -np.inf).max(axis=2)
    sups[~masks.any(axis=1)] = 0.0  # the sup over an empty set

    rows: list = []
    for t, mask, sup, sep in zip(family.index_set, masks, sups.tolist(), aper.tolist()):
        resid = chi(mask)
        sup_f, sup_b = tuple(sup[:N]), tuple(sup[N : 2 * N])
        sup_c = dict(zip(pairs, sup[2 * N :]))
        sum_f = math.fsum(sup_f)
        sum_b = math.fsum(sup_b)
        lam_t = math.sqrt(sum_f) / math.sqrt(sum_b) if sum_b > 0 else math.nan
        rows.append(
            SemiRow(
                t=t,
                admissible=_admissible(sorted_pts, mask),
                chi_residual=resid,
                sup_forward=sup_f,
                sup_backward=sup_b,
                sup_cross=sup_c,
                lambda_t=lam_t,
                pass_chi=resid < chi_bound * guard,
                pass_product=(max(sup_f) * max(sup_b)) < theta * theta * guard,
                pass_cross=all(v < theta * guard for v in sup_c.values()),
                pass_aperiodic=sep,
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
