"""Witness vectors certifying transitivity verdicts, plus a feasibility oracle.

A checker report only records sup-term curves; the constructions here turn a
report stage (or a row of a semi-mode report) into an explicit vector

    v = f * chi_E  +  rho * sum_s S_s^{k_s} (g_s * chi_E)

whose distances to the source ``f`` and to each target ``g_s`` (after
applying ``lambda * T_s^{k_s}``) are computed directly with the weighted
norm.  One assembly serves both: a stage has ``k_s = r_s n`` and
``rho = lambda = 1``, a semi-mode row has ``k_s = 1`` and the scalings of
the row.
:func:`verify_report` recomputes those residuals for every stage, with
``f = g_s = chi_K * eta^{-1}``, and checks them against a-priori bounds
assembled from the report's own sup terms, which is the operational
soundness content of a found witness.

The feasibility oracle answers one approximation question — is there an
``h`` with ``||h - f|| < eps`` and ``||T^n h - g|| < eps`` — with ``h = f``,
then with the assembly above over sets ``E`` thresholded on lambda from the
vectorised orbit walk, then with alternating radial projections.  An
inconclusive answer is a value, not an error: it gives the projection rounds
run and the best residual pair seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .criteria import (
    EpsilonReport,
    OperatorFamily,
    Scenario,
    _as_system,
    _Record,
)
from .domain import Region, _int64_rows
from .operators import OperatorError, WeightedCompositionOperator
from .spaces import SampleFunction, Weight, WeightError, norm, weighted_norm


_SLACK = 1e-9  # relative float slack of verify_report's residual bounds


class WitnessError(ValueError):
    """Raised when witness construction preconditions fail."""


@dataclass
class WitnessVector:
    """An explicit witness with its certified residuals."""

    vector: SampleFunction
    stage: int
    n: int
    residual_source: float
    residual_targets: tuple
    scaling: float = 1.0


def flatten(f: SampleFunction, eta: Weight) -> SampleFunction:
    """Pointwise division by the weight: ``f * eta^{-1}``.

    The weighted norm of the output equals the plain norm of the input, so
    flattening moves a plain-space approximant into the weighted space.
    """
    items = f.items()
    out = {}
    for (pt, v), e in zip(items, eta._values_at([pt for pt, _ in items])):
        if not (e > 0 and math.isfinite(e)):
            raise WeightError("weight must be positive on the support", [pt])
        out[pt] = v / e
    return SampleFunction(out)


def _stage_for(report, k: int):
    for st in report.stages:
        if st.k == k:
            return st
    raise WitnessError(f"report has no stage k={k}")


def _check_supports(K_points: set, funcs: Sequence[SampleFunction]):
    for f in funcs:
        escaped = f.support - K_points
        if escaped:
            raise WitnessError(
                f"support escapes K at {sorted(escaped)[:4]}; "
                "K must contain all source and target supports"
            )


def _assemble(
    norm_spec, eta, ops, steps, E, source, targets, *, stage: int, n: int, rho=1.0, lam=1.0
) -> WitnessVector:
    """The witness ``v = f chi_E + rho sum_s S_s^{k_s}(g_s chi_E)`` for the
    step counts ``k_s``, with its residuals ``||v - f||`` and
    ``||lam T_s^{k_s} v - g_s||`` in the weighted norm.  A scaling of
    exactly 1.0 is not multiplied in: the iterates are finite, so it would
    leave every bit as it is."""
    scale = lambda c, h: h if c == 1.0 else c * h
    v = source.restrict(E)
    for op, k, g in zip(ops, steps, targets):
        v = v + scale(rho, op.iterate(-k, g.restrict(E)))
    return WitnessVector(
        vector=v,
        stage=stage,
        n=n,
        residual_source=weighted_norm(norm_spec, eta, v - source),
        residual_targets=tuple(
            weighted_norm(norm_spec, eta, scale(lam, op.iterate(k, v)) - g)
            for op, k, g in zip(ops, steps, targets)
        ),
        scaling=lam,
    )


def build_witness(
    system, report, source: SampleFunction, targets: Sequence[SampleFunction], k: int
) -> WitnessVector:
    """Witness vector for stage ``k`` of a transitivity report.

    ``source`` and ``targets`` are the flattened approximants (members of the
    weighted space, supported inside the report's ``K``); for a single
    operator pass a one-element target list.
    """
    norm_spec, eta, ops, powers = _as_system(system)
    targets = tuple(targets)
    if len(targets) != len(ops):
        raise WitnessError(f"expected {len(ops)} targets, got {len(targets)}")
    _check_supports(set(report.K), (source, *targets))
    st = _stage_for(report, k)
    steps = [r * st.n for r in powers]
    return _assemble(norm_spec, eta, ops, steps, st.admissible, source, targets, stage=k, n=st.n)


def build_supercyclic_witness(
    family: OperatorFamily,
    report: EpsilonReport,
    t: int,
    source: SampleFunction,
    targets: Sequence[SampleFunction],
) -> WitnessVector:
    """Witness vector for index ``t`` in the qualifying tail, with the uniform
    positive scaling from the sup-term ratio.

    The returned ``scaling`` is the factor applied to the operator images:
    ``scaling * T_{t,s}(v_t)`` approximates target ``s``.
    """
    targets = tuple(targets)
    if len(targets) != family.n_ops:
        raise WitnessError(f"expected {family.n_ops} targets, got {len(targets)}")
    if report.tail_start is None or t < report.tail_start:
        raise WitnessError(f"t={t} is outside the qualifying tail")
    row = report.row_for(t)
    _check_supports(set(report.K), (source, *targets))
    # lambda_t is 0 or nan only for an empty admissible set, where scaling is moot
    lam = row.lambda_t if row.lambda_t > 0 else 1.0
    region = Region.of(report.K)
    ops = [
        WeightedCompositionOperator(family.map_for(t, l), family.symbol_for(t, l), region)
        for l in range(family.n_ops)
    ]
    return _assemble(
        family.norm, family.eta, ops, [1] * family.n_ops, row.admissible, source, targets,
        stage=t, n=1, rho=1.0 / lam, lam=lam,
    )


@dataclass
class StageAudit(_Record):
    k: int
    n: int
    residual_source: float
    bound_source: float
    residual_targets: tuple
    bound_targets: tuple
    ok: bool


@dataclass
class WitnessAudit(_Record):
    ok: bool
    stages: list = field(default_factory=list)


def _stage_sups(st):
    """Per-operator sup terms and cross sups of a stage, for either report kind."""
    if hasattr(st.sup_forward, "__len__"):
        return tuple(st.sup_forward), tuple(st.sup_backward), dict(st.gamma)
    return (st.sup_forward,), (st.sup_backward,), {}


def verify_report(system, report) -> WitnessAudit:
    """Certify a WitnessFound report by rebuilding every stage's witness for
    ``f = g_s = chi_K * eta^{-1}``.

    For each stage the recomputed residuals must not exceed the bounds that
    the report's own sup terms imply:

        source:   sup|f~| * resid_k + sum_s supF_{s,k} ||g~_s||_F / m_K
        target l: supB_{l,k} ||f~||_F / m_K + sup|g~_l| * resid_k
                  + sum_{s != l} gamma_{s,l,k} ||g~_s||_F / m_K

    where ``f~ = source * eta`` and ``g~_s = target_s * eta`` are the
    un-flattened approximants, each bound ``b`` widened to
    ``b + 1e-9 (1 + b)`` (``_SLACK``) for float rounding.
    """
    norm_spec, eta, ops, powers = _as_system(system)
    source = flatten(SampleFunction.indicator(report.K), eta)
    targets = tuple(source for _ in ops)
    plain = source.scaled_by(eta)  # f~, and every g~_s as well
    f_sup, f_norm = plain.sup_abs(), norm(norm_spec, plain)
    m_K = report.m_K

    audits = []
    all_ok = True
    for st in report.stages:
        wv = build_witness(system, report, source, targets, st.k)
        sup_f, sup_b, gam = _stage_sups(st)
        bound_src = f_sup * st.chi_residual + math.fsum(x * f_norm / m_K for x in sup_f)
        bound_tgt = []
        for l in range(len(ops)):
            b = sup_b[l] * f_norm / m_K + f_sup * st.chi_residual
            b += math.fsum(gam[(s, l)] * f_norm / m_K for s in range(len(ops)) if s != l)
            bound_tgt.append(b)
        ok = wv.residual_source <= bound_src + _SLACK * (1.0 + bound_src) and all(
            r <= b + _SLACK * (1.0 + b)
            for r, b in zip(wv.residual_targets, bound_tgt)
        )
        all_ok = all_ok and ok
        audits.append(
            StageAudit(
                k=st.k,
                n=st.n,
                residual_source=wv.residual_source,
                bound_source=bound_src,
                residual_targets=wv.residual_targets,
                bound_targets=tuple(bound_tgt),
                ok=ok,
            )
        )
    return WitnessAudit(ok=all_ok and bool(audits), stages=audits)


# ---------------------------------------------------------------------------
# Feasibility oracle


@dataclass
class OracleResult:
    feasible: bool
    point: Optional[SampleFunction]
    residual_source: float
    residual_target: float
    method: str
    iterations: int = 0


def feasibility_oracle(
    scenario: Scenario,
    n: int,
    f: SampleFunction,
    g: SampleFunction,
    eps: float,
    max_iters: int = 500,
) -> OracleResult:
    """Search for ``h`` with ``||h - f|| < eps`` and ``||T^n h - g|| < eps``.

    Both norms are the scenario's weighted norm.  After ``h = f`` come the
    certification assembly's candidates ``f chi_E + S^n(g chi_E)`` (see
    :func:`_assemble`) over a dyadic ladder of sets ``E ⊆ supp f ∪ supp g``,
    thresholded on lambda from one vectorised walk of ``n`` steps each way,
    then at most ``max_iters`` rounds of alternating radial projections onto
    the two constraint balls (exact for every norm by homogeneity) from the
    best point seen.  Each residual is one direct norm evaluation.  An
    inconclusive answer reports the rounds run and the best residual pair.
    """
    if eps <= 0:
        raise WitnessError("eps must be positive")
    if n < 1:
        raise WitnessError("n must be >= 1")
    norm_spec, eta, op = scenario.norm, scenario.eta, scenario.operator
    wn = lambda h: weighted_norm(norm_spec, eta, h)
    best = (0.0, math.inf, f)  # residual pair and point of the best candidate seen

    def settle(h, r1, r2, method, rounds=0):
        nonlocal best
        if r1 < eps and r2 < eps:
            return OracleResult(True, h, r1, r2, method, rounds)
        if max(r1, r2) < max(best[:2]):
            best = (r1, r2, h)
        return None

    try:
        if res := settle(f, 0.0, wn(op.iterate(n, f) - g), "exact"):
            return res
    except OperatorError:
        pass

    K = sorted(f.support | g.support)
    fwd = _int64_rows(K)
    bwd = fwd.copy()
    acc_f, acc_b = np.zeros(len(K)), np.zeros(len(K))
    op.walk(fwd, acc_f, n)
    op.walk(bwd, acc_b, n, backward=True)
    with np.errstate(over="ignore", under="ignore"):
        lam = np.maximum(eta.values(fwd) * np.exp(-acc_f), eta.values(bwd) * np.exp(acc_b))
    taus = [math.inf] + [2.0 ** (-k) for k in range(50)]
    for E in dict.fromkeys(tuple(x for x, v in zip(K, lam) if v <= tau) for tau in taus):
        try:
            wv = _assemble(norm_spec, eta, (op,), (n,), E, f, (g,), stage=0, n=n)
        except OperatorError:
            continue
        if res := settle(wv.vector, wv.residual_source, wv.residual_targets[0], "witness-guided"):
            return res

    r1, _, h = best
    eps_eff = eps * (1.0 - 1e-9)
    prev = math.inf
    rounds = 0
    for rounds in range(1, max_iters + 1):
        if r1 > eps_eff:
            h = f + (eps_eff / r1) * (h - f)
        try:
            du = op.iterate(n, h) - g
            r2 = wn(du)
            if r2 > eps_eff:
                h = op.iterate(-n, g + (eps_eff / r2) * du)
                r2 = wn(op.iterate(n, h) - g)
        except OperatorError:
            break
        r1 = wn(h - f)
        if res := settle(h, r1, r2, "projection", rounds):
            return res
        if prev - max(r1, r2) < 1e-12 * max(prev, 1.0):
            break  # stalled
        prev = max(r1, r2)
    return OracleResult(False, None, *best[:2], "inconclusive", rounds)


def epsilon_for_gap(delta: float, n_ops: int, m_K: float, c_sup: float) -> float:
    """The epsilon that turns a target approximation gap ``delta`` into the
    per-epsilon conditions: ``min(1/2, delta / ((4 + 2N) N (m_K + C)))``.

    ``C`` is the largest sup of the un-flattened approximants.
    """
    if delta <= 0 or n_ops < 1 or m_K <= 0 or c_sup < 0:
        raise WitnessError("delta, n_ops, m_K must be positive and C non-negative")
    return min(0.5, delta / ((4 + 2 * n_ops) * n_ops * (m_K + c_sup)))
