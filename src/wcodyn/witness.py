"""Witness vectors certifying transitivity verdicts, plus a feasibility oracle.

A checker report only records sup-term curves; the constructions here turn a
report stage into an explicit vector

    v = f * chi_E  +  sum_s S_s^{r_s n} (g_s * chi_E)

whose distances to the source ``f`` and to each target ``g_s`` (after
applying the operator powers) are computed directly with the weighted norm.
:func:`verify_report` recomputes those residuals for every stage and checks
them against a-priori bounds assembled from the report's own sup terms,
which is the operational soundness content of a found witness.

The feasibility oracle answers a single approximation question — is there an
``h`` with ``||h - f|| < eps`` and ``||T^n h - g|| < eps`` — first with the
witness-guided candidate, then with alternating radial projections onto the
two constraint balls.  An inconclusive answer is a value, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .criteria import EpsilonReport, OperatorFamily, Scenario, _as_system
from .operators import OperatorError, WeightedCompositionOperator
from .spaces import SampleFunction, Weight, WeightError, norm, weighted_norm


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

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "n": self.n,
            "residual_source": self.residual_source,
            "residual_targets": list(self.residual_targets),
            "scaling": self.scaling,
            "support_size": len(self.vector),
        }


def flatten(f: SampleFunction, eta: Weight) -> SampleFunction:
    """Pointwise division by the weight: ``f * eta^{-1}``.

    The weighted norm of the output equals the plain norm of the input, so
    flattening moves a plain-space approximant into the weighted space.
    """
    out = {}
    for pt, v in f.items():
        e = eta.value_at(pt)
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
    E = st.admissible
    v = source.restrict(E)
    for op, r, g in zip(ops, powers, targets):
        v = v + op.iterate(-r * st.n, g.restrict(E))
    res_src = weighted_norm(norm_spec, eta, v - source)
    res_tgt = tuple(
        weighted_norm(norm_spec, eta, op.iterate(r * st.n, v) - g)
        for op, r, g in zip(ops, powers, targets)
    )
    return WitnessVector(
        vector=v,
        stage=k,
        n=st.n,
        residual_source=res_src,
        residual_targets=res_tgt,
    )


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
    E = row.admissible
    sum_f = math.fsum(row.sup_forward)
    sum_b = math.fsum(row.sup_backward)
    if sum_f > 0 and sum_b > 0:
        rho = math.sqrt(sum_b) / math.sqrt(sum_f)
        lam = math.sqrt(sum_f) / math.sqrt(sum_b)
    else:
        rho = lam = 1.0  # degenerate (empty admissible set): scaling is moot
    ops = [
        WeightedCompositionOperator(
            family.map_for(t, l),
            family.symbol_for(t, l),
            _support_region(report.K),
        )
        for l in range(family.n_ops)
    ]
    v = source.restrict(E)
    for op, g in zip(ops, targets):
        v = v + rho * op.apply_inverse(g.restrict(E))
    res_src = weighted_norm(family.norm, family.eta, v - source)
    res_tgt = tuple(
        weighted_norm(family.norm, family.eta, lam * op.apply(v) - g)
        for op, g in zip(ops, targets)
    )
    return WitnessVector(
        vector=v,
        stage=t,
        n=1,
        residual_source=res_src,
        residual_targets=res_tgt,
        scaling=lam,
    )


def _support_region(points):
    from .domain import Region

    return Region.of(points)


@dataclass
class StageAudit:
    k: int
    n: int
    residual_source: float
    bound_source: float
    residual_targets: tuple
    bound_targets: tuple
    ok: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "residual_source": self.residual_source,
            "bound_source": self.bound_source,
            "residual_targets": list(self.residual_targets),
            "bound_targets": list(self.bound_targets),
            "ok": self.ok,
        }


@dataclass
class WitnessAudit:
    ok: bool
    stages: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "stages": [s.to_dict() for s in self.stages]}


def _stage_sups(st, n_ops: int):
    """Per-operator sup terms and cross sups of a stage, for either report kind."""
    if hasattr(st.sup_forward, "__len__"):
        return tuple(st.sup_forward), tuple(st.sup_backward), dict(st.gamma)
    return (st.sup_forward,), (st.sup_backward,), {}


def verify_report(
    system,
    report,
    source: Optional[SampleFunction] = None,
    targets: Optional[Sequence[SampleFunction]] = None,
    slack: float = 1e-9,
) -> WitnessAudit:
    """Certify a WitnessFound report by rebuilding every stage's witness.

    For each stage the recomputed residuals must not exceed the bounds that
    the report's own sup terms imply:

        source:   sup|f~| * resid_k + sum_s supF_{s,k} ||g~_s||_F / m_K
        target l: supB_{l,k} ||f~||_F / m_K + sup|g~_l| * resid_k
                  + sum_{s != l} gamma_{s,l,k} ||g~_s||_F / m_K

    where ``f~ = source * eta`` and ``g~_s = target_s * eta`` are the
    un-flattened approximants.  Defaults certify the canonical choice
    ``source = targets = chi_K * eta^{-1}``.
    """
    norm_spec, eta, ops, powers = _as_system(system)
    if source is None:
        source = flatten(SampleFunction.indicator(report.K), eta)
    if targets is None:
        targets = tuple(source for _ in ops)
    targets = tuple(targets)
    f_plain = source.scaled_by(eta)
    g_plain = [g.scaled_by(eta) for g in targets]
    f_sup = f_plain.sup_abs()
    f_norm = norm(norm_spec, f_plain)
    g_sup = [g.sup_abs() for g in g_plain]
    g_norm = [norm(norm_spec, g) for g in g_plain]
    m_K = report.m_K

    audits = []
    all_ok = True
    for st in report.stages:
        wv = build_witness(system, report, source, targets, st.k)
        sup_f, sup_b, gam = _stage_sups(st, len(ops))
        bound_src = f_sup * st.chi_residual + math.fsum(
            sup_f[s] * g_norm[s] / m_K for s in range(len(ops))
        )
        bound_tgt = []
        for l in range(len(ops)):
            b = sup_b[l] * f_norm / m_K + g_sup[l] * st.chi_residual
            b += math.fsum(
                gam[(s, l)] * g_norm[s] / m_K for s in range(len(ops)) if s != l
            )
            bound_tgt.append(b)
        ok = wv.residual_source <= bound_src + slack * (1.0 + bound_src) and all(
            r <= b + slack * (1.0 + b)
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

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "residual_source": self.residual_source,
            "residual_target": self.residual_target,
            "method": self.method,
            "iterations": self.iterations,
        }


def feasibility_oracle(
    scenario: Scenario,
    n: int,
    f: SampleFunction,
    g: SampleFunction,
    eps: float,
    max_iters: int = 500,
) -> OracleResult:
    """Search for ``h`` with ``||h - f|| < eps`` and ``||T^n h - g|| < eps``.

    Both norms are the scenario's weighted norm.  The search tries the
    witness-guided candidates ``f * chi_E + S^n(g * chi_E)`` over a ladder of
    threshold sets ``E`` first, then falls back to alternating radial
    projections onto the two constraint balls (the radial scaling is exact
    for every norm by absolute homogeneity).  Every feasible answer is
    re-checked by direct norm evaluation before being returned.
    """
    if eps <= 0:
        raise WitnessError("eps must be positive")
    op = scenario.operator
    wn = lambda h: weighted_norm(scenario.norm, scenario.eta, h)

    def residuals(h):
        try:
            img = op.iterate(n, h)
        except OperatorError:
            return math.inf, math.inf
        return wn(h - f), wn(img - g)

    def accept(h, method, iterations=0):
        r1, r2 = residuals(h)
        if r1 < eps and r2 < eps:
            return OracleResult(True, h, r1, r2, method, iterations)
        return None

    res = accept(f, "exact")
    if res:
        return res

    # Witness-guided candidates over a dyadic threshold ladder.
    from .criteria import lambda_backward, lambda_forward

    K = sorted(f.support | g.support)
    best = None
    best_val = math.inf
    if K:
        lam_f = {x: lambda_forward(scenario, n, x) for x in K}
        lam_b = {x: lambda_backward(scenario, n, x) for x in K}
        seen = set()
        taus = [math.inf] + [2.0 ** (-k) for k in range(0, 50)]
        for tau in taus:
            E = tuple(x for x in K if lam_f[x] <= tau and lam_b[x] <= tau)
            if E in seen:
                continue
            seen.add(E)
            try:
                h = f.restrict(E) + op.iterate(-n, g.restrict(E))
            except OperatorError:
                continue
            res = accept(h, "witness-guided")
            if res:
                return res
            r1, r2 = residuals(h)
            val = max(r1, r2)
            if val < best_val:
                best, best_val = h, val

    # Alternating radial projections onto the two constraint balls.
    h = best if best is not None else f
    eps_eff = eps * (1.0 - 1e-9)
    prev = math.inf
    for it in range(1, max_iters + 1):
        d = h - f
        r = wn(d)
        if r > eps_eff:
            h = f + (eps_eff / r) * d
        try:
            u = op.iterate(n, h)
            du = u - g
            r = wn(du)
            if r > eps_eff:
                h = op.iterate(-n, g + (eps_eff / r) * du)
        except OperatorError:
            break
        r1, r2 = residuals(h)
        if r1 < eps and r2 < eps:
            return OracleResult(True, h, r1, r2, "projection", it)
        val = max(r1, r2)
        if prev - val < 1e-12 * max(prev, 1.0):
            break  # stalled
        prev = val
    r1, r2 = residuals(h)
    return OracleResult(False, None, r1, r2, "inconclusive", max_iters)


def epsilon_for_gap(delta: float, n_ops: int, m_K: float, c_sup: float) -> float:
    """The epsilon that turns a target approximation gap ``delta`` into the
    per-epsilon conditions: ``min(1/2, delta / ((4 + 2N) N (m_K + C)))``.

    ``C`` is the largest sup of the un-flattened approximants.
    """
    if delta <= 0 or n_ops < 1 or m_K <= 0 or c_sup < 0:
        raise WitnessError("delta, n_ops, m_K must be positive and C non-negative")
    return min(0.5, delta / ((4 + 2 * n_ops) * n_ops * (m_K + c_sup)))
