"""Checks of wcodyn's outputs against computations made apart from the
vectorised program path, or against properties the method must have.

Every check returns a list of failure messages; an empty list means the
output passed.  No check compares against a stored copy of earlier output.

* ``scan``: the scan is walked again along a scalar path: every point of
  ``K`` is iterated with exact integer arithmetic and ``log_value_at``, and
  the acceptance rule is applied (``tau_k = m_K / 2^k``, residual at most
  ``4 / 2^k``, the program's indicator norm).  The stages (``k``, ``n``,
  admissible set), the probes (``n = horizon`` included when the scan runs
  to it) and the verdict must be those of the walk; it also gives the
  number of iterates the scan had to examine.
* ``sup_terms``: every sup term of every accepted stage equals the maximum,
  over that stage's admissible set, of the exact Python-int scalar reference
  (``lambda_forward``, ``lambda_backward``, ``gamma_cross``) at the stage's
  ``n``, to a relative ``1e-12``.
* ``aperiodicity`` / ``separation``: for translations the bounds have the
  closed form ``max{n <= horizon : n v in K - K} + 1`` (``None`` when that
  maximum is the horizon), with ``v = b`` for one map, ``v = r_l b_l`` for
  each operator and ``v = r_s b_s - r_l b_l`` for each pair.  Other maps are
  checked by iterating exact integer images of ``K`` written here.
* ``salas``: for a 1-D unit shift with a constant symbol ``c`` the weight
  products are ``c^n``, so the criterion quantities have the closed form
  ``eta(x + n b) c^-n`` and ``eta(x - n b) c^n``; the verdict must follow.
* ``certification``, ``oracle``, ``same_bytes``: the witness audit is ``ok``,
  the feasibility oracle is feasible at 1.25 times the last residual, and a
  report serialises to the same bytes on every pass.
"""

from __future__ import annotations

import math

from wcodyn.criteria import (
    NO_WITNESS,
    WITNESS_FOUND,
    CriterionReport,
    DisjointReport,
    Scenario,
    gamma_cross,
    lambda_backward,
    lambda_forward,
)
from wcodyn.spaces import SampleFunction

REL_TOL = 1e-12


def _close(got: float, want: float) -> bool:
    if got == want:
        return True
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def _sup(values) -> float:
    return max(values, default=0.0)


# ---------------------------------------------------------------------------
# Sup terms against the exact scalar reference


def sup_terms(system, report) -> list:
    out = []
    if isinstance(report, CriterionReport):
        for st in report.stages:
            want_f = _sup(lambda_forward(system, st.n, x) for x in st.admissible)
            want_b = _sup(lambda_backward(system, st.n, x) for x in st.admissible)
            for what, got, want in (("sup_forward", st.sup_forward, want_f),
                                    ("sup_backward", st.sup_backward, want_b)):
                if not _close(got, want):
                    out.append(f"stage {st.k} (n={st.n}) {what} {got!r} != exact {want!r}")
    elif isinstance(report, DisjointReport):
        singles = [Scenario(system.norm, system.eta, op, op.region) for op in system.operators]
        for st in report.stages:
            for l, (scn, r) in enumerate(zip(singles, system.powers)):
                want_f = _sup(lambda_forward(scn, r * st.n, x) for x in st.admissible)
                want_b = _sup(lambda_backward(scn, r * st.n, x) for x in st.admissible)
                for what, got, want in (("sup_forward", st.sup_forward[l], want_f),
                                        ("sup_backward", st.sup_backward[l], want_b)):
                    if not _close(got, want):
                        out.append(f"stage {st.k} (n={st.n}) {what}[{l}] {got!r} "
                                   f"!= exact {want!r}")
            for (s, l), got in st.gamma.items():
                want = _sup(gamma_cross(system, s, l, st.n, x) for x in st.admissible)
                if not _close(got, want):
                    out.append(f"stage {st.k} (n={st.n}) gamma[{s},{l}] {got!r} "
                               f"!= exact {want!r}")
    return out


# ---------------------------------------------------------------------------
# Aperiodicity and separation bounds


def _differences(K) -> set:
    pts = list(K)
    return {tuple(p[i] - q[i] for i in range(len(p))) for p in pts for q in pts}


def _multiples_in(v, D, horizon) -> list:
    """All ``n in [1, horizon]`` with ``n v`` in ``D`` (``v`` non-zero)."""
    i = next(i for i, c in enumerate(v) if c != 0)
    hits = []
    for d in D:
        n, rem = divmod(d[i], v[i])
        if rem == 0 and 1 <= n <= horizon and all(n * c == e for c, e in zip(v, d)):
            hits.append(n)
    return hits


def _bound_from_vectors(vectors, K, horizon):
    D = _differences(K)
    last = 0
    for v in vectors:
        if all(c == 0 for c in v):
            last = horizon
            break
        last = max([last, *_multiples_in(v, D, horizon)])
    return None if last == horizon else last + 1


def _apply(m, p):
    return tuple(sum(a * c for a, c in zip(row, p)) + b for row, b in zip(m.linear, m.offset))


def _bound_by_iteration(maps, powers, K, horizon, pairwise: bool):
    """``max{n : some image meets K or (pairwise) two images meet} + 1``,
    iterating exact integer images of ``K``."""
    base = frozenset(K)
    imgs = [base] * len(maps)
    last = 0
    for n in range(1, horizon + 1):
        nxt = []
        for m, r, img in zip(maps, powers, imgs):
            for _ in range(r):
                img = frozenset(_apply(m, p) for p in img)
            nxt.append(img)
        imgs = nxt
        hit = any(img & base for img in imgs)
        if pairwise and not hit:
            hit = any(imgs[s] & imgs[l] for s in range(len(imgs))
                      for l in range(s + 1, len(imgs)))
        if hit:
            last = n
    return None if last == horizon else last + 1


def expected_aperiodicity(m, K, horizon):
    if m.is_translation:
        return _bound_from_vectors([m.offset], K, horizon)
    return _bound_by_iteration([m], [1], K, horizon, pairwise=False)


def expected_separation(maps, powers, K, horizon):
    if all(m.is_translation for m in maps):
        scaled = [tuple(r * c for c in m.offset) for m, r in zip(maps, powers)]
        vectors = scaled + [
            tuple(a - b for a, b in zip(scaled[s], scaled[l]))
            for s in range(len(scaled)) for l in range(s + 1, len(scaled))
        ]
        return _bound_from_vectors(vectors, K, horizon)
    return _bound_by_iteration(maps, powers, K, horizon, pairwise=True)


def bounds(system, report) -> list:
    if isinstance(report, CriterionReport):
        want = expected_aperiodicity(system.operator.map, report.K, report.horizon)
        got = report.aperiodicity_N
        what = "aperiodicity_N"
    elif isinstance(report, DisjointReport):
        maps = [op.map for op in system.operators]
        want = expected_separation(maps, system.powers, report.K, report.horizon)
        got = report.separation_bound
        what = "separation_bound"
    else:
        return []
    return [] if got == want else [f"{what} {got!r} != expected {want!r}"]


# ---------------------------------------------------------------------------
# The scan, walked again along a scalar path

_TIE = 1e-12  # the slack the scanners allow on the residual schedule
_BAND = 1e-12  # a value this close to a threshold may fall on either side
_YES, _MAYBE, _NO = "yes", "maybe", "no"


def _safe_exp(x: float) -> float:
    return math.inf if x > 709.0 else math.exp(x)


def _side(value: float, tau: float) -> int:
    """-1 when ``value <= tau`` for sure, 1 when ``value > tau`` for sure,
    0 when the two paths' rounding could put it on either side.

    A value equal to the threshold is admissible, as in the scanners: such
    ties are common (``eta = 25 / |x|^2`` meets ``m_K / 2^k`` exactly) and
    both paths compute them with the same floating-point operations.
    """
    if value == tau or value <= tau * (1 - _BAND):
        return -1
    if value > tau * (1 + _BAND):
        return 1
    return 0


class _Orbits:
    """Forward and backward orbits of every point of ``K`` under one
    operator, with the accumulated log symbol products."""

    def __init__(self, op, K):
        self.map, self.inv, self.w = op.map, op.map.inverse, op.symbol
        self.fwd, self.bwd = list(K), list(K)
        self.fwd_log = [0.0] * len(K)
        self.bwd_log = [0.0] * len(K)

    def step(self):
        w = self.w
        for i, p in enumerate(self.fwd):
            self.fwd_log[i] += w.log_value_at(p)
            self.fwd[i] = _apply(self.map, p)
        for i, p in enumerate(self.bwd):
            q = self.bwd[i] = _apply(self.inv, p)
            self.bwd_log[i] += w.log_value_at(q)

    def lambdas(self, eta):
        """``lambda_forward`` and ``lambda_backward`` at every point."""
        return ([eta.value_at(p) * _safe_exp(-a) for p, a in zip(self.fwd, self.fwd_log)],
                [eta.value_at(p) * _safe_exp(a) for p, a in zip(self.bwd, self.bwd_log)])


def _probe_schedule(horizon: int) -> set:
    ns, n = {horizon}, 1
    while n <= horizon:
        ns.add(n)
        n *= 2
    return ns


def scan(system, K, horizon: int, tol: float, report) -> tuple:
    """Walk the scan of ``check_transitivity`` or ``check_disjoint_transitivity``
    again and compare it with ``report``.

    Returns ``(failures, iterates)``: ``iterates`` is the last ``n`` the scan
    had to examine (the witness stage, or the horizon).  A value within a
    relative ``1e-12`` of a threshold may fall on either side of it, so a
    stage is missed only where it qualifies whatever those values do, and
    accepted wrongly only where it cannot qualify.
    """
    disjoint = isinstance(report, DisjointReport)
    K = sorted(K)
    eta = system.eta
    out = []
    if list(report.K) != K:
        out.append("K differs from the scenario's K")
    if report.horizon != horizon or report.tol != tol:
        out.append(f"horizon/tol {report.horizon}/{report.tol} != scenario's {horizon}/{tol}")
    m_K = min(eta.value_at(x) for x in K)
    if not _close(report.m_K, m_K):
        out.append(f"m_K {report.m_K!r} != min of eta over K {m_K!r}")
    if out:
        return out, 0
    if disjoint:
        ops, powers = system.operators, system.powers
        pairs = [(s, l) for s in range(len(ops)) for l in range(len(ops)) if s != l]
        start = report.separation_bound  # checked on its own by ``bounds``
    else:
        ops, powers, pairs, start = (system.operator,), (1,), [], 1
    orbits = [_Orbits(op, K) for op in ops]
    chi_cache: dict = {}

    def chi(idx: frozenset) -> float:
        if not idx:
            return 0.0
        v = chi_cache.get(idx)
        if v is None:
            pts = frozenset(K[i] for i in idx)
            v = chi_cache[idx] = system.norm.value(SampleFunction.indicator(pts))
        return v

    def qualifies(sides, limit) -> str:
        if chi(frozenset(i for i, c in enumerate(sides) if c >= 0)) <= limit:
            return _YES
        if chi(frozenset(i for i, c in enumerate(sides) if c > 0)) > limit:
            return _NO
        return _MAYBE

    def gammas(n):
        return {(s, l): [gamma_cross(system, s, l, n, x) for x in K] for s, l in pairs}

    probe_at = _probe_schedule(horizon)
    want_probes = []
    stages = list(report.stages)
    k, tau, target, next_stage = 1, m_K / 2.0, 2.0, 0
    found = False
    n = 0
    for n in range(1, horizon + 1):
        for orb, r in zip(orbits, powers):
            for _ in range(r):
                orb.step()
        lams = [orb.lambdas(eta) for orb in orbits]
        gam = None
        if n in probe_at:
            gam = gammas(n)
            want_probes.append((n, max(max(f) for f, _ in lams), max(max(b) for _, b in lams),
                                max((max(g) for g in gam.values()), default=None)))
        st = stages[next_stage] if next_stage < len(stages) else None
        if st is not None and st.n == n:
            next_stage += 1
        else:
            st = None
        if n < start:
            if st is not None:
                out.append(f"stage {st.k} at n={n}, before the separation bound {start}")
                break
            continue
        limit = target + _TIE
        sides = [max(_side(v, tau) for f, b in lams for v in (f[i], b[i]))
                 for i in range(len(K))]
        verdict = qualifies(sides, limit)
        if pairs and verdict != _NO:
            gam = gam or gammas(n)
            sides = [max(c, *(_side(g[i], tau) for g in gam.values()))
                     for i, c in enumerate(sides)]
            verdict = qualifies(sides, limit)
        if st is None:
            if verdict == _YES:
                out.append(f"stage {k} qualifies at n={n} but the report accepts none there")
                break
            continue
        if verdict == _NO:
            out.append(f"stage {st.k} accepted at n={n}, where it does not qualify")
            break
        out += _stage_against_walk(st, k, n, K, sides, chi, limit)
        if out:
            break
        sups = [*_as_tuple(st.sup_forward), *_as_tuple(st.sup_backward)]
        sups += list(getattr(st, "gamma", {}).values())
        if max(sups) <= tol and st.chi_residual <= tol:
            found = True
            break
        k, tau, target = k + 1, tau * 0.5, target * 0.5
    if out:
        return out, n
    if next_stage < len(stages):
        out.append(f"stage at n={stages[next_stage].n} is out of order or past the end "
                   f"of the scan (n={n})")
    want = WITNESS_FOUND if found else NO_WITNESS
    if report.verdict != want:
        out.append(f"verdict {report.verdict} but the walk gives {want}")
    got_probes = [(p.n, p.sup_forward, p.sup_backward, p.gamma_max) for p in report.probes]
    if [p[0] for p in got_probes] != [p[0] for p in want_probes]:
        out.append(f"probes at n={[p[0] for p in got_probes]}, "
                   f"expected n={[p[0] for p in want_probes]}")
    else:
        for got, want_p in zip(got_probes, want_probes):
            if not all(a == b or (a is not None and b is not None and _close(a, b))
                       for a, b in zip(got[1:], want_p[1:])):
                out.append(f"probe at n={got[0]} {got[1:]} != walk {want_p[1:]}")
    return out, n


def _as_tuple(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _stage_against_walk(st, k, n, K, sides, chi, limit) -> list:
    """The reported stage's ``k``, admissible set and residual against the
    walk at the same ``n`` (its sups are compared by ``sup_terms``)."""
    out = []
    if st.k != k:
        out.append(f"stage at n={n} has k={st.k}, expected {k}")
    adm = set(st.admissible)
    inside = [x in adm for x in K]
    if len(adm) != sum(inside):
        out.append(f"stage {k} (n={n}): admissible points outside K")
    wrong = [x for x, c, a in zip(K, sides, inside) if (c < 0 and not a) or (c > 0 and a)]
    if wrong:
        out.append(f"stage {k} (n={n}): admissible set wrong at {wrong[:4]}")
        return out
    resid = chi(frozenset(i for i, a in enumerate(inside) if not a))
    if not _close(st.chi_residual, resid) or resid > limit:
        out.append(f"stage {k} (n={n}) chi_residual {st.chi_residual!r}, walk {resid!r}, "
                   f"limit {limit!r}")
    return out


# ---------------------------------------------------------------------------
# Salas-type verdict for 1-D unit shifts with a constant symbol


def _eta_closed_form(doc: dict, scale: float):
    kind = doc["kind"]
    if kind == "constant":
        value = float(doc.get("value", 1.0))
        return lambda x: value
    if kind == "radial_power":
        p = float(doc.get("p", 1.0))

        def radial(x):
            r = scale * abs(x)
            return 1.0 if r <= 1.0 else r ** -p

        return radial
    return None


def salas_prediction(doc: dict):
    """Predicted verdict for a transitive 1-D unit shift with a constant
    symbol and a constant or radial weight; ``None`` when not applicable.

    The prediction reads only the scenario document.  It is ``WitnessFound``
    when ``M(n) = max_x max(eta(x + n b) c^-n, eta(x - n b) c^n)`` falls to
    ``tol / 2`` within the horizon, and ``NoWitnessUpToHorizon`` when
    ``M(n)`` stays above ``tol``: a witness stage needs an empty excluded set
    (one excluded point already costs an indicator norm of at least 1), so
    its sups are ``M(n)``.  Between the two it is ``"undecided"``.
    """
    if doc.get("mode") != "transitive" or doc["domain"].get("dimension", 1) != 1:
        return None
    op = doc["operator"]
    if op["map"].get("linear") not in (None, [[1]]) or abs(op["map"]["offset"][0]) != 1:
        return None
    if op["symbol"]["kind"] != "constant":
        return None
    eta = _eta_closed_form(doc["eta"], float(doc["domain"].get("scale", 1.0)))
    if eta is None or "box" not in doc["K"]:
        return None
    b = op["map"]["offset"][0]
    log_c = math.log(float(op["symbol"].get("value", 1.0)))
    lo, hi = doc["K"]["box"][0]
    tol = doc["tol"]
    best = math.inf
    for n in range(1, doc["horizon"] + 1):
        m = max(
            max(math.log(eta(x + n * b)) - n * log_c, math.log(eta(x - n * b)) + n * log_c)
            for x in range(lo, hi + 1)
        )
        best = min(best, m)
        if best <= math.log(tol / 2):
            return WITNESS_FOUND
    return NO_WITNESS if best > math.log(tol) else "undecided"


def salas(doc: dict, report) -> list:
    want = salas_prediction(doc)
    if want in (None, "undecided") or want == report.verdict:
        return []
    return [f"verdict {report.verdict} but the closed-form weight products predict {want}"]


# ---------------------------------------------------------------------------
# Certification, oracle and byte stability


def certification(verdict: str, audit_ok) -> list:
    if verdict != WITNESS_FOUND:
        return []
    if audit_ok is not True:
        return [f"witness certification is {audit_ok!r} on a {WITNESS_FOUND} report"]
    return []


def oracle(results, eps: float) -> list:
    return [
        f"feasibility oracle infeasible at eps={eps!r} for operator {i} ({r.method})"
        for i, r in enumerate(results) if not r.feasible
    ]


def same_bytes(name: str, first: bytes, now: bytes) -> list:
    return [] if first == now else [f"{name}: report bytes differ between passes"]
