import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wcodyn import criteria
from wcodyn.cli import load_bundled, run_scenario
from wcodyn.criteria import (
    CriterionReport,
    CriterionStage,
    DisjointSystem,
    OperatorFamily,
    Scenario,
    check_disjoint_transitivity,
    check_semi_transitivity,
    check_transitivity,
    lambda_backward,
    lambda_forward,
)
from wcodyn.domain import AffineLatticeMap, Region, iterate_point
from wcodyn.operators import WeightedCompositionOperator
from wcodyn.spaces import (
    ConstantWeight,
    EllPNorm,
    RadialPowerWeight,
    SampleFunction,
    TableWeight,
    norm,
    weighted_norm,
)
from wcodyn.witness import (
    WitnessError,
    build_supercyclic_witness,
    build_witness,
    epsilon_for_gap,
    feasibility_oracle,
    flatten,
    verify_report,
)


def chi(*pts):
    return SampleFunction.indicator([(p,) for p in pts])


def shift_op(offset=-1, w=1.0):
    return WeightedCompositionOperator(
        AffineLatticeMap.translation((offset,)), ConstantWeight(w), Region.box([[-8, 8]])
    )


def make_scenario(w=1.0, eta=None):
    eta = eta or RadialPowerWeight(p=1)
    return Scenario(EllPNorm(1), eta, shift_op(w=w), Region.box([[-8, 8]]))


def synthetic_report(n, E, K, scenario):
    from wcodyn.spaces import inf_weight_on

    return CriterionReport(
        verdict="WitnessFound",
        m_K=inf_weight_on(scenario.eta, Region.of(K)),
        K=tuple(sorted(K)),
        horizon=n,
        tol=0.5,
        stages=[CriterionStage(1, n, tuple(sorted(E)), 0.0, 0.0, 0.0)],
        probes=[],
        aperiodicity_N=None,
    )


class TestFlatten:
    def test_unit_weight_is_identity(self):
        f = SampleFunction({(0,): 2.0, (5,): -1.0})
        assert flatten(f, ConstantWeight(1.0)) == f

    def test_radial_weight_divides(self):
        got = flatten(chi(2), RadialPowerWeight(p=1))
        assert got == SampleFunction({(2,): 2.0})

    def test_weighted_norm_matches_plain_norm(self):
        rng = np.random.default_rng(9)
        eta = RadialPowerWeight(p=1.5)
        spec = EllPNorm(1)
        for _ in range(25):
            f = SampleFunction(
                {(int(i),): v for i, v in zip(rng.integers(-9, 10, 5), rng.normal(size=5))}
            )
            flat = flatten(f, eta)
            assert weighted_norm(spec, eta, flat) == pytest.approx(
                norm(spec, f), rel=1e-12
            )


class TestBuildWitness:
    def test_two_bump_shift(self):
        scn = make_scenario()
        rep = synthetic_report(10, [(0,)], [(0,)], scn)
        wv = build_witness(scn, rep, chi(0), [chi(0)], k=1)
        assert wv.vector == chi(0, -10)
        assert wv.residual_source == pytest.approx(0.1, rel=1e-12)
        assert wv.residual_targets[0] == pytest.approx(0.1, rel=1e-12)

    def test_two_bump_shift_longer(self):
        scn = make_scenario()
        rep = synthetic_report(100, [(0,)], [(0,)], scn)
        wv = build_witness(scn, rep, chi(0), [chi(0)], k=1)
        assert wv.residual_source == pytest.approx(0.01, rel=1e-12)
        assert wv.residual_targets[0] == pytest.approx(0.01, rel=1e-12)

    def test_zero_target_leaves_truncated_source(self):
        scn = make_scenario()
        rep = synthetic_report(10, [(0,)], [(0,), (1,)], scn)
        src = chi(0, 1)
        wv = build_witness(scn, rep, src, [SampleFunction.zero()], k=1)
        assert wv.vector == chi(0)
        want = weighted_norm(scn.norm, scn.eta, src.restrict([(1,)]))
        assert wv.residual_source == pytest.approx(want, rel=1e-12)

    def test_support_escape_rejected(self):
        scn = make_scenario()
        rep = synthetic_report(10, [(0,)], [(0,)], scn)
        with pytest.raises(WitnessError, match="escapes"):
            build_witness(scn, rep, chi(0, 7), [chi(0)], k=1)

    def test_missing_stage_rejected(self):
        scn = make_scenario()
        rep = synthetic_report(10, [(0,)], [(0,)], scn)
        with pytest.raises(WitnessError, match="stage"):
            build_witness(scn, rep, chi(0), [chi(0)], k=3)

    def test_exact_two_bump_closed_form(self):
        # for unit symbols the source residual is the sum over targets of the
        # pulled-back weighted masses, here in closed form
        scn = make_scenario()
        K = [(p,) for p in range(-2, 3)]
        rep = synthetic_report(50, K, K, scn)
        src = flatten(SampleFunction.indicator(K), scn.eta)
        wv = build_witness(scn, rep, src, [src], k=1)
        closed = math.fsum(
            scn.eta.value_at((y - 50,)) / scn.eta.value_at((y,)) for y in range(-2, 3)
        )
        assert wv.residual_source == pytest.approx(closed, abs=1e-12)


    def test_disjoint_powers_keep_stage_and_iterate_count(self):
        # powers (2, 3): the witness of stage k is recorded at the stage's n
        # (not at a step count r_s n), and operator s moves E by r_s n steps
        sys_ = DisjointSystem(
            EllPNorm(1), RadialPowerWeight(p=1), (shift_op(-1), shift_op(-2)), (2, 3)
        )
        rep = check_disjoint_transitivity(sys_, Region.box([[-2, 2]]), 2_000, 1e-2)
        assert rep.stages
        src = flatten(SampleFunction.indicator(rep.K), sys_.eta)
        for st in rep.stages:
            wv = build_witness(sys_, rep, src, [src, src], st.k)
            assert wv.n == st.n
            assert wv.stage == st.k
            assert wv.scaling == 1.0
            moved = {
                iterate_point(op.map, r * st.n, x)
                for op, r in zip(sys_.operators, sys_.powers)
                for x in st.admissible
            }
            assert wv.vector.support == set(st.admissible) | moved


class TestVerifyReport:
    def test_certifies_decaying_scenario(self):
        scn = make_scenario()
        rep = check_transitivity(scn, Region.box([[-5, 5]]), 10_000, 1e-3)
        audit = verify_report(scn, rep)
        assert audit.ok
        assert len(audit.stages) == len(rep.stages)

    def test_residuals_non_increasing_along_stages(self):
        scn = make_scenario()
        rep = check_transitivity(scn, Region.box([[-5, 5]]), 10_000, 1e-3)
        audit = verify_report(scn, rep)
        res = [st.residual_source for st in audit.stages]
        assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))

    def test_oracle_agrees_at_every_stage(self):
        # wherever the checker reports a stage, the feasibility question at
        # that iterate count is solvable within the certified bounds
        scn = make_scenario()
        rep = check_transitivity(scn, Region.box([[-3, 3]]), 5_000, 1e-3)
        audit = verify_report(scn, rep)
        source = flatten(SampleFunction.indicator(rep.K), scn.eta)
        for st in audit.stages:
            eps = 1.25 * max(st.residual_source, *st.residual_targets)
            res = feasibility_oracle(scn, st.n, source, source, eps)
            assert res.feasible, f"stage {st.k} at n={st.n}"

    def test_certifies_disjoint_scenario(self):
        eta = RadialPowerWeight(p=1)
        sys_ = DisjointSystem(
            EllPNorm(1), eta, (shift_op(-1), shift_op(-2)), (1, 2)
        )
        rep = check_disjoint_transitivity(sys_, Region.box([[-2, 2]]), 10_000, 1e-3)
        audit = verify_report(sys_, rep)
        assert audit.ok
        assert audit.stages[-1].residual_source <= 1e-2
        assert max(audit.stages[-1].residual_targets) <= 1e-2

    def test_a_bound_short_by_a_relative_1e_6_fails(self):
        # shrink stage 1's bound (7.5) by its sup terms and chi residual until
        # the largest residual exceeds it by a relative 1e-6: float rounding
        # cannot account for that much, so certification must fail
        cfg = load_bundled("decaying-weight-shift")
        _, report, _ = run_scenario(cfg)
        audit = verify_report(cfg.system, report)
        assert audit.ok
        stage = audit.stages[0]
        ratio = max(
            r / b
            for r, b in zip((stage.residual_source, *stage.residual_targets),
                            (stage.bound_source, *stage.bound_targets))
        )
        c = ratio / (1 + 1e-6)
        first = report.stages[0]
        report.stages[0] = dataclasses.replace(
            first,
            sup_forward=first.sup_forward * c,
            sup_backward=first.sup_backward * c,
            chi_residual=first.chi_residual * c,
        )
        assert not verify_report(cfg.system, report).ok


class TestSupercyclicWitness:
    def family(self, eta=None):
        return OperatorFamily(
            norm=EllPNorm(1),
            eta=eta or RadialPowerWeight(p=1),
            n_ops=2,
            index_set=range(1, 61),
            map_for=lambda t, l: AffineLatticeMap.translation((-t * (l + 1),)),
            symbol_for=lambda t, l: ConstantWeight(1.0),
        )

    def test_symmetric_two_member_family(self):
        fam = self.family()
        rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.1)
        wv = build_supercyclic_witness(fam, rep, 11, chi(0), [chi(0), chi(0)])
        assert wv.scaling == pytest.approx(1.0, abs=1e-12)
        assert wv.vector == chi(0, -11, -22)
        assert wv.residual_source == pytest.approx(1 / 11 + 1 / 22, rel=1e-12)

    def test_zero_targets(self):
        fam = self.family()
        rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.1)
        z = SampleFunction.zero()
        wv = build_supercyclic_witness(fam, rep, 12, chi(0), [z, z])
        assert wv.vector == chi(0)

    def test_outside_tail_rejected(self):
        fam = self.family()
        rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.1)
        with pytest.raises(WitnessError, match="tail"):
            build_supercyclic_witness(fam, rep, 5, chi(0), [chi(0), chi(0)])

    def test_bookkeeping_and_scaling_of_an_asymmetric_family(self):
        # symbols 2 make lambda_t about 1/2: the witness is recorded at n = 1
        # and stage t, scales the images by lambda_t and the pulled-back
        # targets by 1 / lambda_t
        fam = OperatorFamily(
            norm=EllPNorm(1),
            eta=RadialPowerWeight(p=1),
            n_ops=2,
            index_set=range(1, 61),
            map_for=lambda t, l: AffineLatticeMap.translation((-t * (l + 1),)),
            symbol_for=lambda t, l: ConstantWeight(2.0),
        )
        rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.1)
        assert rep.tail_start is not None
        for t in (rep.tail_start, 60):
            row = rep.row_for(t)
            assert row.lambda_t == pytest.approx(0.5, rel=0.2)
            wv = build_supercyclic_witness(fam, rep, t, chi(0), [chi(0), chi(0)])
            assert (wv.n, wv.stage, wv.scaling) == (1, t, row.lambda_t)
            for l in range(2):
                far = (-t * (l + 1),)
                assert wv.vector[far] == pytest.approx(1 / (2.0 * row.lambda_t), rel=1e-12)
                op = WeightedCompositionOperator(
                    fam.map_for(t, l), fam.symbol_for(t, l), Region.of(rep.K)
                )
                want = weighted_norm(fam.norm, fam.eta, wv.scaling * op.apply(wv.vector) - chi(0))
                assert wv.residual_targets[l] == pytest.approx(want, rel=1e-12)

    def test_single_member_family_reduces_to_plain_witness(self):
        t0 = 20
        eta = RadialPowerWeight(p=1)
        fam = OperatorFamily(
            norm=EllPNorm(1),
            eta=eta,
            n_ops=1,
            index_set=range(1, 41),
            map_for=lambda t, l: AffineLatticeMap.translation((-t,)),
            symbol_for=lambda t, l: ConstantWeight(1.0),
        )
        rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.2)
        assert rep.tail_start is not None and rep.tail_start <= t0
        wv_fam = build_supercyclic_witness(fam, rep, t0, chi(0), [chi(0)])
        # the same approximation through the single-operator route at n = 1
        scn = Scenario(EllPNorm(1), eta, shift_op(offset=-t0), Region.box([[-25, 25]]))
        plain = synthetic_report(1, rep.row_for(t0).admissible, rep.K, scn)
        wv_one = build_witness(scn, plain, chi(0), [chi(0)], k=1)
        assert wv_fam.scaling == pytest.approx(1.0, abs=1e-12)
        assert wv_fam.vector == wv_one.vector
        assert wv_fam.residual_source == pytest.approx(wv_one.residual_source, rel=1e-12)
        assert wv_fam.residual_targets[0] == pytest.approx(
            wv_one.residual_targets[0], rel=1e-12
        )


class TestFeasibilityOracle:
    def test_exact_solution(self):
        scn = make_scenario()
        f = chi(0, 1)
        g = scn.operator.iterate(7, f)
        res = feasibility_oracle(scn, 7, f, g, eps=1e-6)
        assert res.feasible and res.method == "exact"
        assert res.residual_source == 0.0

    def test_witness_guided_two_bump(self):
        scn = make_scenario()
        res = feasibility_oracle(scn, 10, chi(0), chi(0), eps=0.2)
        assert res.feasible
        assert res.residual_source == pytest.approx(0.1, rel=1e-10)
        assert res.residual_target == pytest.approx(0.1, rel=1e-10)
        # independent re-check of the returned point
        h = res.point
        assert weighted_norm(scn.norm, scn.eta, h - chi(0)) < 0.2
        assert weighted_norm(scn.norm, scn.eta, scn.operator.iterate(10, h) - chi(0)) < 0.2

    def test_unweighted_shift_is_infeasible(self):
        scn = make_scenario(eta=ConstantWeight(1.0))
        res = feasibility_oracle(scn, 10, chi(0), chi(0), eps=0.4, max_iters=120)
        assert not res.feasible
        # mass argument: any h within 0.4 of chi_0 keeps > 0.6 mass at the
        # origin, which T^10 moves to site 10 where the target vanishes, so
        # the two residuals can never both drop below 0.4
        assert max(res.residual_source, res.residual_target) >= 0.4
        if res.residual_source < 0.4:
            assert res.residual_target >= 0.6 * (1 - 1e-9)

    def test_projection_path_succeeds_where_candidates_fail(self):
        # source chi_0, target 2*chi_0 under the isometric shift: neither the
        # exact nor the witness-guided candidates fit inside eps=1.9, but
        # h = 0.5*chi_0 + chi_{-10} does, and alternating projections land on
        # a feasible point
        scn = make_scenario(eta=ConstantWeight(1.0))
        res = feasibility_oracle(scn, 10, chi(0), 2 * chi(0), eps=1.9)
        assert res.feasible and res.method == "projection"
        h = res.point
        assert weighted_norm(scn.norm, scn.eta, h - chi(0)) < 1.9
        assert weighted_norm(scn.norm, scn.eta, scn.operator.iterate(10, h) - 2 * chi(0)) < 1.9

    def test_eps_must_be_positive(self):
        with pytest.raises(WitnessError):
            feasibility_oracle(make_scenario(), 3, chi(0), chi(0), eps=0.0)

    def test_n_must_be_positive(self):
        with pytest.raises(WitnessError, match="n must be"):
            feasibility_oracle(make_scenario(), 0, chi(0), chi(0), eps=0.5)

    def test_inconclusive_reports_rounds_run_and_best_pair(self):
        # under the flat shift the projections stall after two rounds; the
        # first ladder candidate chi_0 + chi_10, at (1, 1), beats every round
        scn = make_scenario(eta=ConstantWeight(1.0))
        res = feasibility_oracle(scn, 10, chi(0), chi(0), eps=0.4, max_iters=200)
        assert (res.feasible, res.method, res.iterations) == (False, "inconclusive", 2)
        assert (res.residual_source, res.residual_target) == (1.0, 1.0)

    def test_answers_without_the_scalar_reference_path(self, monkeypatch):
        # a 2-D shear with a table symbol: the ladder's quantities come from
        # the vectorised walk, so the exact scalar path is never entered
        region = Region.box([[-4, 4]] * 2)
        inner = Region.box([[-2, 2]] * 2).sorted_points()
        symbol = TableWeight({pt: 0.5 + 0.05 * i for i, pt in enumerate(inner)}, default=1.0)
        op = WeightedCompositionOperator(AffineLatticeMap(((1, 1), (0, 1)), (0, 1)), symbol, region)
        scn = Scenario(EllPNorm(1), RadialPowerWeight(p=2), op, region)
        f = flatten(SampleFunction.indicator(Region.box([[-1, 1]] * 2)), scn.eta)

        def scalar_path(*args, **kwargs):
            raise AssertionError("the oracle entered the scalar reference path")

        monkeypatch.setattr(criteria, "lambda_forward", scalar_path)
        monkeypatch.setattr(criteria, "lambda_backward", scalar_path)
        monkeypatch.setattr(AffineLatticeMap, "apply", scalar_path)
        res = feasibility_oracle(scn, 12, f, f, eps=0.5)
        assert res.feasible and res.method == "witness-guided"
        h = res.point
        assert res.residual_source == weighted_norm(scn.norm, scn.eta, h - f) < 0.5
        assert res.residual_target == weighted_norm(scn.norm, scn.eta, op.iterate(12, h) - f) < 0.5


# Translations, glides, shears and signed permutations of Z and Z^2.
MAP_LINEAR_PARTS = {
    1: [((1,),), ((-1,),)],
    2: [
        ((1, 0), (0, 1)),
        ((1, 0), (0, -1)),
        ((1, 1), (0, 1)),
        ((1, -2), (0, 1)),
        ((0, 1), (1, 0)),
        ((0, -1), (1, 0)),
    ],
}


@st.composite
def oracle_questions(draw):
    dim = draw(st.sampled_from([1, 2]))
    region = Region.box([[-4, 4]] * dim)
    kind = draw(st.sampled_from(["constant", "table", "radial"]))
    if kind == "constant":
        symbol = ConstantWeight(draw(st.sampled_from([0.5, 1.0, 2.0])))
    elif kind == "table":
        entries = st.floats(0.25, 4.0, allow_nan=False)
        symbol = TableWeight(
            {pt: draw(entries) for pt in Region.box([[-2, 2]] * dim).sorted_points()}, default=1.0
        )
    else:
        symbol = RadialPowerWeight(p=draw(st.sampled_from([0.5, 1.0])))
    linear = draw(st.sampled_from(MAP_LINEAR_PARTS[dim]))
    offset = draw(st.tuples(*[st.integers(-3, 3)] * dim))
    op = WeightedCompositionOperator(AffineLatticeMap(linear, offset), symbol, region)
    scn = Scenario(draw(st.sampled_from([EllPNorm(1), EllPNorm(2)])),
                   RadialPowerWeight(p=draw(st.sampled_from([1.0, 2.0]))), op, region)
    pts = st.tuples(*[st.integers(-2, 2)] * dim)
    vals = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3)
    f, g = (SampleFunction(draw(st.dictionaries(pts, vals, min_size=1, max_size=4)))
            for _ in range(2))
    n = draw(st.integers(1, 40))
    eps = draw(st.sampled_from([0.05, 0.3, 1.0, 3.0]))
    return scn, n, f, g, eps


def reference_ladder(scn, n, f, g, eps):
    """``(method, residual pair, point)`` of the first of ``h = f`` and the
    ladder candidates within ``eps`` of both constraints, with the ladder
    thresholded on the exact scalar quantities; ``None`` when none is."""
    op = scn.operator
    wn = lambda h: weighted_norm(scn.norm, scn.eta, h)
    r2 = wn(op.iterate(n, f) - g)
    if r2 < eps:
        return "exact", 0.0, r2, f
    K = sorted(f.support | g.support)
    lam = [max(lambda_forward(scn, n, x), lambda_backward(scn, n, x)) for x in K]
    taus = [math.inf] + [2.0 ** (-k) for k in range(50)]
    # the vectorised and scalar weights may differ in the last bits
    assume(not any(abs(v - t) <= 1e-12 * t for v in lam for t in taus[1:]))
    candidates = []
    for tau in taus:
        E = tuple(x for x, v in zip(K, lam) if v <= tau)
        if E not in candidates:
            candidates.append(E)
    for E in candidates:
        h = f.restrict(E) + op.iterate(-n, g.restrict(E))
        r1, r2 = wn(h - f), wn(op.iterate(n, h) - g)
        if r1 < eps and r2 < eps:
            return "witness-guided", r1, r2, h
    return None


@given(oracle_questions())
@settings(deadline=None, max_examples=80)
def test_oracle_matches_the_scalar_reference_ladder(question):
    scn, n, f, g, eps = question
    want = reference_ladder(scn, n, f, g, eps)
    res = feasibility_oracle(scn, n, f, g, eps, max_iters=3)
    if want is None:
        assert res.method in ("projection", "inconclusive")
    else:
        assert (res.method, res.residual_source, res.residual_target, res.point) == want


def test_epsilon_for_gap_formula():
    assert epsilon_for_gap(100.0, 2, 1.0, 1.0) == 0.5
    got = epsilon_for_gap(0.8, 2, 0.2, 1.0)
    assert got == pytest.approx(0.8 / (8 * 2 * 1.2), rel=1e-12)
    with pytest.raises(WitnessError):
        epsilon_for_gap(-1.0, 2, 1.0, 1.0)
