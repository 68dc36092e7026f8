import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wcodyn.criteria import (
    NO_TAIL,
    NO_WITNESS,
    TAIL_FOUND,
    WITNESS_FOUND,
    CriterionError,
    DisjointAperiodicityError,
    DisjointSystem,
    OperatorFamily,
    Scenario,
    check_disjoint_transitivity,
    check_semi_transitivity,
    check_transitivity,
    gamma_cross,
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
)


def shift_op(offset, w=1.0, region=None):
    region = region or Region.box([[-8, 8]])
    return WeightedCompositionOperator(
        AffineLatticeMap.translation((offset,)), ConstantWeight(w), region
    )


def make_scenario(w=1.0, eta=None, offset=-1):
    eta = eta or RadialPowerWeight(p=1)
    return Scenario(EllPNorm(1), eta, shift_op(offset, w), Region.box([[-8, 8]]))


def make_disjoint(w1=1.0, w2=1.0, off1=-1, off2=-2, powers=(1, 2)):
    eta = RadialPowerWeight(p=1)
    return DisjointSystem(
        EllPNorm(1), eta, (shift_op(off1, w1), shift_op(off2, w2)), powers
    )


def shift_family(eta=None, n_ops=2, lo=1, hi=60):
    eta = eta or RadialPowerWeight(p=1)
    return OperatorFamily(
        norm=EllPNorm(1),
        eta=eta,
        n_ops=n_ops,
        index_set=range(lo, hi + 1),
        map_for=lambda t, l: AffineLatticeMap.translation((-t * (l + 1),)),
        symbol_for=lambda t, l: ConstantWeight(1.0),
    )


class TestLambdaQuantities:
    def test_forward_unit_symbol_is_shifted_weight(self):
        scn = make_scenario()
        assert lambda_forward(scn, 10, (0,)) == pytest.approx(0.1, rel=1e-12)

    def test_all_unit_is_one(self):
        scn = make_scenario(eta=ConstantWeight(1.0))
        assert lambda_forward(scn, 17, (3,)) == 1.0
        assert lambda_backward(scn, 17, (3,)) == 1.0

    def test_forward_doubling_symbol(self):
        scn = make_scenario(w=2.0)
        assert lambda_forward(scn, 4, (0,)) == pytest.approx(1 / 64, rel=1e-12)

    def test_backward_unit_symbol(self):
        scn = make_scenario()
        assert lambda_backward(scn, 10, (0,)) == pytest.approx(0.1, rel=1e-12)

    def test_backward_doubling_symbol_diverges(self):
        scn = make_scenario(w=2.0)
        assert lambda_backward(scn, 4, (0,)) == pytest.approx(4.0, rel=1e-12)

    def test_unit_symbol_reduces_to_weight_at_iterate(self):
        scn = make_scenario()
        for n in (1, 5, 23):
            for x in ((-3,), (0,), (4,)):
                fwd = iterate_point(scn.operator.map, n, x)
                bwd = iterate_point(scn.operator.map, -n, x)
                assert lambda_forward(scn, n, x) == scn.eta.value_at(fwd)
                assert lambda_backward(scn, n, x) == scn.eta.value_at(bwd)

    def test_scale_equivariance_in_log_space(self):
        base = make_scenario(w=1.0)
        scaled = make_scenario(w=3.0)
        for n in (1, 7, 40):
            f0, f1 = lambda_forward(base, n, (2,)), lambda_forward(scaled, n, (2,))
            b0, b1 = lambda_backward(base, n, (2,)), lambda_backward(scaled, n, (2,))
            assert math.log(f1) == pytest.approx(math.log(f0) - n * math.log(3), abs=1e-9)
            assert math.log(b1) == pytest.approx(math.log(b0) + n * math.log(3), abs=1e-9)

    def test_n_must_be_positive(self):
        with pytest.raises(CriterionError):
            lambda_forward(make_scenario(), 0, (0,))


class TestGammaCross:
    def test_decaying_cross_terms(self):
        sys_ = make_disjoint()
        # s=1 (shift -2, power 2), l=0 (shift -1, power 1), n=3: the composed
        # point from 0 is 0 - 12 + 3 = -9
        assert gamma_cross(sys_, 1, 0, 3, (0,)) == pytest.approx(1 / 9, rel=1e-12)
        assert gamma_cross(sys_, 0, 1, 3, (0,)) == pytest.approx(1 / 9, rel=1e-12)

    def test_cancelling_composition_returns_weight(self):
        # shift -2 at power 1 against shift -1 at power 2: the backward leg
        # exactly undoes the forward leg, so gamma is eta at the start point.
        sys_ = make_disjoint(off1=-2, off2=-1, powers=(1, 2))
        eta = sys_.eta
        for n in (1, 4, 9):
            for x in ((-2,), (0,), (3,)):
                assert gamma_cross(sys_, 1, 0, n, x) == pytest.approx(
                    eta.value_at(x), rel=1e-12
                )

    def test_indices_must_differ(self):
        with pytest.raises(CriterionError):
            gamma_cross(make_disjoint(), 1, 1, 3, (0,))


class TestCheckTransitivity:
    def test_decaying_weight_witness(self):
        rep = check_transitivity(make_scenario(), Region.box([[-5, 5]]), 10_000, 1e-3)
        assert rep.verdict == WITNESS_FOUND
        last = rep.last_stage()
        assert last.sup_forward <= 1e-3 and last.sup_backward <= 1e-3
        assert last.chi_residual <= 1e-3

    def test_unweighted_no_witness_and_flat_probes(self):
        scn = make_scenario(eta=ConstantWeight(1.0))
        rep = check_transitivity(scn, Region.box([[-5, 5]]), 2_000, 1e-3)
        assert rep.verdict == NO_WITNESS
        assert rep.stages == []
        for probe in rep.probes:
            assert probe.sup_forward == pytest.approx(1.0, abs=1e-12)
            assert probe.sup_backward == pytest.approx(1.0, abs=1e-12)

    def test_growing_symbol_no_witness(self):
        rep = check_transitivity(make_scenario(w=2.0), Region.box([[-5, 5]]), 500, 1e-3)
        assert rep.verdict == NO_WITNESS

    def test_stage_schedule_invariants(self):
        K = Region.box([[-5, 5]])
        rep = check_transitivity(make_scenario(), K, 10_000, 1e-3)
        ns = [st.n for st in rep.stages]
        assert ns == sorted(set(ns))  # strictly increasing
        prev_f = math.inf
        for st in rep.stages:
            tau = rep.m_K / 2**st.k
            assert st.sup_forward <= tau + 1e-12
            assert st.sup_backward <= tau + 1e-12
            assert st.chi_residual <= 4 / 2**st.k + 1e-12
            assert set(st.admissible) <= K.points
            assert st.sup_forward < prev_f
            prev_f = st.sup_forward

    def test_stage_sups_match_standalone_lambda(self):
        scn = make_scenario()
        rep = check_transitivity(scn, Region.box([[-5, 5]]), 3_000, 1e-2)
        for st in rep.stages:
            fwd = max(lambda_forward(scn, st.n, x) for x in st.admissible)
            bwd = max(lambda_backward(scn, st.n, x) for x in st.admissible)
            assert fwd == pytest.approx(st.sup_forward, rel=1e-12)
            assert bwd == pytest.approx(st.sup_backward, rel=1e-12)

    def test_residual_matches_norm_of_excluded_indicator(self):
        scn = make_scenario()
        K = Region.box([[-5, 5]])
        rep = check_transitivity(scn, K, 3_000, 1e-2)
        for st in rep.stages:
            excluded = K.points - set(st.admissible)
            want = norm(scn.norm, SampleFunction.indicator(excluded)) if excluded else 0.0
            assert st.chi_residual == pytest.approx(want, rel=1e-12)

    def test_monotone_in_horizon(self):
        scn = make_scenario()
        K = Region.box([[-3, 3]])
        small = check_transitivity(scn, K, 700, 1e-2)
        large = check_transitivity(scn, K, 5_000, 1e-2)
        assert small.verdict == WITNESS_FOUND
        assert large.verdict == WITNESS_FOUND
        assert [st.n for st in large.stages] == [st.n for st in small.stages]

    def test_aperiodicity_status_reported(self):
        rep = check_transitivity(make_scenario(), Region.box([[-5, 5]]), 200, 1e-2)
        assert rep.aperiodicity_N == 11

    def test_tol_validation(self):
        with pytest.raises(CriterionError):
            check_transitivity(make_scenario(), Region.box([[-5, 5]]), 100, 1.5)
        with pytest.raises(CriterionError):
            check_transitivity(make_scenario(), Region.box([[-5, 5]]), 0, 0.1)

    def test_report_roundtrips_to_dict(self):
        import json

        rep = check_transitivity(make_scenario(), Region.box([[-2, 2]]), 300, 1e-2)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["verdict"] == rep.verdict
        assert len(doc["stages"]) == len(rep.stages)


class TestCheckDisjoint:
    def test_decaying_witness(self):
        rep = check_disjoint_transitivity(
            make_disjoint(), Region.box([[-2, 2]]), 10_000, 1e-3
        )
        assert rep.verdict == WITNESS_FOUND
        last = rep.last_stage()
        assert max(last.gamma.values()) <= 1e-3
        assert rep.separation_bound == 5

    def test_candidates_respect_separation(self):
        K = Region.box([[-2, 2]])
        sys_ = make_disjoint()
        rep = check_disjoint_transitivity(sys_, K, 5_000, 1e-2)
        for st in rep.stages:
            assert st.n >= rep.separation_bound
            images = [
                {iterate_point(op.map, r * st.n, p) for p in K.points}
                for op, r in zip(sys_.operators, sys_.powers)
            ]
            assert all(not (img & K.points) for img in images)
            assert not (images[0] & images[1])

    def test_growing_first_symbol_no_witness(self):
        rep = check_disjoint_transitivity(
            make_disjoint(w1=2.0), Region.box([[-2, 2]]), 300, 1e-3
        )
        assert rep.verdict == NO_WITNESS
        assert rep.stages == []

    def test_identity_map_rejected(self):
        eta = RadialPowerWeight(p=1)
        sys_ = DisjointSystem(
            EllPNorm(1), eta, (shift_op(0), shift_op(-2)), (1, 2)
        )
        with pytest.raises(DisjointAperiodicityError):
            check_disjoint_transitivity(sys_, Region.box([[-2, 2]]), 100, 1e-2)

    def test_stage_schedule_invariants(self):
        rep = check_disjoint_transitivity(
            make_disjoint(), Region.box([[-2, 2]]), 5_000, 1e-2
        )
        assert rep.verdict == WITNESS_FOUND
        ns = [st.n for st in rep.stages]
        assert ns == sorted(set(ns))
        for st in rep.stages:
            tau = rep.m_K / 2**st.k
            assert max(st.sup_forward) <= tau + 1e-12
            assert max(st.sup_backward) <= tau + 1e-12
            assert max(st.gamma.values()) <= tau + 1e-12
            assert st.chi_residual <= 4 / 2**st.k + 1e-12

    def test_stage_gammas_match_standalone(self):
        sys_ = make_disjoint()
        rep = check_disjoint_transitivity(sys_, Region.box([[-2, 2]]), 2_000, 1e-2)
        st = rep.last_stage()
        for (s, l), sup in st.gamma.items():
            want = max(gamma_cross(sys_, s, l, st.n, x) for x in st.admissible)
            assert sup == pytest.approx(want, rel=1e-12)

    def test_powers_validation(self):
        with pytest.raises(CriterionError):
            make_disjoint(powers=(2, 2))
        with pytest.raises(CriterionError):
            DisjointSystem(EllPNorm(1), RadialPowerWeight(p=1), (shift_op(-1),), (1,))


class TestCheckSemi:
    def test_shift_family_tail_is_eleven(self):
        rep = check_semi_transitivity(shift_family(), Region.box([[-1, 1]]), 0.1)
        assert rep.verdict == TAIL_FOUND
        assert rep.tail_start == 11

    def test_lambda_is_one_for_symmetric_family(self):
        rep = check_semi_transitivity(shift_family(), Region.box([[-1, 1]]), 0.1)
        for row in rep.rows:
            if row.t >= rep.tail_start:
                assert row.lambda_t == pytest.approx(1.0, abs=1e-12)

    def test_loose_epsilon_binds_only_aperiodicity(self):
        fam = shift_family(eta=ConstantWeight(1.0))
        rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.99)
        assert rep.tail_start == 3
        # below the separation index the only failure is aperiodicity
        assert rep.row_for(2).pass_aperiodic is False

    def test_tight_epsilon_has_no_tail_for_flat_weight(self):
        # epsilon small enough that (4+2N)N eps < ||chi_K|| leaves no way to
        # satisfy the residual condition when every quantity is identically 1
        fam = shift_family(eta=ConstantWeight(1.0))
        rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.15)
        assert rep.verdict == NO_TAIL
        assert rep.tail_start is None

    def test_large_epsilon_admits_empty_admissible_set(self):
        # with (4+2N)N eps above ||chi_K||, discarding all of K is a valid
        # choice and the sups over the empty set vanish
        fam = shift_family(eta=ConstantWeight(1.0))
        rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.25)
        assert rep.verdict == TAIL_FOUND
        assert rep.tail_start == 3
        assert rep.row_for(10).admissible == ()

    def test_tail_matches_exact_rational_reevaluation(self):
        # with E_t = K the three conditions close over rationals; the checker
        # must agree with the exact evaluation on every index
        rep = check_semi_transitivity(shift_family(), Region.box([[-1, 1]]), 0.1)
        eps = Fraction(1, 10)
        theta = eps / (1 - eps)  # m_K = 1
        for row in rep.rows:
            t = row.t
            if t < 3:  # images overlap K, aperiodicity fails
                assert not row.qualifies
                continue
            sup_f = [Fraction(1, t * l - 1) for l in (1, 2)]
            sup_b = sup_f
            sup_c = Fraction(1, t - 1)
            want = (
                max(sup_f) * max(sup_b) < theta * theta
                and sup_c < theta
                and Fraction(0) < (4 + 2 * 2) * 2 * eps
            )
            assert row.qualifies == want, f"t={t}"

    def test_plane_family_has_a_tail(self):
        fam = OperatorFamily(
            norm=EllPNorm(1),
            eta=RadialPowerWeight(p=1),
            n_ops=2,
            index_set=range(1, 41),
            map_for=lambda t, l: AffineLatticeMap.translation((-t * (l + 1), 0)),
            symbol_for=lambda t, l: ConstantWeight(1.0),
        )
        K = Region.box([[-1, 1], [-1, 1]])
        rep = check_semi_transitivity(fam, K, 0.2)
        assert rep.verdict == TAIL_FOUND
        row = rep.row_for(rep.tail_start)
        assert row.lambda_t == pytest.approx(1.0, abs=1e-12)

    def test_epsilon_validation(self):
        with pytest.raises(CriterionError):
            check_semi_transitivity(shift_family(), Region.box([[-1, 1]]), 0.0)


def test_stage_schedule_under_orlicz_residual_norm():
    from wcodyn.spaces import OrliczNorm, PowerYoung

    scn = Scenario(
        OrliczNorm(PowerYoung(2.0)),
        RadialPowerWeight(p=1),
        shift_op(-1),
        Region.box([[-8, 8]]),
    )
    K = Region.box([[-5, 5]])
    rep = check_transitivity(scn, K, 10_000, 1e-3)
    assert rep.verdict == WITNESS_FOUND
    for st in rep.stages:
        # residuals here are sqrt of the excluded count, not integers
        assert st.chi_residual <= 4 / 2**st.k + 1e-12
        excluded = K.points - set(st.admissible)
        want = norm(scn.norm, SampleFunction.indicator(excluded)) if excluded else 0.0
        assert st.chi_residual == pytest.approx(want, rel=1e-12)


# Non-translation unimodular linear parts: the 1-D reflection, and in 2-D
# shears, glides (a reflection composed with a shift along the mirror) and
# signed permutations; the offset supplies the shift.
LINEAR_PARTS = {
    1: [((-1,),)],
    2: [
        ((1, 1), (0, 1)),
        ((1, -2), (0, 1)),
        ((-1, 0), (0, 1)),
        ((1, 0), (0, -1)),
        ((0, 1), (1, 0)),
        ((0, -1), (-1, 0)),
    ],
}


@st.composite
def unimodular_systems(draw):
    """A Scenario on Z or Z^2, or a two-operator DisjointSystem on Z^2 (the
    1-D reflection never separates K), whose maps are not translations, with
    constant or table symbols (a table is 1 off the box [-2, 2]^d, so
    drifting orbits can still decay)."""
    dim = draw(st.sampled_from([1, 2]))
    n_ops = draw(st.sampled_from([1, 2])) if dim == 2 else 1
    region = Region.box([[-4, 4]] * dim)
    ops = []
    for _ in range(n_ops):
        linear = draw(st.sampled_from(LINEAR_PARTS[dim]))
        offset = draw(st.tuples(*[st.integers(-3, 3)] * dim))
        if draw(st.booleans()):
            symbol = ConstantWeight(draw(st.sampled_from([1.0, 0.5, 2.0])))
        else:
            entries = st.floats(0.25, 4.0, allow_nan=False)
            table = {pt: draw(entries) for pt in Region.box([[-2, 2]] * dim).sorted_points()}
            symbol = TableWeight(table, default=1.0)
        ops.append(WeightedCompositionOperator(AffineLatticeMap(linear, offset), symbol, region))
    eta = RadialPowerWeight(p=draw(st.sampled_from([1.0, 2.0])))
    if n_ops == 1:
        return Scenario(EllPNorm(1), eta, ops[0], region), dim
    return DisjointSystem(EllPNorm(1), eta, tuple(ops), (1, 2)), dim


def _sup(values):
    return max(values, default=0.0)


@given(unimodular_systems())
@settings(deadline=None, max_examples=60)
def test_sups_match_exact_references_on_unimodular_maps(case):
    # every sup of every stage (probe) is the maximum over the stage's
    # admissible set (over K) of the exact Python-int reference at its n
    system, dim = case
    K = Region.box([[-1, 1]] * dim)
    if isinstance(system, Scenario):
        rep = check_transitivity(system, K, 64, 1e-3)
        singles, powers, pairs = [system], (1,), []
    else:
        try:
            rep = check_disjoint_transitivity(system, K, 64, 1e-3)
        except DisjointAperiodicityError:
            assume(False)
        singles = [Scenario(system.norm, system.eta, op, op.region) for op in system.operators]
        powers, pairs = system.powers, [(0, 1), (1, 0)]

    def sups(n, pts):
        fwd = [_sup(lambda_forward(scn, r * n, x) for x in pts) for scn, r in zip(singles, powers)]
        bwd = [_sup(lambda_backward(scn, r * n, x) for x in pts) for scn, r in zip(singles, powers)]
        gam = {(s, l): _sup(gamma_cross(system, s, l, n, x) for x in pts) for s, l in pairs}
        return fwd, bwd, gam

    for st_ in rep.stages:
        fwd, bwd, gam = sups(st_.n, st_.admissible)
        if isinstance(system, Scenario):
            assert st_.sup_forward == pytest.approx(fwd[0], rel=1e-12)
            assert st_.sup_backward == pytest.approx(bwd[0], rel=1e-12)
        else:
            assert list(st_.sup_forward) == pytest.approx(fwd, rel=1e-12)
            assert list(st_.sup_backward) == pytest.approx(bwd, rel=1e-12)
            assert st_.gamma == pytest.approx(gam, rel=1e-12)
    for pr in rep.probes:
        fwd, bwd, gam = sups(pr.n, K.sorted_points())
        assert pr.sup_forward == pytest.approx(max(fwd), rel=1e-12)
        assert pr.sup_backward == pytest.approx(max(bwd), rel=1e-12)
        if pairs:
            assert pr.gamma_max == pytest.approx(max(gam.values()), rel=1e-12)
        else:
            assert pr.gamma_max is None
