import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wcodyn.criteria import (
    NO_TAIL,
    NO_WITNESS,
    TAIL_FOUND,
    WITNESS_FOUND,
    CriterionError,
    CriterionProbe,
    DisjointAperiodicityError,
    DisjointStage,
    DisjointSystem,
    EpsilonReport,
    OperatorFamily,
    Scenario,
    SemiRow,
    _admissible,
    _as_system,
    _below,
    _chi_norm,
    _iterates,
    _pairs,
    _probe_schedule,
    _scan,
    _sup as _masked_sup,
    check_disjoint_transitivity,
    check_semi_transitivity,
    check_transitivity,
    gamma_cross,
    lambda_backward,
    lambda_forward,
)
from wcodyn.domain import (
    AffineLatticeMap,
    DomainError,
    Region,
    _int64_rows,
    _last_meeting,
    iterate_point,
)
from wcodyn.operators import WeightedCompositionOperator
from wcodyn.spaces import (
    ConstantWeight,
    EllPNorm,
    RadialPowerWeight,
    SampleFunction,
    TableWeight,
    WeightError,
    inf_weight_on,
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

    def test_chi_norm_evaluates_each_point_set_once(self):
        class CountingNorm:
            calls = 0

            def value(self, f):
                self.calls += 1
                return EllPNorm(1).value(f)

        spec = CountingNorm()
        chi = _chi_norm(spec, [(0,), (1,)])
        assert chi(np.array([True, True])) == 0.0 and spec.calls == 0
        assert chi(np.array([False, False])) == 2.0 and spec.calls == 1
        assert chi(np.zeros(2, dtype=bool)) == 2.0 and spec.calls == 1
        assert chi(np.array([True, False])) == 1.0 and spec.calls == 2

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


@st.composite
def semi_families(draw):
    """An OperatorFamily on Z or Z^2 with N in {1, 2, 3} members whose maps
    ``x -> A_l x + t b_l`` take their linear parts from LINEAR_PARTS or the
    identity, with non-unit constant, table or radial symbols."""
    dim = draw(st.sampled_from([1, 2]))
    n_ops = draw(st.sampled_from([1, 2, 3]))
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    members = []
    for _ in range(n_ops):
        linear = draw(st.sampled_from(LINEAR_PARTS[dim] + [identity]))
        drift = draw(st.tuples(*[st.integers(-3, 3)] * dim))
        kind = draw(st.sampled_from(["constant", "table", "radial"]))
        if kind == "constant":
            symbol = ConstantWeight(draw(st.sampled_from([0.5, 2.0, 3.0])))
        elif kind == "table":
            entries = st.floats(0.25, 4.0, allow_nan=False)
            table = {pt: draw(entries) for pt in Region.box([[-2, 2]] * dim).sorted_points()}
            symbol = TableWeight(table, default=1.0)
        else:
            symbol = RadialPowerWeight(p=draw(st.sampled_from([0.5, 1.0])))
        members.append((linear, drift, symbol))
    family = OperatorFamily(
        norm=EllPNorm(1),
        eta=RadialPowerWeight(p=draw(st.sampled_from([1.0, 2.0]))),
        n_ops=n_ops,
        index_set=range(1, 11),
        map_for=lambda t, l: AffineLatticeMap(
            members[l][0], tuple(t * c for c in members[l][1])
        ),
        symbol_for=lambda t, l: members[l][2],
    )
    return family, dim, draw(st.sampled_from([0.1, 0.5, 0.8, 0.95]))


@given(semi_families())
@settings(deadline=None, max_examples=60)
def test_semi_rows_match_exact_references(case):
    # every row's sups are the maxima over its admissible set of the exact
    # scalar quantities at one application, the admissible set is the
    # threshold set of those quantities, and pass_aperiodic is the direct
    # test that the images of K miss K and each other
    family, dim, eps = case
    K = Region.box([[-1, 1]] * dim)
    region = Region.box([[-4, 4]] * dim)
    rep = check_semi_transitivity(family, K, eps)
    theta = rep.m_K * eps / (1 - eps)
    eta, N = family.eta, family.n_ops
    pairs = [(s, l) for s in range(N) for l in range(N) if s != l]
    for row in rep.rows:
        maps = [family.map_for(row.t, l) for l in range(N)]
        syms = [family.symbol_for(row.t, l) for l in range(N)]
        singles = [
            Scenario(family.norm, eta, WeightedCompositionOperator(m, w, region), region)
            for m, w in zip(maps, syms)
        ]

        def cross(s, l, x):
            y = maps[l].inverse.apply(maps[s].apply(x))
            return eta.value_at(y) * syms[l].value_at(y) / syms[s].value_at(x)

        def quantities(x):
            return (
                [lambda_forward(scn, 1, x) for scn in singles]
                + [lambda_backward(scn, 1, x) for scn in singles]
                + [cross(s, l, x) for s, l in pairs]
            )

        E = row.admissible
        assert list(row.sup_forward) == pytest.approx(
            [_sup(lambda_forward(scn, 1, x) for x in E) for scn in singles], rel=1e-12
        )
        assert list(row.sup_backward) == pytest.approx(
            [_sup(lambda_backward(scn, 1, x) for x in E) for scn in singles], rel=1e-12
        )
        assert row.sup_cross == pytest.approx(
            {(s, l): _sup(cross(s, l, x) for x in E) for s, l in pairs}, rel=1e-12
        )
        for x in K.sorted_points():
            top = max(quantities(x))
            if x in E:
                assert top <= theta * (1 + 1e-12)
            else:
                assert top > theta * (1 - 1e-12)
        base = K.points
        images = [frozenset(m.apply(p) for p in base) for m in maps]
        aper = all(not (img & base) for img in images) and all(
            not (frozenset(maps[l].inverse.apply(p) for p in images[s]) & base)
            for s, l in pairs
        )
        assert row.pass_aperiodic is aper


def test_semi_rejects_a_map_of_the_wrong_dimension():
    fam = OperatorFamily(
        norm=EllPNorm(1),
        eta=RadialPowerWeight(p=1),
        n_ops=1,
        index_set=range(1, 4),
        map_for=lambda t, l: AffineLatticeMap.translation((-t, 0)),
        symbol_for=lambda t, l: ConstantWeight(1.0),
    )
    with pytest.raises(DomainError):
        check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.1)


def test_semi_raises_where_images_leave_the_int64_range():
    # x + 2**62 for x in K = [-1, 1] exceeds the a-priori range of the
    # vectorised map application, which raises rather than wrapping
    fam = OperatorFamily(
        norm=EllPNorm(1),
        eta=RadialPowerWeight(p=1),
        n_ops=1,
        index_set=(1,),
        map_for=lambda t, l: AffineLatticeMap.translation((t * 2**62,)),
        symbol_for=lambda t, l: ConstantWeight(1.0),
    )
    with pytest.raises(DomainError):
        check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.1)


def _semi_per_index(family, K, epsilon):
    """``check_semi_transitivity`` as it was written before the array pass:
    each index ``t`` from its own maps and inverses, ``apply_many`` calls,
    weight evaluations and threshold, and separation by ``_last_meeting``."""
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
    rows = []
    for t in family.index_set:
        maps = [family.map_for(t, l) for l in range(N)]
        syms = [family.symbol_for(t, l) for l in range(N)]
        aper = _last_meeting(maps, [1] * N, K, 1) == 0
        w = [sym.values(pts) for sym in syms]
        fwd = [eta.values(m.apply_many(pts)) / wl for m, wl in zip(maps, w)]
        back = [m.inverse.apply_many(pts) for m in maps]
        bwd = [eta.values(y) * sym.values(y) for y, sym in zip(back, syms)]
        cross = {}
        for s, l in pairs:
            y = maps[l].inverse.apply_many(maps[s].apply_many(pts))
            cross[(s, l)] = eta.values(y) * syms[l].values(y) / w[s]
        mask = _below([*fwd, *bwd, *cross.values()], theta, np.ones(len(pts), dtype=bool))
        resid = chi(mask)
        sup_f = tuple(_masked_sup(v, mask) for v in fwd)
        sup_b = tuple(_masked_sup(v, mask) for v in bwd)
        sup_c = {pair: _masked_sup(v, mask) for pair, v in cross.items()}
        sum_f, sum_b = math.fsum(sup_f), math.fsum(sup_b)
        rows.append(
            SemiRow(
                t=t,
                admissible=_admissible(sorted_pts, mask),
                chi_residual=resid,
                sup_forward=sup_f,
                sup_backward=sup_b,
                sup_cross=sup_c,
                lambda_t=math.sqrt(sum_f) / math.sqrt(sum_b) if sum_b > 0 else math.nan,
                pass_chi=resid < chi_bound * guard,
                pass_product=(max(sup_f) * max(sup_b)) < theta * theta * guard,
                pass_cross=all(v < theta * guard for v in sup_c.values()),
                pass_aperiodic=aper,
            )
        )
    tail_start = None
    for row in reversed(rows):
        if not row.qualifies:
            break
        tail_start = row.t
    return EpsilonReport(
        verdict=TAIL_FOUND if tail_start is not None else NO_TAIL,
        tail_start=tail_start,
        m_K=m_K,
        K=tuple(sorted_pts),
        epsilon=epsilon,
        rows=rows,
        params=family.describe(),
    )


def _hexed(value):
    """A report value with each float as its type name and ``float.hex``,
    so that two reports compare bit for bit."""
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


@st.composite
def semi_symbol_families(draw):
    """An OperatorFamily on Z or Z^2 with N in {1, 2, 3} members ``x -> A_l x
    + c_l + t b_l`` (``A_l`` from LINEAR_PARTS or the identity) over a short
    index range, whose constant, table or radial symbols are one object for
    every ``t``, a new object with other values at each ``t``, or member 0's
    own object; with a ``K`` of up to 9 points and an epsilon."""
    dim = draw(st.sampled_from([1, 2]))
    n_ops = draw(st.sampled_from([1, 2, 3]))
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    small = st.tuples(*[st.integers(-3, 3)] * dim)
    members = []
    for l in range(n_ops):
        linear = draw(st.sampled_from(LINEAR_PARTS[dim] + [identity]))
        kind = draw(st.sampled_from(["constant", "table", "radial"]))
        if kind == "constant":
            c = draw(st.sampled_from([0.5, 2.0, 3.0]))
            make = lambda t, c=c: ConstantWeight(c * (1 + t % 3))
        elif kind == "table":
            entries = st.floats(0.25, 4.0, allow_nan=False)
            table = {pt: draw(entries) for pt in Region.box([[-2, 2]] * dim).sorted_points()}
            make = lambda t, table=table: TableWeight(
                {pt: v * (1 + t % 2) for pt, v in table.items()}, default=1.0
            )
        else:
            p = draw(st.sampled_from([0.5, 1.0, 2.0]))
            make = lambda t, p=p: RadialPowerWeight(p=p, scale=1 + t % 2 / 2)
        how = draw(st.sampled_from(["one", "per t", "member 0"][: 3 if l else 2]))
        if how == "one":
            symbol_at = lambda t, one=make(0): one
        elif how == "per t":
            symbol_at = make
        else:
            symbol_at = members[0][3]
        members.append((linear, draw(small), draw(small), symbol_at))
    lo = draw(st.integers(-3, 3))
    family = OperatorFamily(
        norm=EllPNorm(draw(st.sampled_from([1, 2]))),
        eta=draw(st.sampled_from([RadialPowerWeight(p=1.0), RadialPowerWeight(p=2.0), ConstantWeight(1.0)])),
        n_ops=n_ops,
        index_set=range(lo, lo + draw(st.integers(1, 12))),
        map_for=lambda t, l: AffineLatticeMap(
            members[l][0], tuple(c + t * b for c, b in zip(members[l][1], members[l][2]))
        ),
        symbol_for=lambda t, l: members[l][3](t),
    )
    K = Region.of(draw(st.lists(small, min_size=1, max_size=9)))
    return family, K, draw(st.sampled_from([0.05, 0.1, 0.5, 0.8, 0.95]))


@given(semi_symbol_families())
@settings(deadline=None, max_examples=150)
def test_semi_array_pass_equals_the_per_index_loop_bit_for_bit(case):
    family, K, eps = case
    got = check_semi_transitivity(family, K, eps).to_dict()
    assert _hexed(got) == _hexed(_semi_per_index(family, K, eps).to_dict())


def test_semi_calls_map_for_once_per_member_and_index_and_never_apply_many(monkeypatch):
    calls = []
    base = shift_family()

    def map_for(t, l):
        calls.append((t, l))
        return AffineLatticeMap(((-1,),), (t * (l + 2),))

    fam = dataclasses.replace(base, map_for=map_for)
    want = _semi_per_index(fam, Region.box([[-1, 1]]), 0.1).to_dict()
    calls.clear()

    def refuse(self, pts):
        raise AssertionError("apply_many called")

    monkeypatch.setattr(AffineLatticeMap, "apply_many", refuse)
    rep = check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.1)
    assert sorted(calls) == [(t, l) for t in fam.index_set for l in range(fam.n_ops)]
    assert _hexed(rep.to_dict()) == _hexed(want)


def test_semi_names_the_points_a_table_symbol_has_no_value_at():
    # the symbol is tabled on [-3, 3] only; the backward images of K = [-1, 1]
    # under x -> x - 3t reach 4 and beyond
    fam = OperatorFamily(
        norm=EllPNorm(1),
        eta=RadialPowerWeight(p=1),
        n_ops=1,
        index_set=range(1, 4),
        map_for=lambda t, l: AffineLatticeMap.translation((-3 * t,)),
        symbol_for=lambda t, l: TableWeight({(x,): 2.0 for x in range(-3, 4)}),
    )
    with pytest.raises(WeightError, match="no value at") as err:
        check_semi_transitivity(fam, Region.box([[-1, 1]]), 0.1)
    assert err.value.points and all(abs(x) > 3 for (x,) in err.value.points)


def test_semi_names_where_an_underflowing_eta_vanishes():
    # |x|**-400 underflows to 0.0 once |x| >= 7, so eta vanishes on 12
    # points of K = [-12, 12]; an OperatorFamily does not validate eta
    eta = RadialPowerWeight(p=400)
    with pytest.raises(WeightError, match=r"non-positive on the region at \(-12,\)") as err:
        check_semi_transitivity(shift_family(eta=eta), Region.box([[-12, 12]]), 0.1)
    assert err.value.points == tuple((x,) for x in [*range(-12, -6), *range(7, 13)])
    assert all(eta.value_at(p) == 0.0 for p in err.value.points)


# ---------------------------------------------------------------------------
# The scan computes blocks of iterates ahead; errors surface where a
# step-by-step scan meets them


def _table_eta_scenario(extent):
    # eta = 1 / (1 + |x|) on [-extent, extent] and undefined beyond, so the
    # orbits of K = [-2, 2] under the unit shift leave it at n = extent - 1
    eta = TableWeight({(x,): 1.0 / (1 + abs(x)) for x in range(-extent, extent + 1)})
    return Scenario(EllPNorm(1), eta, shift_op(-1, region=Region.box([[-4, 4]])), Region.box([[-4, 4]]))


def test_iterates_raise_at_the_iterate_that_leaves_the_table():
    sc = _table_eta_scenario(42)
    K = np.array([[x] for x in range(-2, 3)], dtype=np.int64)
    seen = []
    with pytest.raises(WeightError, match="no value at"):
        for n0, _, _, top, _ in _iterates(sc.eta, (sc.operator,), (1,), K, 100):
            seen += [n0 + i for i in range(len(top))]
    assert seen == list(range(1, 41))


def test_witness_before_the_table_ends_is_found():
    # the witness is accepted at n = 49 and the table ends at n = 55, both
    # inside the block of iterates 32..63 that the scan computes ahead
    sc = _table_eta_scenario(56)
    report = check_transitivity(sc, Region.box([[-2, 2]]), 100, 0.03)
    assert report.verdict == WITNESS_FOUND and [st_.n for st_ in report.stages] == [6, 13, 25, 49]
    with pytest.raises(WeightError, match=r"no value at \(-57,\)"):
        check_transitivity(sc, Region.box([[-2, 2]]), 100, 0.02)


# ---------------------------------------------------------------------------
# The scan decides a run of iterates at a time; the loop that decides one n
# at a time is its reference


class RecordingNorm:
    """The l^1 norm, recording the support of every function it measures."""

    def __init__(self):
        self.seen = []

    def value(self, f):
        self.seen.append(f.support)
        return EllPNorm(1).value(f)


def _per_n_scan(norm, eta, ops, powers, K, horizon, tol, start):
    """The acceptance loop of a scan that decides one ``n`` at a time, driven
    over the rows of ``_iterates``.  Returns the fields of ``_scan``, the
    block starts, and the iterates where the cheap indicator test passed and
    a cross quantity then rejected."""
    m_K = inf_weight_on(eta, K)
    sorted_pts = K.sorted_points()
    pts = np.array(sorted_pts, dtype=np.int64)
    chi = _chi_norm(norm, sorted_pts)
    probe_at = _probe_schedule(horizon)
    pairs = _pairs(len(ops))
    blocks = []

    def cross(n, fwd):
        out = {}
        for s, l in pairs:
            p, acc = fwd[s][0].copy(), np.zeros(len(pts))
            ops[l].walk(p, acc, powers[l] * n, backward=True)
            out[(s, l)] = eta.values(p) * np.exp(acc - fwd[s][1])
        return out

    def rows():
        for n0, lam_f, lam_b, top, f_rows in _iterates(eta, ops, powers, pts, horizon):
            blocks.append(n0)
            for i in range(len(top)):
                fwd = [(P[i], A[i]) for P, A in f_rows]
                yield n0 + i, [v[i] for v in lam_f], [v[i] for v in lam_b], top[i], fwd

    k, tau, target = 1, m_K / 2.0, 2.0
    stages, probes, gamma_rejects = [], [], []
    verdict = NO_WITNESS
    with np.errstate(over="ignore", under="ignore"):
        for n, lam_f, lam_b, top, fwd in rows():
            gam = None
            if n in probe_at:
                gam = cross(n, fwd)
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
            mask = top <= tau
            if pairs and chi(mask) > target + 1e-12:
                continue
            if gam is None:
                gam = cross(n, fwd)
            for g in gam.values():
                mask &= g <= tau
            resid = chi(mask)
            if resid > target + 1e-12:
                if pairs:
                    gamma_rejects.append(n)
                continue
            sup_f = tuple(float(v[mask].max()) if mask.any() else 0.0 for v in lam_f)
            sup_b = tuple(float(v[mask].max()) if mask.any() else 0.0 for v in lam_b)
            gsup = {p: float(g[mask].max()) if mask.any() else 0.0 for p, g in gam.items()}
            admissible = tuple(pt for pt, keep in zip(sorted_pts, mask) if keep)
            stages.append(DisjointStage(k, n, admissible, sup_f, sup_b, gsup, resid))
            if all(v <= tol for v in (*sup_f, *sup_b, *gsup.values(), resid)):
                verdict = WITNESS_FOUND
                break
            k, tau, target = k + 1, tau * 0.5, target * 0.5
    scan = dict(verdict=verdict, stages=stages, probes=probes)
    return scan, blocks, gamma_rejects


def _both_scans(system, K, horizon, tol, start):
    """``_scan`` and the per-n reference on one system, each with its own
    recording norm; asserts that they agree and returns the reference."""
    _, eta, ops, powers = _as_system(system)
    got_norm, want_norm = RecordingNorm(), RecordingNorm()
    got = _scan(got_norm, eta, ops, powers, K, horizon, tol, start)
    want, blocks, gamma_rejects = _per_n_scan(want_norm, eta, ops, powers, K, horizon, tol, start)
    assert got["verdict"] == want["verdict"]
    assert got["stages"] == want["stages"]
    assert got["probes"] == want["probes"]
    assert got_norm.seen == want_norm.seen
    return want, blocks, gamma_rejects


@given(
    unimodular_systems(),
    st.sampled_from([0.3, 0.05, 1e-3, 1e-9]),
    st.sampled_from([1, 7, 40, 64, 150]),
    st.sampled_from([1, 2, 5, 17]),
)
@settings(deadline=None, max_examples=60)
def test_scan_by_runs_equals_the_per_n_loop(case, tol, horizon, start):
    system, dim = case
    _both_scans(system, Region.box([[-1, 1]] * dim), horizon, tol, start)


def _block_of(n, blocks):
    return max(b for b in blocks if b <= n)


def test_scan_by_runs_accepts_mid_block_and_across_blocks():
    # eta = (1 + |x|)^2 under the unit shift: stages at n = 2, 3 | 4, 5, 7 |
    # 9, 13 | 17, 24 | 33 in the blocks from 2, 4, 8, 16 and 32, so some
    # share a block (thresholded again after each stage) and some do not.
    # The last block runs to the horizon 40, a probe the scan never reaches.
    scn = make_scenario(eta=RadialPowerWeight(p=2))
    want, blocks, _ = _both_scans(scn, Region.box([[-1, 1]]), 40, 1e-3, 1)
    assert want["verdict"] == WITNESS_FOUND
    ns = [st_.n for st_ in want["stages"]]
    assert ns == [2, 3, 4, 5, 7, 9, 13, 17, 24, 33]
    assert [pr.n for pr in want["probes"]] == [1, 2, 4, 8, 16, 32]
    homes = [_block_of(n, blocks) for n in ns]
    assert any(n > home for n, home in zip(ns, homes))  # accepted mid-block
    assert any(a == b for a, b in zip(homes, homes[1:]))  # two stages in one block
    assert any(a != b for a, b in zip(homes, homes[1:]))  # a stage in a later block


def test_scan_by_runs_walks_the_cross_leg_where_chi_passes_and_gamma_rejects():
    # shifts by -3 and -1 at powers (1, 2): the cheap indicator test passes
    # at iterates where a cross quantity still exceeds the threshold
    system = make_disjoint(off1=-3, off2=-1)
    want, _, gamma_rejects = _both_scans(system, Region.box([[-2, 2]]), 200, 1e-9, 1)
    assert gamma_rejects and want["stages"]


def test_an_underflowing_weight_is_reported_where_it_vanishes():
    # |x|**-400 underflows to 0.0 once |x| >= 7: the first sampled point of
    # [-12, 12] and both of its images are zeros of the weight
    eta = RadialPowerWeight(p=400)
    region = Region.box([[-12, 12]])
    with pytest.raises(WeightError, match="non-positive on sampled points") as err:
        Scenario(EllPNorm(1), eta, shift_op(-1, region=region), region)
    assert err.value.points == ((-12,), (-13,), (-11,))
    assert all(eta.value_at(p) == 0.0 for p in err.value.points)
    with pytest.raises(WeightError, match="non-positive on the region"):
        inf_weight_on(eta, region)
