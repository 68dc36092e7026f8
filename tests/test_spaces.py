import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcodyn.domain import AffineLatticeMap, DomainError, Region
from wcodyn.spaces import (
    ConstantWeight,
    EllPNorm,
    ExpYoung,
    MorreyNorm,
    OrliczNorm,
    PowerYoung,
    ProductWeight,
    RadialPowerWeight,
    SampleFunction,
    SpaceError,
    TableWeight,
    WeightError,
    inf_weight_on,
    norm,
    validate_weight,
    weighted_norm,
)


def chi(*pts):
    return SampleFunction.indicator([p if isinstance(p, tuple) else (p,) for p in pts])


def brute_morrey(f, p, q, max_radius):
    """Independent oracle: enumerate every ball from scratch, no shortcuts."""
    items = f.items()
    if not items:
        return 0.0
    pts = [pt for pt, _ in items]
    d = len(pts[0])
    lo = [min(pt[i] for pt in pts) - max_radius for i in range(d)]
    hi = [max(pt[i] for pt in pts) + max_radius for i in range(d)]
    centers = [()]
    for i in range(d):
        centers = [c + (v,) for c in centers for v in range(lo[i], hi[i] + 1)]
    best = 0.0
    for c in centers:
        for r in range(max_radius + 1):
            mass = sum(
                abs(v) ** q
                for pt, v in items
                if max(abs(pt[i] - c[i]) for i in range(d)) <= r
            )
            if mass > 0:
                size = (2 * r + 1) ** d
                best = max(best, size ** (1 / p - 1 / q) * mass ** (1 / q))
    return best


class TestSampleFunction:
    def test_zero_values_pruned(self):
        f = SampleFunction({(0,): 1.0, (1,): 0.0})
        assert f.support == {(0,)}

    def test_supportwise_equality(self):
        assert chi(0, 1) - chi(1) == chi(0)

    def test_arithmetic(self):
        f = 2 * chi(0) + chi(3)
        assert f[(0,)] == 2 and f[(3,)] == 1 and f[(5,)] == 0

    def test_restrict_and_compose(self):
        f = chi(0, 1, 2)
        assert f.restrict([(0,), (2,)]) == chi(0, 2)
        shifted = f.compose(AffineLatticeMap.translation((-1,)))
        assert shifted.support == {(1,), (2,), (3,)}

    def test_mixed_dimension_rejected(self):
        with pytest.raises(SpaceError):
            SampleFunction({(0,): 1.0, (0, 1): 1.0})


class TestEllP:
    def test_counting(self):
        assert norm(EllPNorm(1), chi(0, 1, 2, 3, 4)) == 5.0

    def test_euclidean(self):
        f = SampleFunction({(0,): 3.0, (1,): 4.0})
        assert norm(EllPNorm(2), f) == pytest.approx(5.0, rel=1e-15)

    def test_sup(self):
        f = SampleFunction({(0,): 3.0, (1,): -7.0})
        assert norm(EllPNorm(math.inf), f) == 7.0

    def test_p_below_one_rejected(self):
        with pytest.raises(SpaceError):
            EllPNorm(0.5)


class TestOrlicz:
    def test_square_young_matches_l2(self):
        # Luxemburg gauge for Phi(t)=t^2 equals the l^2 norm
        got = norm(OrliczNorm(PowerYoung(2.0), tol=1e-10), chi(0, 1))
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_power_young_matches_lp(self, p):
        rng = np.random.default_rng(7)
        f = SampleFunction({(i,): v for i, v in enumerate(rng.uniform(0.1, 3.0, size=6))})
        assert norm(OrliczNorm(PowerYoung(p)), f) == pytest.approx(
            norm(EllPNorm(p), f), rel=1e-9
        )

    def test_gauge_defining_property(self):
        phi = ExpYoung()
        spec = OrliczNorm(phi, tol=1e-10)
        f = SampleFunction({(0,): 2.0, (3,): 0.5, (5,): 1.25})
        lam = norm(spec, f)
        inside = sum(phi(abs(v) / lam) for _, v in f.items())
        below = sum(phi(abs(v) / (lam * (1 - 1e-8))) for _, v in f.items())
        assert inside <= 1.0 + 1e-9
        assert below > 1.0 - 1e-9

    def test_single_point_exp(self):
        assert norm(OrliczNorm(ExpYoung()), chi(4)) == pytest.approx(1 / math.log(2), rel=1e-10)

    def test_zero_function(self):
        assert norm(OrliczNorm(PowerYoung(2.0)), SampleFunction.zero()) == 0.0


class TestMorrey:
    def test_single_point(self):
        assert norm(MorreyNorm(2, 1, 10), chi(0)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.integers(-4, 5, size=(4, 1))
            f = SampleFunction({tuple(p): v for p, v in zip(pts, rng.uniform(-2, 2, 4))})
            spec = MorreyNorm(2.5, 1.5, 4)
            assert norm(spec, f) == pytest.approx(brute_morrey(f, 2.5, 1.5, 4), rel=1e-12)

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(4)
        pts = rng.integers(-2, 3, size=(5, 2))
        f = SampleFunction({tuple(p): v for p, v in zip(pts, rng.uniform(0.5, 2, 5))})
        assert norm(MorreyNorm(3, 1, 3), f) == pytest.approx(
            brute_morrey(f, 3, 1, 3), rel=1e-12
        )

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_brute_force_in_1_to_3_d(self, data):
        d = data.draw(st.integers(1, 3))
        r = data.draw(st.integers(0, 4 if d < 3 else 2))
        spread = data.draw(st.integers(0, 30))
        far = (spread,) + (0,) * (d - 1)  # the support spans `spread` sites
        pts = data.draw(st.lists(st.tuples(*[st.integers(0, spread)] * d), max_size=4))
        value = st.floats(-4, 4) | st.builds(complex, st.floats(-4, 4), st.floats(-4, 4))
        vals = data.draw(st.lists(value.filter(lambda v: abs(v) > 1e-3), min_size=6, max_size=6))
        f = SampleFunction(dict(zip([(0,) * d, far, *pts], vals)))
        p = data.draw(st.floats(1.5, 6))
        q = data.draw(st.floats(1, p).filter(lambda q: q < p))
        assert norm(MorreyNorm(p, q, r), f) == pytest.approx(brute_morrey(f, p, q, r), rel=1e-12)

    def test_cost_does_not_grow_with_the_spread(self):
        # two points share no cube of radius 3 at either spread, so the
        # values agree; enumerating the bounding box would take minutes
        values = []
        for spread in (50, 5000):
            f = SampleFunction({(0, 0): 1.0, (spread, spread // 3): -0.5j})
            t0 = time.perf_counter()
            values.append(norm(MorreyNorm(2, 1, 3), f))
            assert time.perf_counter() - t0 < 1.0
        assert values[0] == values[1]

    def test_cubes_beyond_int64_raise(self):
        top, bottom = 2**63 - 1, -(2**63)
        with pytest.raises(DomainError):
            norm(MorreyNorm(2, 1, 1), SampleFunction({(top,): 1.0, (bottom,): 1.0}))
        with pytest.raises(DomainError):
            norm(MorreyNorm(2, 1, 1), chi(2**63))

    def test_cubes_reaching_the_int64_end_match_the_origin(self):
        spec = MorreyNorm(2, 1, 3)
        r = spec.max_radius
        a, b = 2**63 - 1 - r, 2**63 - 3 - r
        near_end = SampleFunction({(a,): 1.0, (b,): -0.5})
        at_origin = SampleFunction({(a - b,): 1.0, (0,): -0.5})
        assert norm(spec, near_end) == norm(spec, at_origin)

    def test_parameter_validation(self):
        with pytest.raises(SpaceError, match="q"):
            MorreyNorm(2, 2, 5)
        with pytest.raises(SpaceError, match="q"):
            MorreyNorm(2, 3, 5)
        with pytest.raises(SpaceError):
            MorreyNorm(2, 0.5, 5)


class TestWeightedNorm:
    def test_unit_weight_is_plain_norm(self):
        f = SampleFunction({(0,): 1.5, (2,): -0.5})
        for spec in (EllPNorm(1), OrliczNorm(PowerYoung(2)), MorreyNorm(2, 1, 3)):
            assert weighted_norm(spec, ConstantWeight(1.0), f) == norm(spec, f)

    def test_radial_single_site(self):
        assert weighted_norm(EllPNorm(1), RadialPowerWeight(p=1), chi(2)) == pytest.approx(0.5)

    def test_radial_two_sites(self):
        got = weighted_norm(EllPNorm(1), RadialPowerWeight(p=1), chi(0, 10))
        assert got == pytest.approx(1.1, rel=1e-12)

    def test_consistency_with_pointwise_product(self):
        eta = RadialPowerWeight(p=1.5)
        f = SampleFunction({(3,): 2.0, (-7,): 1.0})
        assert weighted_norm(EllPNorm(2), eta, f) == norm(EllPNorm(2), f.scaled_by(eta))


class TestValidateWeight:
    def test_constant_weight(self):
        got = validate_weight(ConstantWeight(1.0), AffineLatticeMap.translation((-1,)), Region.box([[-5, 5]]))
        assert got == 1.0

    def test_radial_unit_shift(self):
        got = validate_weight(RadialPowerWeight(p=1), AffineLatticeMap.translation((-1,)), Region.box([[-5, 5]]))
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_submultiplicative_table_bounded_by_step_value(self):
        # eta(x) = 2^|x| satisfies eta(x+y) <= eta(x) eta(y); the ratio along a
        # shift by a is then bounded by eta(a).
        a = 2
        table = TableWeight({(x,): 2.0 ** abs(x) for x in range(-12, 13)})
        m = AffineLatticeMap.translation((-a,))
        region = Region.box([[-8, 8]])
        k = validate_weight(table, m, region)
        assert k <= 2.0**a * (1 + 1e-12)
        assert k == pytest.approx(2.0**a, rel=1e-12)  # attained at the sign change

    def test_reverified_pointwise(self):
        eta = RadialPowerWeight(p=2)
        m = AffineLatticeMap.translation((-1,))
        region = Region.box([[-6, 6]])
        k = validate_weight(eta, m, region)
        for x in region.sorted_points():
            assert eta.value_at(m.apply(x)) <= k * eta.value_at(x) * (1 + 1e-12)
            assert eta.value_at(m.inverse.apply(x)) <= k * eta.value_at(x) * (1 + 1e-12)

    def test_nonpositive_weight_reported_with_points(self):
        with pytest.raises(WeightError):
            TableWeight({(0,): 1.0, (1,): -2.0})
        bad = TableWeight({(0,): 1.0}, default=None)
        with pytest.raises(WeightError) as err:
            validate_weight(bad, AffineLatticeMap.translation((-1,)), Region.of([(0,)]))
        assert err.value.points  # names the offending point


class TestInfWeightOn:
    def test_constant(self):
        assert inf_weight_on(ConstantWeight(1.0), Region.box([[-3, 3]])) == 1.0

    def test_radial_interval(self):
        assert inf_weight_on(RadialPowerWeight(p=1), Region.box([[-2, 2]])) == pytest.approx(0.5)

    def test_plane_unit_ball(self):
        pts = [(x, y) for x in range(-1, 2) for y in range(-1, 2) if x * x + y * y <= 1]
        assert inf_weight_on(RadialPowerWeight(p=1), Region.of(pts)) == 1.0


def test_product_weight_combines():
    w = ProductWeight((ConstantWeight(2.0), RadialPowerWeight(p=1)))
    assert w.value_at((4,)) == pytest.approx(0.5)
    pts = np.array([[4], [0]], dtype=np.int64)
    assert w.values(pts) == pytest.approx([0.5, 2.0])
    assert w.log_values(pts) == pytest.approx(np.log([0.5, 2.0]))


@given(
    st.integers(1, 3),
    st.sampled_from([None, 0.75]),
    st.integers(0, 2**32),
    st.integers(1, 40),
)
@settings(deadline=None, max_examples=60)
def test_table_values_match_value_at(d, default, seed, n_pts):
    rng = np.random.default_rng(seed)
    entries = rng.integers(-4, 5, size=(int(rng.integers(1, 30)), d))
    table = {tuple(int(c) for c in p): float(rng.uniform(0.1, 3.0)) for p in entries}
    w = TableWeight(table, default=default)
    on = entries[rng.integers(0, len(entries), size=n_pts)]
    off = rng.integers(-6, 7, size=(n_pts, d))
    for pts in (on, off, np.concatenate([on, off])):
        try:
            want = [w.value_at(tuple(p)) for p in pts]
        except WeightError:
            missing = {tuple(int(c) for c in p) for p in pts} - set(table)
            with pytest.raises(WeightError) as err:
                w.values(pts)
            assert set(err.value.points) == missing
            continue
        got = w.values(pts)
        assert got.tolist() == want  # the same floats, so log gives the same bits
        assert np.array_equal(w.log_values(pts), np.log(np.array(want)))


def test_sparse_table_values_match_value_at():
    # a bounding box too large for int64 keys takes the per-point path
    table = {(0, 0): 2.0, (2**40, -(2**40)): 0.5, (-(2**40), 3): 1.5}
    w = TableWeight(table, default=1.0)
    pts = np.array([(0, 0), (2**40, -(2**40)), (1, 1), (-(2**40), 3)], dtype=np.int64)
    assert w.values(pts).tolist() == [2.0, 0.5, 1.0, 1.5]


def test_scale_maps_lattice_to_real_coordinates():
    # with scale h=0.5, lattice site 4 sits at real coordinate 2.0
    w = RadialPowerWeight(p=1, scale=0.5)
    assert w.value_at((4,)) == pytest.approx(0.5)
    assert w.value_at((2,)) == 1.0  # real coordinate 1.0, inside the unit ball
