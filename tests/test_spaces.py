import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcodyn.domain import AffineLatticeMap, DomainError, Region
from wcodyn.operators import OperatorError, WeightedCompositionOperator
from wcodyn.spaces import (
    _LOG_MAX,
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
    sup_weight_on,
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


# ---------------------------------------------------------------------------
# Bit identity with the earlier implementations: grouping Morrey cells with
# np.unique(axis=0), evaluating Orlicz and l^p terms in sorted point order
# through a generator, and validating every arithmetic result again.


def _morrey_by_unique(spec, f):
    """``MorreyNorm.value`` with the cells grouped by ``np.unique(axis=0)``."""
    items = f.items()
    if not items:
        return 0.0
    r_max = spec.max_radius
    pts = np.array([pt for pt, _ in items], dtype=np.int64)
    mags_q = np.array([abs(v) ** spec.q for _, v in items])
    d = pts.shape[1]
    weights = ((2 * np.arange(r_max + 1) + 1) ** d) ** (1.0 / spec.p - 1.0 / spec.q)
    axis = np.arange(-r_max, r_max + 1)
    offsets = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    centers, which = np.unique(
        (pts[:, None, :] + offsets).reshape(-1, d), axis=0, return_inverse=True
    )
    mass = np.zeros((len(centers), r_max + 1))
    rings = np.tile(np.abs(offsets).max(axis=1), len(pts))
    np.add.at(mass, (which.reshape(-1), rings), np.repeat(mags_q, len(offsets)))
    return float((weights * np.cumsum(mass, axis=1) ** (1.0 / spec.q)).max())


def _scalar_phi(young):
    """The scalar ``Phi`` of a Young function, written out term by term."""
    if isinstance(young, ExpYoung):
        return lambda t: math.expm1(t) if t < _LOG_MAX else math.inf
    return lambda t: t**young.p


def _orlicz_by_generator(spec, f):
    """``OrliczNorm.value`` with sorted terms, a generator and a 1e-16 stop."""
    mags = [abs(v) for _, v in f.items()]
    if not mags:
        return 0.0
    phi = _scalar_phi(spec.young)
    inv1 = spec.young.inverse_at_one()

    def modular(lam):
        return math.fsum(phi(m / lam) for m in mags)

    lo = max(mags) / inv1
    hi = math.fsum(mags) / inv1
    if modular(lo) <= 1.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * hi:
            break
    return hi


def _ell_p_by_generator(spec, f):
    mags = [abs(v) for _, v in f.items()]
    if not mags:
        return 0.0
    if math.isinf(spec.p):
        return max(mags)
    return math.fsum(m**spec.p for m in mags) ** (1.0 / spec.p)


_values = st.floats(-1e6, 1e6).filter(lambda v: v != 0) | st.builds(
    complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)
).filter(lambda v: v != 0)


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_morrey_bits_match_grouping_by_unique(data):
    d = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(0, 10 if d < 3 else 5))
    spread = data.draw(st.sampled_from([0, 3, 40, 10**6]))
    base = st.tuples(*[st.integers(-spread, spread)] * d)
    far = data.draw(st.lists(base, min_size=1, max_size=5))
    # points within 2r of the first one share cubes with it, and many of
    # them put several terms into one (centre, radius) bucket
    near = data.draw(st.lists(st.tuples(*[st.integers(-2 * r, 2 * r)] * d), max_size=12))
    pts = far + [tuple(a + b for a, b in zip(far[0], o)) for o in near]
    vals = data.draw(st.lists(_values, min_size=len(pts), max_size=len(pts)))
    f = SampleFunction(dict(zip(pts, vals)))
    p = data.draw(st.floats(1.5, 6))
    q = data.draw(st.floats(1, p).filter(lambda q: q < p))
    spec = MorreyNorm(p, q, r)
    assert spec.value(f).hex() == _morrey_by_unique(spec, f).hex()


@given(
    st.lists(_values, min_size=1, max_size=40),
    st.one_of(st.builds(PowerYoung, st.floats(1, 6)), st.just(ExpYoung())),
    st.floats(1, 6) | st.just(math.inf),
    st.randoms(use_true_random=False),
)
@settings(deadline=None, max_examples=120)
def test_orlicz_and_ell_p_bits_match_sorted_generators(vals, young, p, rnd):
    pts = [(i,) for i in range(len(vals))]
    rnd.shuffle(pts)  # insertion order differs from sorted order
    f = SampleFunction(dict(zip(pts, vals)))
    spec = OrliczNorm(young)
    assert spec.value(f).hex() == _orlicz_by_generator(spec, f).hex()
    assert EllPNorm(p).value(f).hex() == _ell_p_by_generator(EllPNorm(p), f).hex()


@given(
    st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=20),
    st.floats(1e-300, 1e300),
    st.one_of(st.builds(PowerYoung, st.floats(1, 6)), st.just(ExpYoung())),
)
@settings(deadline=None, max_examples=120)
def test_young_modular_matches_a_sum_of_scalar_calls(mags, lam, young):
    # lam is free here, so exp meets ratios m / lam at and beyond _LOG_MAX
    phi = _scalar_phi(young)
    try:
        want = math.fsum(phi(m / lam) for m in mags)
    except OverflowError:  # t ** p beyond the float range
        with pytest.raises(OverflowError):
            young.modular(mags, lam)
        return
    assert young.modular(mags, lam).hex() == want.hex()
    assert [young(m / lam).hex() for m in mags] == [phi(m / lam).hex() for m in mags]


def test_exp_modular_is_inf_from_log_max_on():
    assert ExpYoung().modular([1.0, _LOG_MAX], 1.0) == math.inf
    assert ExpYoung().modular([1.0, 1e300], 1e-300) == math.inf
    assert ExpYoung().modular([math.nextafter(_LOG_MAX, 0)], 1.0) < math.inf


def _revalidated(g):
    """The public constructor's result for ``g``'s data, and a bitwise view."""
    again = SampleFunction(dict(g._data))
    bits = {pt: (v.real.hex(), v.imag.hex()) for pt, v in g._data.items()}
    want = {pt: (v.real.hex(), v.imag.hex()) for pt, v in again._data.items()}
    assert g == again and bits == want
    for pt, v in g._data.items():
        assert type(v) is complex
        assert all(type(c) is int for c in pt)


_tiny_parts = st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 5e-324, -5e-324, 1.0, -2.5, 1e200])


@given(
    st.lists(st.builds(complex, _tiny_parts, _tiny_parts), min_size=1, max_size=8),
    st.sampled_from(
        [0, 0.0, 0j, -1, -2.0, 1e-200, -1e-200, 2j, -1j, complex(-1e-200, 1e-300),
         Fraction(-1, 3), True]
    ),
)
@settings(deadline=None, max_examples=150)
def test_arithmetic_results_are_the_public_constructors_bit_for_bit(vals, scalar):
    f = SampleFunction({(i, -i): v for i, v in enumerate(vals)})
    g = SampleFunction({(i, 1): 1e-200 for i in range(3)})
    table = TableWeight({pt: w for pt, w in zip(f.support, [1e-200, 0.5, 3.0] * 3)})
    for result in (
        scalar * f,
        -f,
        f - g,
        g - f,
        f + g,
        1e-200 * g,
        f.restrict([(0, 0), (1, -1), (9, 9)]),
        f.scaled_by(table),
        f.scaled_by(ConstantWeight(1e-300)),
    ):
        _revalidated(result)


def test_scaled_by_a_weight_of_numpy_type_stores_python_complex():
    # complex * np.float32 is an np.complex64; the stored value must not be
    f = SampleFunction({(0,): 1.5 + 2j, (1,): -0.25, (2,): 1e-45})
    got = f.scaled_by(ConstantWeight(np.float32(0.1)))
    assert type(got[(0,)]) is complex
    _revalidated(got)


def test_iterate_drops_underflow_and_keeps_the_constructors_bits():
    T = WeightedCompositionOperator(
        AffineLatticeMap.translation((1,)), ConstantWeight(1e-100), Region.box([[-9, 9]])
    )
    # 1e-500 and below underflow; 1e180 * 1e-500 is subnormal, and the phase
    # (-1e-10, 1) gives a real part that underflows to -0.0
    f = SampleFunction({(0,): 1.0, (1,): 1e180 * complex(-1e-10, 1.0), (2,): -1e200, (3,): 1e-180})
    logs = T.iterate_log(5, f)
    assert min(mag for mag, _ in logs.values()) < -745
    got = T.iterate(5, f)
    assert got.support == {(-4,), (-3,)}
    _revalidated(got)
    assert got[(-4,)].real.hex() == "0x0.0p+0"  # -0.0 made +0.0, as the constructor does
    for n in (-1, 0, 3):
        _revalidated(T.iterate(n, f))
    assert all(type(c) is int for pt in T.iterate_log(5, f) for c in pt)


def _bits(f):
    return {pt: (v.real.hex(), v.imag.hex()) for pt, v in f._data.items()}


def test_numpy_scalar_times_a_function_is_the_python_scalar_product():
    f = SampleFunction({(0,): 1.0, (1,): -2.5 + 1e-200j, (2,): complex(3e-300, -7.0)})
    for scalar in (np.float64(-0.5), np.int64(3), np.complex128(1j)):
        got = scalar * f
        want = scalar.item() * f
        assert type(got) is SampleFunction and _bits(got) == _bits(want)
        _revalidated(got)


def test_float32_weights_scale_in_double_precision():
    f = SampleFunction({(0,): 1e200j})
    got = f.scaled_by(ConstantWeight(np.float32(0.1)))
    assert math.isfinite(abs(got[(0,)]))
    assert _bits(got) == _bits(f.scaled_by(ConstantWeight(float(np.float32(0.1)))))
    table = TableWeight({(1,): 2.0}, default=np.float32(0.1))
    assert type(table.default) is float
    assert _bits(f.scaled_by(table)) == _bits(got)


def _radii_by_row_sums(w, pts):
    return w.scale * np.sqrt((pts.astype(np.float64) ** 2).sum(axis=1))


def _radial_by_row_sums(w, pts, log):
    """``RadialPowerWeight.values``/``log_values`` with the squares summed
    along each row, as they were written before the column fold."""
    r = _radii_by_row_sums(w, pts)
    out = np.zeros(len(pts)) if log else np.ones(len(pts))
    m = r > 1.0
    out[m] = -w.p * np.log(r[m]) if log else r[m] ** -w.p
    return out


@given(
    st.integers(1, 4),
    st.sampled_from([9, 2**26, 2**40, 2**62]),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 4),
    st.floats(1e-3, 10),
)
@settings(deadline=None, max_examples=150)
def test_radial_values_match_row_sums_bit_for_bit(d, bound, seed, p, scale):
    # coordinates beyond 2**26 make the squares and their sums round
    pts = np.random.default_rng(seed).integers(-bound, bound, size=(40, d), endpoint=True)
    w = RadialPowerWeight(p, scale)
    assert [v.hex() for v in w._radii(pts).tolist()] == [
        v.hex() for v in _radii_by_row_sums(w, pts).tolist()
    ]
    for got, log in ((w.values(pts), False), (w.log_values(pts), True)):
        want = _radial_by_row_sums(w, pts, log)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


# ---------------------------------------------------------------------------
# Bit identity of the fast norm paths with the code they replaced: Morrey
# cells grouped by a lexicographic sort of their coordinates, an Orlicz
# bisection that evaluates the modular at every step, and radial weights
# taken one ``value_at`` call per point.


def _morrey_by_lexsort(spec, f):
    """``MorreyNorm.value`` with every support's cells ranked by ``np.lexsort``."""
    items = f.items()
    if not items:
        return 0.0
    r_max = spec.max_radius
    pts = np.array([pt for pt, _ in items], dtype=np.int64)
    mags_q = np.array([abs(v) ** spec.q for _, v in items])
    d = pts.shape[1]
    weights = ((2 * np.arange(r_max + 1) + 1) ** d) ** (1.0 / spec.p - 1.0 / spec.q)
    axis = np.arange(-r_max, r_max + 1)
    offsets = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    cells = (pts[:, None, :] + offsets).reshape(-1, d)
    order = np.lexsort(cells.T[::-1])
    ranked = cells[order]
    new = np.zeros(len(cells), dtype=bool)
    new[0] = True
    for col in ranked.T:
        new[1:] |= col[1:] != col[:-1]
    which = np.empty(len(cells), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    shape = (int(new.sum()), r_max + 1)
    rings = np.tile(np.abs(offsets).max(axis=1), len(pts))
    mass = np.bincount(
        which * shape[1] + rings,
        weights=np.repeat(mags_q, len(offsets)),
        minlength=shape[0] * shape[1],
    ).reshape(shape)
    return float((weights * np.cumsum(mass, axis=1) ** (1.0 / spec.q)).max())


def _lexsort_calls(monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    return calls


@pytest.mark.parametrize(
    "pts, lexsorted",
    [
        # grown box (with radius 1) of exactly 2**62 cells: int64 keys
        ([(0,), (2**62 - 3,), (5,)], False),
        ([(-7, 0), (2**31 - 10, 2**31 - 3), (-6, 1)], False),
        # one cell more: coordinates
        ([(0,), (2**62 - 2,), (5,)], True),
        ([(-(2**62), 0), (2**62, 1), (-(2**62) + 1, 1)], True),
        ([(0, 0, 0), (2**40, -(2**40), 3), (1, 1, 1), (2**40, -(2**40) + 1, 2)], True),
    ],
)
def test_morrey_groups_by_int64_keys_up_to_a_box_of_2_62_cells(pts, lexsorted, monkeypatch):
    spec = MorreyNorm(2.5, 1.25, 1)
    f = SampleFunction({pt: complex(i + 1, -0.5 * i) for i, pt in enumerate(pts)})
    want = _morrey_by_lexsort(spec, f)
    calls = _lexsort_calls(monkeypatch)
    assert spec.value(f).hex() == want.hex()
    assert bool(calls) == lexsorted


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_morrey_bits_match_the_lexicographic_sort(data):
    d = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(0, 6 if d < 3 else 3))
    spread = data.draw(st.sampled_from([0, 5, 2**20, 2**31, 2**61]))
    far = data.draw(st.lists(st.tuples(*[st.integers(-spread, spread)] * d), min_size=1, max_size=4))
    near = data.draw(st.lists(st.tuples(*[st.integers(-2 * r, 2 * r)] * d), max_size=20))
    pts = far + [tuple(a + b for a, b in zip(far[0], o)) for o in near]
    vals = data.draw(st.lists(_values, min_size=len(pts), max_size=len(pts)))
    f = SampleFunction(dict(zip(pts, vals)))
    spec = MorreyNorm(data.draw(st.floats(1.5, 6)), 1.0 + data.draw(st.floats(0, 0.4)), r)
    assert spec.value(f).hex() == _morrey_by_lexsort(spec, f).hex()


def _dense_edge(r, n):
    """The largest ``a`` for which ``n`` points between ``0`` and the far
    corner ``(a, 0, ..., 0)`` are bucketed densely: their grown box has
    ``(a + 2r + 1) (2r + 1)^(d-1)`` cells, at most ``_DENSE`` per cell of
    their ``n (2r + 1)^d``."""
    return (n * MorreyNorm._DENSE - 1) * (2 * r + 1)


@pytest.mark.parametrize("d, r", [(1, 0), (1, 2), (1, 10), (2, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("beyond", [0, 1])
def test_morrey_buckets_the_whole_box_up_to_the_dense_threshold(d, r, beyond, monkeypatch):
    far = (_dense_edge(r, 3) + beyond,) + (0,) * (d - 1)
    near = (1,) + (0,) * (d - 1)  # a second term in some of the first point's buckets
    f = SampleFunction({(0,) * d: 1.5 - 2j, far: 0.75, near: -3.25})
    spec = MorreyNorm(3.5, 1.25, r)
    want = _morrey_by_lexsort(spec, f)
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    lexsorts = _lexsort_calls(monkeypatch)
    assert spec.value(f).hex() == want.hex()
    assert (bool(sorts), lexsorts) == (bool(beyond), [])


def _orlicz_every_step(spec, mags):
    """``OrliczNorm.value`` evaluating the modular at every bisection step."""
    modular = spec.young.modular
    inv1 = spec.young.inverse_at_one()
    lo = max(mags) / inv1
    hi = math.fsum(mags) / inv1
    if modular(mags, lo) <= 1.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if modular(mags, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _modular_calls(monkeypatch):
    calls = []
    modular = PowerYoung.modular
    monkeypatch.setattr(
        PowerYoung, "modular", lambda self, mags, lam: calls.append(1) or modular(self, mags, lam)
    )
    return calls


_magnitudes = st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 1e-310, 2.0**-1022, 1e300])


@given(
    st.lists(_magnitudes, min_size=1, max_size=150),
    st.floats(1, 64) | st.sampled_from([1, 1.0, 2, 64.0]),
    st.booleans(),
)
@settings(deadline=None, max_examples=150)
def test_orlicz_bits_match_evaluating_every_step(mags, p, exp):
    f = SampleFunction({(i,): m for i, m in enumerate(mags)})
    mags = [abs(v) for v in f._data.values()]
    spec = OrliczNorm(ExpYoung() if exp else PowerYoung(p))
    assert spec.value(f).hex() == _orlicz_every_step(spec, mags).hex()


@pytest.mark.parametrize("m", [5e-324, 1e-310, 2.0**-1022, 0.3, 1e300, 1.7e308])
@pytest.mark.parametrize("young", [PowerYoung(1), PowerYoung(2.5), PowerYoung(64), ExpYoung()])
def test_orlicz_one_point_supports_match_evaluating_every_step(m, young):
    spec = OrliczNorm(young)
    assert spec.value(SampleFunction({(3,): m})).hex() == _orlicz_every_step(spec, [m]).hex()


@given(
    st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=150),
    st.floats(1, 64) | st.sampled_from([1.0, 2.0, 64.0]),
)
@settings(deadline=None, max_examples=60)
def test_power_young_norm_evaluates_the_modular_at_most_16_times(mags, p):
    # evaluating every bisection step takes 52-57 calls on such supports
    spec = OrliczNorm(PowerYoung(p))
    f = SampleFunction({(i,): m for i, m in enumerate(mags)})
    with pytest.MonkeyPatch.context() as mp:
        calls = _modular_calls(mp)
        got = spec.value(f)
    assert len(calls) <= 16
    assert got.hex() == _orlicz_every_step(spec, [abs(v) for v in f._data.values()]).hex()


def test_power_young_bracket_is_certified_and_absent_beyond_its_slack():
    mags = [0.5, 1.0, 3.0, 1e-3]
    for p in (1.0, 2.0, 7.5, 64.0):
        young = PowerYoung(p)
        a, b = young.bracket(mags)
        assert 0 < a < b < math.inf
        assert young.modular(mags, a) > 1.0 >= young.modular(mags, b)
    # beta = (3p + 10) 2^-52 exceeds 1/2: the error bounds no longer hold
    assert PowerYoung(2.0**50).bracket(mags) == (-math.inf, math.inf)
    assert ExpYoung().bracket(mags) == (-math.inf, math.inf)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.5, 64.0])
def test_power_young_verdict_agrees_with_the_modular_next_to_the_crossing(p):
    # bracket's candidates r (1 -+ 2^-44) clear 1 by about p 2^-44, far more
    # than beta; here c walks through the crossing one ulp at a time, where
    # only beta keeps a verdict from contradicting the computed modular
    young = PowerYoung(p)
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(40):
        mags = (rng.random(int(rng.integers(1, 60))) * 10.0 ** int(rng.integers(-5, 6))).tolist()
        M = max(mags)
        S = math.fsum([(m / M) ** p for m in mags])
        c = M * S ** (1.0 / p) * (1.0 - 80 * 2.0**-52)
        for _ in range(320):
            verdict = young._verdict(M, S, c)
            seen.add(verdict)
            if verdict:
                assert (young.modular(mags, c) > 1.0) == (verdict > 0), (mags, c)
            c = math.nextafter(c, math.inf)
    assert seen == {-1, 0, 1}


@given(
    st.integers(1, 4),
    st.sampled_from([9, 2**26, 2**53 + 1, 2**62, 2**70]),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 4),
    st.floats(1e-3, 10).filter(lambda s: s != 1.0),
)
@settings(deadline=None, max_examples=100)
def test_radial_weights_of_a_support_match_value_at_bit_for_bit(d, bound, seed, p, scale):
    # beyond 2**26 the squares and their sums round, so the order of the
    # column adds shows; beyond int64 the points are Python ints only
    rnd = np.random.default_rng(seed)
    pts = [tuple(int(c) * (bound // 9) for c in rnd.integers(-9, 10, size=d)) for _ in range(30)]
    pts += [tuple(int(c) for c in rnd.integers(-2, 3, size=d)) for _ in range(5)]
    w = RadialPowerWeight(p, scale)
    for some in (pts, pts[:5], []):
        assert [v.hex() for v in w._values_at(some)] == [w.value_at(pt).hex() for pt in some]
    f = SampleFunction({pt: complex(1.5, -0.25) for pt in pts})
    want = {pt: v * w.value_at(pt) for pt, v in f._data.items()}
    assert _bits(f.scaled_by(w)) == _bits(SampleFunction(want))


# ---------------------------------------------------------------------------
# Weights over a region read in one call: the loops they replace, copied.


def _validate_by_loop(eta, m, region):
    inv = m.inverse
    bad = []
    k = 0.0
    for x in region.sorted_points():
        triple = [x, m.apply(x), inv.apply(x)]
        vals = []
        for pt in triple:
            v = eta.value_at(pt)
            if not (v > 0 and math.isfinite(v)):
                bad.append(pt)
            vals.append(v)
        if bad:
            raise WeightError("weight is non-positive on sampled points", bad)
        k = max(k, vals[1] / vals[0], vals[2] / vals[0])
    return k


def _inf_by_loop(eta, region):
    pts = region.sorted_points()
    vals = [eta.value_at(x) for x in pts]
    bad = [x for x, v in zip(pts, vals) if not (v > 0 and math.isfinite(v))]
    if bad:
        more = f" and {len(bad) - 1} more points" if len(bad) > 1 else ""
        raise WeightError(f"weight is non-positive on the region at {bad[0]}{more}", bad)
    return min(vals)


def _sup_by_loop(w, region):
    return max([w.value_at(x) for x in region.sorted_points()])


def _symbol_bounds_by_loop(m, symbol, region):
    m_w = min(symbol.value_at(x) for x in region.sorted_points())
    M_w = _sup_by_loop(symbol, region)
    if not (m_w > 0 and math.isfinite(M_w)):
        raise OperatorError(f"symbol must be bounded away from 0 and infinity, got [{m_w}, {M_w}]")


def _symbol_bounds(m, symbol, region):
    WeightedCompositionOperator(m, symbol, region)  # checks the bounds, or raises


def _outcome(fn, *args):
    """What ``fn`` returns (its bits) or raises (type, message, points)."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "points", None)
    return None if out is None else out.hex()


@st.composite
def _unimodular(draw, d):
    """An integer matrix of determinant +-1: signed row swaps and shears."""
    a = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i == j:
            a[i] = [-c for c in a[i]]
        else:
            c = draw(st.integers(-3, 3))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            if draw(st.booleans()):
                a[i], a[j] = a[j], a[i]
    return a


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_weights_over_a_region_match_the_scalar_loops(data):
    d = data.draw(st.integers(1, 3))
    # beyond int64, up to where a radial weight underflows to 0 and past
    # the float range, where value_at cannot convert a coordinate
    bases = data.draw(st.lists(
        st.sampled_from([0, 2**40, 2**63 - 2, -(2**63) - 1, 2**80, 2**520, 2**1030]),
        min_size=1, max_size=2,
    ))
    spread = data.draw(st.sampled_from([2, 10**6, 2**70]))
    pts = data.draw(st.lists(
        st.tuples(st.sampled_from(bases), st.tuples(*[st.integers(-spread, spread)] * d)),
        min_size=1, max_size=10,
    ))
    region = Region.of(tuple(base + c for c in pt) for base, pt in pts)
    offset = data.draw(st.tuples(*[st.integers(-(2**70), 2**70) | st.integers(-3, 3)] * d))
    m = AffineLatticeMap(data.draw(_unimodular(d)), offset)
    sampled = sorted({y for x in region.points for y in (x, m.apply(x), m.inverse.apply(x))})
    # a few points off the table, so the first failing triple can lie anywhere
    missing = data.draw(st.sets(st.sampled_from(sampled), min_size=1, max_size=3))
    table = {pt: data.draw(st.floats(0.25, 4)) for pt in sampled if pt not in missing}
    radial = RadialPowerWeight(data.draw(st.floats(0.1, 6)), data.draw(st.sampled_from([1.0, 0.37])))
    kind = data.draw(st.sampled_from(["radial", "table", "default", "constant", "product"]))
    eta = {
        "radial": radial,
        "table": TableWeight(table) if table else TableWeight({(0,) * d: 1.0}),
        "default": TableWeight(table, default=0.5),
        "constant": ConstantWeight(data.draw(st.floats(0.01, 100))),
        "product": ProductWeight((radial, TableWeight(table, default=2.0))),
    }[kind]
    assert _outcome(validate_weight, eta, m, region) == _outcome(_validate_by_loop, eta, m, region)
    assert _outcome(inf_weight_on, eta, region) == _outcome(_inf_by_loop, eta, region)
    assert _outcome(sup_weight_on, eta, region) == _outcome(_sup_by_loop, eta, region)
    assert _outcome(_symbol_bounds, m, eta, region) == _outcome(
        _symbol_bounds_by_loop, m, eta, region
    )


def test_validate_weight_raises_at_the_first_failing_triple():
    # x = 0 maps to 1 and -1 (both missing); x = 1 maps onto 2 and 0
    m = AffineLatticeMap.translation((1,))
    eta = TableWeight({(1,): 1.0, (2,): 3.0})
    with pytest.raises(WeightError, match=r"no value at \(0,\)") as info:
        validate_weight(eta, m, Region.of([(1,), (0,)]))
    assert info.value.points == ((0,),)
    tiny = RadialPowerWeight(1.0)
    far = 2**1000  # r ** -1 underflows to 0 at x = (far, 0)
    region = Region.of([(far, 0), (2**1030, 0)])  # and 2**1030 is past the float range
    with pytest.raises(WeightError, match="non-positive") as info:
        validate_weight(tiny, AffineLatticeMap.translation((0, 1)), region)
    assert info.value.points == ((far, 0), (far, 1), (far, -1))
    with pytest.raises(DomainError, match="point has dimension 1, map has 2"):
        validate_weight(tiny, AffineLatticeMap.translation((0, 1)), Region.of([(3,)]))


# ---------------------------------------------------------------------------
# Norms of magnitudes whose plain sums overflow


@pytest.mark.parametrize("spec", [OrliczNorm(PowerYoung(2.0)), EllPNorm(2.0)])
def test_a_norm_past_an_overflowing_sum_is_taken_scaled(spec):
    f = SampleFunction({(0,): 1e308, (1,): 1e308})
    assert spec.value(f) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)


@pytest.mark.parametrize(
    "spec",
    [OrliczNorm(PowerYoung(2.0)), OrliczNorm(PowerYoung(1.0)), OrliczNorm(ExpYoung()),
     EllPNorm(2.0), EllPNorm(1.0)],
)
@pytest.mark.parametrize("vals", [[1.7e308, 1.7e308], [1e308, 1e308, math.inf]])
def test_a_norm_beyond_the_float_range_raises_a_space_error(spec, vals):
    f = SampleFunction({(i,): v for i, v in enumerate(vals)})
    with pytest.raises(SpaceError, match="norm exceeds the float range"):
        spec.value(f)
