import timeit

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcodyn import domain
from wcodyn.domain import (
    AffineLatticeMap,
    DomainError,
    Region,
    aperiodicity_bound,
    disjoint_aperiodicity_bound,
    iterate_point,
)


def shift(*off):
    return AffineLatticeMap.translation(off)


def random_unimodular_map(rng, dim=2):
    # product of elementary shears and sign flips has determinant +-1
    m = AffineLatticeMap.identity(dim)
    for _ in range(3):
        a = int(rng.integers(-3, 4))
        i, j = rng.permutation(dim)[:2]
        lin = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
        lin[int(i)][int(j)] = a
        m = m.compose(AffineLatticeMap(tuple(map(tuple, lin)), (0,) * dim))
    flip = [[(-1 if r == c and rng.random() < 0.5 else (1 if r == c else 0)) for c in range(dim)] for r in range(dim)]
    off = tuple(int(v) for v in rng.integers(-5, 6, size=dim))
    return m.compose(AffineLatticeMap(tuple(map(tuple, flip)), off))


class TestIteratePoint:
    def test_repeated_unit_shift(self):
        assert iterate_point(shift(-1), 10, (0,)) == (-10,)

    def test_zero_power_is_identity(self):
        m = AffineLatticeMap(((0, 1), (-1, 0)), (3, -2))
        assert iterate_point(m, 0, (7, 9)) == (7, 9)

    def test_negative_power_matches_inverse_loop(self):
        m = shift(-1)
        x = (0,)
        for _ in range(10):
            x = m.inverse.apply(x)
        assert iterate_point(shift(-1), -10, (0,)) == x == (10,)

    @pytest.mark.parametrize("seed", range(6))
    def test_block_power_matches_stepwise(self, seed):
        rng = np.random.default_rng(seed)
        m = random_unimodular_map(rng)
        x = tuple(int(v) for v in rng.integers(-4, 5, size=2))
        fwd = x
        for n in range(1, 9):
            fwd = m.apply(fwd)
            assert iterate_point(m, n, x) == fwd
            assert iterate_point(m, -n, iterate_point(m, n, x)) == x

    def test_additivity_of_powers(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = random_unimodular_map(rng)
            x = tuple(int(v) for v in rng.integers(-4, 5, size=2))
            a, b = (int(v) for v in rng.integers(-12, 13, size=2))
            assert iterate_point(m, a + b, x) == iterate_point(m, a, iterate_point(m, b, x))


class TestMapValidation:
    def test_non_unimodular_rejected(self):
        with pytest.raises(DomainError, match="unimodular"):
            AffineLatticeMap(((2,),), (0,))

    def test_singular_rejected(self):
        with pytest.raises(DomainError, match="unimodular"):
            AffineLatticeMap(((1, 1), (1, 1)), (0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            AffineLatticeMap(((1, 0), (0, 1)), (0,))
        with pytest.raises(DomainError):
            shift(-1).apply((0, 0))
        with pytest.raises(DomainError):
            iterate_point(shift(-1), 2, (0, 0))

    def test_inverse_composes_to_identity(self):
        m = AffineLatticeMap(((1, 3), (0, 1)), (2, -7))
        both = m.compose(m.inverse)
        assert both.apply((5, 11)) == (5, 11)

    @given(st.data())
    def test_inverse_is_two_sided_in_1_to_4_dims(self, data):
        # row operations on the identity (signed permutations, shears) give
        # every unimodular matrix; the inverse is ``det * adj``
        d = data.draw(st.integers(1, 4))
        lin = [[int(r == c) for c in range(d)] for r in range(d)]
        lin = [lin[p] for p in data.draw(st.permutations(range(d)))]
        for _ in range(data.draw(st.integers(0, 6))):
            i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
            a = data.draw(st.integers(-3, 3))
            lin[i] = [-v for v in lin[i]] if i == j else [u + a * v for u, v in zip(lin[i], lin[j])]
        m = AffineLatticeMap(tuple(map(tuple, lin)), data.draw(st.tuples(*[st.integers(-9, 9)] * d)))
        eye = AffineLatticeMap.identity(d)
        assert m.compose(m.inverse) == eye == m.inverse.compose(m)

    def test_apply_many_matches_scalar(self):
        m = AffineLatticeMap(((0, -1), (1, 0)), (1, 2))
        pts = [(0, 0), (3, -4), (-2, 5)]
        out = m.apply_many(np.array(pts, dtype=np.int64))
        assert [tuple(r) for r in out] == [m.apply(p) for p in pts]

    def test_apply_many_raises_before_int64_wraps(self):
        # the 25th iterate of (1, 1) has x = 21482885521110903129 > 2**63;
        # int64 arithmetic would wrap it to 3036141447401351513
        m = AffineLatticeMap(((5, 4), (1, 1)), (0, 0))
        pts = np.array([(1, 1)], dtype=np.int64)
        with pytest.raises(DomainError, match="coordinate range"):
            for _ in range(25):
                pts = m.apply_many(pts)
        assert int(pts[0, 0]) != 3036141447401351513


# Unimodular linear parts, hyperbolic ones (|trace| > 2) included.
LINEAR_2D = [
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((-1, 0), (0, 1)),
    ((0, -1), (1, 0)),
    ((2, 1), (1, 1)),
    ((5, 4), (1, 1)),
    ((3, -1), (-2, 1)),
    ((-7, 3), (2, -1)),
]


@given(
    st.sampled_from(LINEAR_2D),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=4),
)
@settings(deadline=None, max_examples=60)
def test_apply_many_agrees_with_exact_apply_or_raises(linear, offset, start):
    m = AffineLatticeMap(linear, offset)
    pts = np.array(start, dtype=np.int64)
    exact = list(start)
    for _ in range(60):
        exact = [m.apply(p) for p in exact]
        try:
            pts = m.apply_many(pts)
        except DomainError:
            assert max(abs(c) for p in exact for c in p) > 2**31  # raised for a reason
            return
        assert [tuple(int(c) for c in row) for row in pts] == exact


class TestRegion:
    def test_box_enumerates_lattice(self):
        r = Region.box([[0, 2], [-1, 0]])
        assert len(r) == 6
        assert (1, -1) in r and (3, 0) not in r

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="non-empty"):
            Region.of([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DomainError):
            Region.of([(0,), (0, 1)])


class TestAperiodicityBound:
    def test_unit_shift_of_block(self):
        assert aperiodicity_bound(shift(-1), Region.box([[0, 9]]), 100) == 10

    def test_identity_never_separates(self):
        assert aperiodicity_bound(AffineLatticeMap.identity(1), Region.box([[0, 3]]), 20) is None

    def test_singleton(self):
        assert aperiodicity_bound(shift(-1), Region.of([(0,)]), 5) == 1

    def test_bound_reverified_by_enumeration(self):
        K = Region.box([[0, 9]])
        m = shift(-1)
        horizon = 60
        n_star = aperiodicity_bound(m, K, horizon)
        for n in range(n_star, horizon + 1):
            img = {iterate_point(m, n, p) for p in K.points}
            assert not (img & K.points)
        # minimality: the bound's predecessor still meets K
        img = {iterate_point(m, n_star - 1, p) for p in K.points}
        assert img & K.points

    def test_horizon_validation(self):
        with pytest.raises(DomainError):
            aperiodicity_bound(shift(-1), Region.of([(0,)]), 0)


class TestDisjointAperiodicityBound:
    def test_singleton_distinct_shifts(self):
        got = disjoint_aperiodicity_bound([shift(-1), shift(-2)], [1, 2], Region.of([(0,)]), 50)
        assert got == 1

    def test_equal_maps_distinct_powers(self):
        got = disjoint_aperiodicity_bound(
            [shift(-1), shift(-1)], [1, 2], Region.box([[0, 4]]), 50
        )
        assert got == 5

    def test_identity_component_never_qualifies(self):
        got = disjoint_aperiodicity_bound(
            [AffineLatticeMap.identity(1), shift(-2)], [1, 2], Region.box([[0, 2]]), 30
        )
        assert got is None

    def test_implies_per_map_aperiodicity(self):
        K = Region.box([[-2, 2]])
        maps, powers = [shift(-1), shift(-2)], [1, 2]
        horizon = 40
        M = disjoint_aperiodicity_bound(maps, powers, K, horizon)
        for m, r in zip(maps, powers):
            for n in range(M, horizon + 1):
                img = {iterate_point(m, r * n, p) for p in K.points}
                assert not (img & K.points)

    def test_needs_two_maps(self):
        with pytest.raises(DomainError):
            disjoint_aperiodicity_bound([shift(-1)], [1], Region.of([(0,)]), 10)

    def test_powers_must_increase(self):
        with pytest.raises(DomainError):
            disjoint_aperiodicity_bound([shift(-1), shift(-2)], [2, 1], Region.of([(0,)]), 10)


def enumerated_bound(maps, powers, K, horizon):
    """The bound read off the exact Python-int enumeration of the images."""
    last = domain._last_meeting_enumerated(maps, powers, K, horizon)
    return None if last == horizon else last + 1


def public_bound(maps, powers, K, horizon):
    if len(maps) == 1:
        assert powers == [1]
        return aperiodicity_bound(maps[0], K, horizon)
    return disjoint_aperiodicity_bound(maps, powers, K, horizon)


def points(d, lo=-4, hi=4):
    return st.tuples(*[st.integers(lo, hi)] * d)


@st.composite
def regions(draw, d):
    return Region.of(draw(st.lists(points(d), min_size=1, max_size=8)))


@st.composite
def powers_for(draw, n_maps):
    if n_maps == 1:
        return [1]
    return sorted(draw(st.sets(st.integers(1, 4), min_size=n_maps, max_size=n_maps)))


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_translation_bounds_equal_exact_enumeration(data):
    d = data.draw(st.integers(1, 3))
    n_maps = data.draw(st.integers(1, 3))
    maps = [shift(*data.draw(points(d, -3, 3))) for _ in range(n_maps)]  # zero drifts included
    powers = data.draw(powers_for(n_maps))
    K = data.draw(regions(d))
    horizon = data.draw(st.integers(1, 60))
    assert public_bound(maps, powers, K, horizon) == enumerated_bound(maps, powers, K, horizon)


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda r: r[0] != r[1]),
    points(2, -2, 2).filter(any),
    st.sampled_from([2, 3]),
    st.data(),
)
@settings(deadline=None, max_examples=40)
def test_colliding_scaled_drifts_never_separate(rs, c, n_maps, data):
    # r_s b_s = r_l b_l: the two images coincide at every n
    r_s, r_l = sorted(rs)
    drifts = [tuple(r_l * v for v in c), tuple(r_s * v for v in c)]
    powers = [r_s, r_l]
    if n_maps == 3:
        drifts.append(data.draw(points(2, -3, 3)))
        powers.append(r_l + 1)
    maps = [shift(*b) for b in drifts[:n_maps]]
    powers = powers[:n_maps]
    K = data.draw(regions(2))
    horizon = data.draw(st.integers(1, 40))
    got = disjoint_aperiodicity_bound(maps, powers, K, horizon)
    assert got is None
    assert got == enumerated_bound(maps, powers, K, horizon)


# Glides, shears, signed permutations, a finite-order rotation and hyperbolic
# maps (the int64 orbit overflows, so these exercise the exact fallback).
NON_TRANSLATIONS_2D = [
    ((1, 0), (0, -1)),  # with an offset along the axis: a glide
    ((-1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (-2, 1)),
    ((0, 1), (1, 0)),
    ((0, -1), (-1, 0)),
    ((-1, 0), (0, -1)),
    ((0, -1), (1, 0)),  # rotation by a quarter turn, order 4
    ((2, 1), (1, 1)),
    ((3, -1), (-2, 1)),
]


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_orbit_bounds_equal_exact_enumeration(data):
    n_maps = data.draw(st.integers(1, 3))
    linears = data.draw(
        st.lists(st.sampled_from(NON_TRANSLATIONS_2D), min_size=n_maps, max_size=n_maps)
    )
    maps = [AffineLatticeMap(lin, data.draw(points(2, -3, 3))) for lin in linears]
    if n_maps > 1 and data.draw(st.booleans()):
        maps[0] = shift(*data.draw(points(2, -2, 2)))  # translations mix with other maps
    powers = data.draw(powers_for(n_maps))
    K = data.draw(regions(2))
    horizon = data.draw(st.integers(1, 150))
    assert public_bound(maps, powers, K, horizon) == enumerated_bound(maps, powers, K, horizon)


@given(
    st.sampled_from([((-1,),), ((1,),)]),
    st.integers(-3, 3),
    st.lists(st.integers(-6, 6), min_size=1, max_size=8),
    st.integers(1, 200),
)
@settings(deadline=None, max_examples=40)
def test_one_dimensional_orbit_bounds_equal_exact_enumeration(linear, b, xs, horizon):
    m = AffineLatticeMap(linear, (b,))
    K = Region.of([(x,) for x in xs])
    assert aperiodicity_bound(m, K, horizon) == enumerated_bound([m], [1], K, horizon)


def test_quarter_turn_with_offset_returns_to_K():
    # (x, y) -> (-y + 1, x) has order 4 and a fixed point off the lattice:
    # every fourth image is K again, so no bound exists up to any horizon
    m = AffineLatticeMap(((0, -1), (1, 0)), (1, 0))
    K = Region.box([[0, 1], [0, 1]])
    assert aperiodicity_bound(m, K, 403) is None
    assert enumerated_bound([m], [1], K, 403) is None


ROTATIONS_2D = [((0, -1), (1, -1)), ((0, -1), (1, 0)), ((1, -1), (1, 0))]  # orders 3, 4, 6


@st.composite
def finite_order_linear_parts(draw, d):
    """A ``d x d`` integer matrix of finite order: a block diagonal of signs,
    swaps and the rotations of order 3, 4 and 6, conjugated by a signed
    permutation and, in 2-4 D, by an elementary shear."""
    blocks, i = [], 0
    while i < d:
        if d - i >= 2 and draw(st.booleans()):
            blocks.append(draw(st.sampled_from(ROTATIONS_2D + [((0, 1), (1, 0))])))
            i += 2
        else:
            blocks.append(((draw(st.sampled_from([1, -1])),),))
            i += 1
    B = [[0] * d for _ in range(d)]
    i = 0
    for blk in blocks:
        for r, row in enumerate(blk):
            B[i + r][i : i + len(row)] = row
        i += len(blk)
    # conjugate by a signed permutation S (S^-1 = S^T) ...
    perm = draw(st.permutations(range(d)))
    signs = [draw(st.sampled_from([1, -1])) for _ in range(d)]
    B = [[signs[r] * signs[c] * B[perm[r]][perm[c]] for c in range(d)] for r in range(d)]
    # ... and by the shear U = I + a e_i e_j^T (U^-1 = I - a e_i e_j^T)
    if d > 1:
        i, j = draw(st.permutations(range(d)))[:2]
        a = draw(st.integers(-2, 2))
        B[i] = [u + a * v for u, v in zip(B[i], B[j])]  # U B
        for row in B:
            row[j] -= a * row[i]  # (U B) U^-1
    return tuple(map(tuple, B))


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_finite_order_bounds_equal_exact_enumeration(data):
    # signed permutations, glides, rotations of order 3, 4 and 6, powers 1-3,
    # non-commuting pairs and translations mixed in, in 1-4 D
    d = data.draw(st.integers(1, 4))
    n_maps = data.draw(st.integers(1, 3))
    maps = [
        AffineLatticeMap(data.draw(finite_order_linear_parts(d)), data.draw(points(d, -3, 3)))
        for _ in range(n_maps)
    ]
    if n_maps > 1 and data.draw(st.booleans()):
        maps[data.draw(st.integers(0, n_maps - 1))] = shift(*data.draw(points(d, -2, 2)))
    powers = [1] if n_maps == 1 else sorted(
        data.draw(st.sets(st.integers(1, 3), min_size=n_maps, max_size=n_maps))
    )
    K = Region.of(data.draw(st.lists(points(d, -3, 3), min_size=1, max_size=8)))
    horizon = data.draw(st.integers(1, 120))
    assert public_bound(maps, powers, K, horizon) == enumerated_bound(maps, powers, K, horizon)


@st.composite
def far_or_sparse_regions(draw, d):
    """Up to 8 points around one centre near and beyond ``+-2**63`` (in some
    coordinates), or around up to three centres spread up to ``10**6``."""
    if draw(st.booleans()):
        edge = st.sampled_from([-(2**63), 2**63]).flatmap(lambda e: st.integers(e - 40, e + 40))
        centres = [draw(st.tuples(*[edge | st.integers(-3, 3)] * d))]
    else:
        centres = draw(st.lists(points(d, -(10**6), 10**6), min_size=1, max_size=3))
    pts = []
    for off in draw(st.lists(points(d, -3, 3), min_size=1, max_size=8)):
        pts.append(tuple(c + o for c, o in zip(draw(st.sampled_from(centres)), off)))
    return Region.of(pts)


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_finite_order_bounds_far_out_or_sparse_equal_exact_enumeration(data):
    # translations, glides, signed permutations and rotations of order 3, 4
    # and 6 on coordinates int64 cannot hold, or far apart: the residue
    # classes are decided in Python ints at any size and spread
    d = data.draw(st.integers(1, 4))
    n_maps = data.draw(st.integers(1, 3))
    maps = [
        AffineLatticeMap(data.draw(finite_order_linear_parts(d)), data.draw(points(d, -3, 3)))
        for _ in range(n_maps)
    ]
    if data.draw(st.booleans()):
        maps[data.draw(st.integers(0, n_maps - 1))] = shift(*data.draw(points(d, -3, 3)))
    powers = data.draw(powers_for(n_maps))
    K = data.draw(far_or_sparse_regions(d))
    horizon = data.draw(st.integers(1, 40))
    assert public_bound(maps, powers, K, horizon) == enumerated_bound(maps, powers, K, horizon)


def test_finite_order_bounds_beyond_int64_use_neither_int64_nor_enumeration(monkeypatch):
    m = shift(1)
    K = Region.of([(2**63 + 5,)])
    want = enumerated_bound([m], [1], K, 10**3)

    def fail(*args):
        raise AssertionError("int64 path or enumeration used")

    monkeypatch.setattr(domain, "_last_meeting_enumerated", fail)
    monkeypatch.setattr(domain._RowIndex, "find", fail)
    monkeypatch.setattr(AffineLatticeMap, "apply_many", fail)
    assert aperiodicity_bound(m, K, 10**3) == aperiodicity_bound(m, K, 10**12) == want == 1


@pytest.mark.parametrize("far, bound", [(10**6 + 1, 1), (10**6, 500_001)])
def test_translation_bound_cost_does_not_grow_with_the_shift_range(far, bound):
    # the shift by 2 leaves up to 500000 candidate steps between the two
    # points; they lie on different lines of step 2, or meet at the last one
    K = Region.of([(0,), (far,)])
    assert aperiodicity_bound(shift(2), K, 10**7) == bound
    best = min(timeit.repeat(lambda: aperiodicity_bound(shift(2), K, 10**7), number=1, repeat=3))
    assert best < 5e-3


def test_finite_order_bounds_do_not_walk_the_orbit(monkeypatch):
    # the quarter turn (x, y) -> (1 - y, x) returns K every fourth step and
    # the glide (x, y) -> (x + 1, -y) squares to a translation: both are
    # decided per residue class, so a horizon of 10**12 costs what 403 does
    def no_walk(*args):
        raise AssertionError("orbit walked")

    monkeypatch.setattr(domain, "_last_meeting_orbits", no_walk)
    K = Region.box([[0, 1], [0, 1]])
    turn = AffineLatticeMap(((0, -1), (1, 0)), (1, 0))
    glide = AffineLatticeMap(((1, 0), (0, -1)), (1, 0))
    for horizon in (403, 10**12):
        assert aperiodicity_bound(turn, K, horizon) is None
        assert aperiodicity_bound(glide, K, horizon) == 2
        assert disjoint_aperiodicity_bound([glide, turn], [1, 2], K, horizon) is None
    assert enumerated_bound([turn], [1], K, 403) is None
    assert enumerated_bound([glide], [1], K, 403) == 2
    assert enumerated_bound([glide, turn], [1, 2], K, 403) is None


def test_hyperbolic_map_falls_back_to_exact_enumeration(monkeypatch):
    m = AffineLatticeMap(((2, 1), (1, 1)), (0, 0))
    K = Region.box([[0, 4], [0, 4]])
    calls = []
    exact = domain._last_meeting_enumerated

    def spy(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(domain, "_last_meeting_enumerated", spy)
    # the origin is fixed, so every image meets K; the int64 orbit overflows
    assert aperiodicity_bound(m, K, 300) is None
    assert len(calls) == 1


def test_translation_bounds_do_not_grow_with_the_horizon():
    # a translation meets K only while n max|v| fits in K's extent, so the
    # walk stops there and a horizon of 10**12 costs what a small one does
    assert aperiodicity_bound(shift(-1), Region.box([[0, 9]]), 10**12) == 10
    maps, powers = [shift(-1, 2), shift(3, -1), shift(1, 1)], [1, 2, 3]
    K = Region.box([[0, 3], [0, 3]])
    small = disjoint_aperiodicity_bound(maps, powers, K, 50)
    assert small is not None
    assert small == enumerated_bound(maps, powers, K, 50)
    assert disjoint_aperiodicity_bound(maps, powers, K, 10**12) == small
    # a zero drift meets K at every n, whatever the horizon
    assert aperiodicity_bound(shift(0, 0), Region.box([[0, 1], [0, 1]]), 10**12) is None


@pytest.mark.parametrize(
    "maps, powers",
    [
        ([shift(-1)], [1]),
        ([shift(-1), shift(1)], [1, 2]),
        ([shift(-1), AffineLatticeMap(((-1,),), (3,))], [1, 2]),
    ],
    ids=["shift", "opposite-shifts", "shift-and-reflection"],
)
def test_large_region_bounds_equal_exact_enumeration(maps, powers):
    # 10001 points: the orbit blocks and the pairwise test stay linear in |K|
    K = Region.box([[-5000, 5000]])
    assert public_bound(maps, powers, K, 20) == enumerated_bound(maps, powers, K, 20)


@pytest.mark.parametrize("centre", [2**62 - 2**20, 2**62 + 5], ids=["below", "above"])
@pytest.mark.parametrize(
    "maps, powers",
    [
        ([shift(-1)], [1]),
        ([shift(-1), shift(1)], [1, 2]),
        ([AffineLatticeMap(((-1,),), (3,))], [1]),
        ([shift(-1), AffineLatticeMap(((-1,),), (2**63 - 1,))], [1, 2]),
    ],
    ids=["shift", "opposite-shifts", "reflection", "shift-and-far-reflection"],
)
def test_bounds_near_2_62_equal_exact_enumeration(maps, powers, centre):
    # int64 holds these coordinates; the orbit runs in int64 wherever
    # apply_many and _RowIndex accept its arithmetic, else falls back
    K = Region.box([[centre - 3, centre + 3]])
    assert public_bound(maps, powers, K, 40) == enumerated_bound(maps, powers, K, 40)


# ---------------------------------------------------------------------------
# Orbit blocks from the cached power table

CAT = ((2, 1), (1, 1))


@st.composite
def unimodular_linear_parts(draw):
    """A unimodular matrix in 1-4 D: a product of elementary shears, sign
    flips and a permutation, or in 2-D the cat map or ``[[1,0],[9,-1]]``."""
    d = draw(st.integers(1, 4))
    if d == 2 and draw(st.booleans()):
        return draw(st.sampled_from([CAT, ((1, 0), (9, -1))]))
    lin = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 3)) if d > 1 else 0):
        i, j = draw(st.permutations(range(d)))[:2]
        a = draw(st.integers(-3, 3))
        lin[i] = [u + a * v for u, v in zip(lin[i], lin[j])]
    perm = draw(st.permutations(range(d)))
    signs = [draw(st.sampled_from([1, -1])) for _ in range(d)]
    return tuple(tuple(signs[i] * v for v in lin[perm[i]]) for i in range(d))


@given(unimodular_linear_parts(), st.data())
@settings(deadline=None, max_examples=80)
def test_orbit_block_equals_successive_apply_many_or_raises(linear, data):
    d = len(linear)
    coord = st.one_of(st.integers(-9, 9), st.integers(-(2**62), 2**62))
    m = AffineLatticeMap(linear, data.draw(st.tuples(*[coord] * d)))
    X = np.array(data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=4)), dtype=np.int64)
    length = data.draw(st.sampled_from([1, 2, 3, 7, 44, 45, 64, 100]))
    try:
        block = domain._orbit_block(m, X, length)
    except DomainError:
        block = None
    pts = X
    for i in range(length):
        try:
            pts = m.apply_many(pts)
        except DomainError:
            assert block is None
            return
        if block is not None:
            assert block[i].tolist() == pts.tolist()
    if block is None:
        # raised for a reason: a power m^j, j <= length, lies outside the
        # int64 range, or the guard at X with the largest row L1 norm and
        # offset among those powers fails
        powers, p = [], m
        for _ in range(length):
            powers.append(p)
            p = m.compose(p)
        row_l1 = max(sum(map(abs, row)) for q in powers for row in q.linear)
        max_off = max(abs(c) for q in powers for c in q.offset)
        reach = int(np.abs(X).astype(object).max()) * row_l1 + max_off
        assert max(row_l1, max_off, reach) > 2**62


def test_cat_map_table_is_built_once_and_stops_at_its_int64_edge(monkeypatch):
    # the row L1 norm of the n-th power of the cat map is the Fibonacci
    # number F(2n + 2), at most 2**62 up to n = 44
    m = AffineLatticeMap(CAT, (1, 0))
    X = np.array([(0, 0), (1, -1)], dtype=np.int64)
    with pytest.raises(DomainError, match="coordinate range"):
        domain._orbit_block(m, X, 64)
    table = m._table
    assert table.edge and len(table.lin) == len(table.off) == len(table.reach) == 44
    builds = []
    keep = domain._PowerTable._keep
    monkeypatch.setattr(domain._PowerTable, "_keep", lambda *a: builds.append(a) or keep(*a))
    with pytest.raises(DomainError, match="coordinate range"):
        domain._orbit_block(m, X, 45)
    block = domain._orbit_block(m, X, 44)
    assert m._table is table and builds == []
    pts = X
    for row in block:
        pts = m.apply_many(pts)
        assert row.tolist() == pts.tolist()


def _find_by_row_reductions(index, rows):
    """``_RowIndex.find`` with the box test and the key reduced along each
    row, as they were written before the column fold."""
    lo, hi, strides = (np.array(a, dtype=np.int64) for a in (index.lo, index.hi, index.strides))
    inside = np.flatnonzero(((rows >= lo) & (rows <= hi)).all(axis=1))
    key = (rows[inside] - lo) @ strides
    pos = np.minimum(np.searchsorted(index.keys, key), len(index.keys) - 1)
    on = index.keys[pos] == key
    return inside[on], pos[on]


@given(st.integers(1, 4), st.data())
@settings(deadline=None, max_examples=150)
def test_row_index_find_matches_row_reductions(d, data):
    base = data.draw(st.tuples(*[st.integers(-(2**62), 2**62) | st.integers(-9, 9)] * d))
    near = st.tuples(*[st.integers(-3, 3)] * d)
    offsets = data.draw(st.lists(near, min_size=1, max_size=10))
    pts = {tuple(b + o for b, o in zip(base, off)) for off in offsets}
    index = domain._RowIndex(sorted(pts))
    # rows in the set, near it (outside the box too) and anywhere in int64
    anywhere = st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * d)
    queries = data.draw(st.lists(
        st.sampled_from(sorted(pts))
        | near.map(lambda off: tuple(b + 2 * o for b, o in zip(base, off)))
        | anywhere,
        min_size=1, max_size=20,
    ))
    queries = [q for q in queries if all(-(2**63) <= c < 2**63 for c in q)]
    rows = np.array(queries, dtype=np.int64).reshape(-1, d)
    got, want = index.find(rows), _find_by_row_reductions(index, rows)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    assert [tuple(rows[i]) for i in got[0]] == [sorted(pts)[p] for p in got[1]]


@pytest.mark.parametrize("c", [2**63 - 1, -(2**63)])
def test_int64_rows_take_both_ends_of_int64(c):
    rows = domain._int64_rows([(c, 0), (1, c)])
    assert rows.dtype == np.int64 and rows.tolist() == [[c, 0], [1, c]]


@pytest.mark.parametrize("c", [2**63, -(2**63) - 1, 2**200])
def test_int64_rows_refuse_a_coordinate_past_int64(c):
    with pytest.raises(DomainError, match="does not fit in int64"):
        domain._int64_rows([(0, 0), (1, c)])


def _product_block(m, X, length):
    """The orbit block as one broadcast product with every power of ``m``,
    checked at every step: the form of ``_orbit_block`` before the powers of
    a finite-order map were reused."""
    lin, off, row_l1, max_off = m._table.powers(length)
    domain._check_range(X, row_l1, max_off)
    out = X @ lin.transpose(0, 2, 1) + off[:, None]
    domain._check_range(out[:-1], *m._table.reach[0].tolist())
    return out


@st.composite
def orbit_block_cases(draw):
    """A map in 1-3 D (a translation; a glide, signed permutation or rotation
    of order 3, 4 or 6 from ``finite_order_linear_parts``; or a shear), a
    block length, and rows ``X`` that are small or hold one coordinate at
    about the a-priori guard of the block, where each step is checked."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["translation", "finite order", "shear"][: 3 if d > 1 else 2]))
    linear = [[int(i == j) for j in range(d)] for i in range(d)]
    if kind == "finite order":
        linear = draw(finite_order_linear_parts(d))
    elif kind == "shear":
        i, j = draw(st.permutations(range(d)))[:2]
        linear[i][j] = draw(st.sampled_from([-2, -1, 1, 3]))
    m = AffineLatticeMap(linear, draw(st.tuples(*[st.integers(-5, 5)] * d)))
    length = draw(st.sampled_from([2, 3, 4, 5, 7, 12, 13, 64]))
    X = np.array(draw(st.lists(st.tuples(*[st.integers(-9, 9)] * d), min_size=1, max_size=4)))
    if draw(st.booleans()):
        _, _, row_l1, max_off = m._table.powers(length)
        edge = (2**62 - max_off) // row_l1  # the largest |x| the guard lets through
        slack = draw(st.integers(-2, 2) | st.integers(0, edge // 2))
        i, c = draw(st.integers(0, len(X) - 1)), draw(st.integers(0, d - 1))
        X[i, c] = draw(st.sampled_from([1, -1])) * (edge - slack)
    return m, X.astype(np.int64), length


@given(orbit_block_cases())
@settings(deadline=None, max_examples=200)
def test_orbit_block_equals_the_product_block_and_successive_apply_many(case):
    m, X, length = case
    try:
        want = _product_block(m, X, length)
    except DomainError:
        want = None
    try:
        got = domain._orbit_block(m, X, length)
    except DomainError:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tolist() == want.tolist()
        pts = X
        for row in got:
            pts = m.apply_many(pts)
            assert row.tolist() == pts.tolist()


def test_orbit_block_checks_each_step_only_where_the_block_guard_does_not_prove_it(
    monkeypatch,
):
    checked = []
    check = domain._check_range
    monkeypatch.setattr(domain, "_check_range", lambda pts, *a: checked.append(len(pts)) or check(pts, *a))
    m = AffineLatticeMap.translation((1, 0))
    assert domain._orbit_block(m, np.array([(3, -4)]), 8).tolist() == [
        [[3 + j, -4]] for j in range(1, 9)
    ]
    assert checked == [1]
    checked.clear()
    X = np.array([(2**62 - 8, 0)])  # m^8(X) is at the guard, so m^9 is not
    block = domain._orbit_block(m, X, 8)
    assert checked == [1, 7] and block[-1].tolist() == [[2**62, 0]]


def test_power_table_learns_the_period_only_for_a_block_of_several_steps():
    X = np.array([(1, 2), (-3, 0)])
    quarter_turn = AffineLatticeMap(((0, -1), (1, 0)), (1, 0))
    for m, period in ((shift(2, -1), 1), (quarter_turn, 4), (AffineLatticeMap(CAT, (1, 0)), None)):
        domain._orbit_block(m, X, 1)
        m.apply_many(X)
        assert "period" not in vars(m._table)
        block = domain._orbit_block(m, X, 30)
        assert m._table.period == period
        assert block.tolist() == _product_block(m, X, 30).tolist()
