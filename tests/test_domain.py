import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_inverse_composes_to_identity(self):
        m = AffineLatticeMap(((1, 3), (0, 1)), (2, -7))
        both = m.compose(m.inverse)
        assert both.apply((5, 11)) == (5, 11)

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
