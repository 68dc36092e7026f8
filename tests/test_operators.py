import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcodyn.criteria import _walk_point
from wcodyn.domain import _BLOCK_CELLS, AffineLatticeMap, DomainError, Region
from wcodyn.operators import (
    OperatorError,
    WeightedCompositionOperator,
    apply,
    apply_inverse,
    iterate,
    iterate_log,
    operator_norm_bound,
)
from wcodyn.spaces import (
    ConstantWeight,
    EllPNorm,
    ProductWeight,
    RadialPowerWeight,
    SampleFunction,
    TableWeight,
    WeightError,
    norm,
    weighted_norm,
)


def chi(*pts):
    return SampleFunction.indicator([(p,) for p in pts])


def make_op(offset=-1, w=1.0, region=None):
    region = region or Region.box([[-8, 8]])
    return WeightedCompositionOperator(
        AffineLatticeMap.translation((offset,)), ConstantWeight(w), region
    )


class TestApply:
    def test_unit_symbol_moves_bump(self):
        assert apply(make_op(), chi(0)) == chi(1)

    def test_identity_map(self):
        op = make_op(offset=0)
        f = SampleFunction({(0,): 1.0, (4,): -2.0})
        assert apply(op, f) == f

    def test_symbol_scales(self):
        got = apply(make_op(w=2.0), chi(0))
        assert got == SampleFunction({(1,): 2.0})

    def test_linearity_exact(self):
        op = make_op(w=3.0)
        f, g = chi(0, 2), chi(1)
        lhs = apply(op, 2 * f + (-0.5) * g)
        rhs = 2 * apply(op, f) + (-0.5) * apply(op, g)
        assert lhs == rhs


class TestApplyInverse:
    def test_inverse_contract(self):
        rng = np.random.default_rng(11)
        op = make_op(w=1.7)
        f = SampleFunction({(int(i),): v for i, v in zip(rng.integers(-5, 6, 5), rng.normal(size=5))})
        back = apply(op, apply_inverse(op, f))
        assert back.support == f.support
        for pt, v in f.items():
            assert back[pt] == pytest.approx(v, abs=1e-12)

    def test_unit_symbol_pullback(self):
        assert apply_inverse(make_op(), chi(0)) == chi(-1)

    def test_symbol_divides(self):
        got = apply_inverse(make_op(w=2.0), chi(1))
        assert got == SampleFunction({(0,): 0.5})


class TestIterate:
    def test_empty_power_is_identity(self):
        f = chi(0, 3)
        assert iterate(make_op(w=2.0), 0, f) == f

    def test_matches_double_apply(self):
        op = make_op(w=2.0)
        assert iterate(op, 2, chi(0)) == apply(op, apply(op, chi(0)))
        got = iterate(op, 2, chi(0))
        assert got == SampleFunction({(2,): 4.0})

    def test_negative_matches_double_inverse(self):
        op = make_op(w=2.0)
        want = apply_inverse(op, apply_inverse(op, chi(2)))
        got = iterate(op, -2, chi(2))
        assert got.support == want.support == {(0,)}
        assert got[(0,)] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_agrees_with_nfold_apply(self, n):
        table = TableWeight({(x,): 1.0 + 0.1 * (x % 5) for x in range(-40, 40)})
        op = WeightedCompositionOperator(
            AffineLatticeMap.translation((-1,)), table, Region.box([[-8, 8]])
        )
        rng = np.random.default_rng(n)
        f = SampleFunction({(int(i),): complex(a, b) for i, a, b in
                            zip(rng.integers(-5, 6, 4), rng.normal(size=4), rng.normal(size=4))})
        fwd = f
        for _ in range(n):
            fwd = apply(op, fwd)
        got = iterate(op, n, f)
        assert got.support == fwd.support
        for pt, v in fwd.items():
            assert got[pt] == pytest.approx(v, rel=1e-9)
        bwd = f
        for _ in range(n):
            bwd = apply_inverse(op, bwd)
        gotb = iterate(op, -n, f)
        assert gotb.support == bwd.support
        for pt, v in bwd.items():
            assert gotb[pt] == pytest.approx(v, rel=1e-9)

    def test_semigroup_mixed_signs(self):
        op = make_op(w=1.3)
        f = chi(0, 1)
        lhs = iterate(op, 5 - 3, f)
        rhs = iterate(op, 5, iterate(op, -3, f))
        assert lhs.support == rhs.support
        for pt, v in lhs.items():
            assert rhs[pt] == pytest.approx(v, rel=1e-9)

    def test_log_magnitude_growth(self):
        op = make_op(w=2.0)
        logs = iterate_log(op, 2000, chi(0))
        (pt, (mag, phase)), = logs.items()
        assert pt == (2000,)
        assert mag == pytest.approx(2000 * math.log(2.0), abs=1e-9)
        assert phase == 1.0

    def test_overflowing_iterate_is_reported(self):
        op = make_op(w=2.0)
        with pytest.raises(OperatorError, match="iterate_log"):
            iterate(op, 2000, chi(0))


class TestConjugationIdentities:
    """On the unweighted space the norm of an iterate equals the norm of the
    weight product pinned to the original support."""

    def _setup(self):
        table = TableWeight({(x,): 1.0 + 0.2 * ((x + 100) % 7) for x in range(-120, 120)})
        op = WeightedCompositionOperator(
            AffineLatticeMap.translation((-1,)), table, Region.box([[-8, 8]])
        )
        rng = np.random.default_rng(5)
        f = SampleFunction({(int(i),): v for i, v in zip(rng.integers(-6, 7, 5), rng.normal(size=5))})
        return op, f

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_forward(self, n):
        op, f = self._setup()
        spec = EllPNorm(2)
        lhs = norm(spec, iterate(op, n, f))
        prod = {}
        for pt, v in f.items():
            acc = 1.0
            q = pt
            for _ in range(n):
                q = op.map.inverse.apply(q)
                acc *= op.symbol.value_at(q)
            prod[pt] = v * acc
        rhs = norm(spec, SampleFunction(prod))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_backward(self, n):
        op, f = self._setup()
        spec = EllPNorm(2)
        lhs = norm(spec, iterate(op, -n, f))
        prod = {}
        for pt, v in f.items():
            acc = 1.0
            q = pt
            for _ in range(n):
                acc /= op.symbol.value_at(q)
                q = op.map.apply(q)
            prod[pt] = v * acc
        rhs = norm(spec, SampleFunction(prod))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestNormBound:
    def test_unit_everything(self):
        got = operator_norm_bound(make_op(), ConstantWeight(1.0), Region.box([[-5, 5]]))
        assert got == 1.0

    def test_doubling_symbol_with_radial_weight(self):
        got = operator_norm_bound(
            make_op(w=2.0), RadialPowerWeight(p=1), Region.box([[-5, 5]])
        )
        assert got == pytest.approx(4.0, rel=1e-12)

    def test_bound_holds_on_random_functions(self):
        eta = RadialPowerWeight(p=1)
        region = Region.box([[-9, 9]])
        op = make_op(w=2.0, region=region)
        bound = operator_norm_bound(op, eta, region)
        spec = EllPNorm(1)
        rng = np.random.default_rng(23)
        for _ in range(50):
            f = SampleFunction(
                {(int(i),): v for i, v in zip(rng.integers(-6, 7, 4), rng.normal(size=4))}
            )
            assert weighted_norm(spec, eta, apply(op, f)) <= bound * weighted_norm(
                spec, eta, f
            ) * (1 + 1e-12)

    def test_symbol_must_be_bounded_away_from_zero(self):
        tiny = TableWeight({(0,): 1.0}, default=None)
        with pytest.raises(Exception):
            WeightedCompositionOperator(
                AffineLatticeMap.translation((-1,)), tiny, Region.box([[-2, 2]])
            )


# ---------------------------------------------------------------------------
# The block walk against the step-by-step walk (bit for bit) and the exact
# scalar walk of criteria._walk_point (points exactly, log-sums to rounding)

HYPERBOLIC_2D = [((2, 1), (1, 1)), ((5, 4), (1, 1)), ((3, -1), (-2, 1))]


@st.composite
def linear_parts(draw):
    kind = draw(st.sampled_from(["translation", "glide", "shear", "signed permutation", "hyperbolic"]))
    d = draw(st.integers(2 if kind in ("shear", "hyperbolic") else 1, 3))
    lin = [[int(i == j) for j in range(d)] for i in range(d)]
    if kind == "glide":
        lin[0][0] = -1
    elif kind == "shear":
        i, j = draw(st.permutations(range(d)))[:2]
        lin[i][j] = draw(st.integers(-9, 9))
        lin[i][i] = draw(st.sampled_from([1, -1]))  # with -1: [[1, 0], [c, -1]]^2 = I
    elif kind == "signed permutation":
        perm = draw(st.permutations(range(d)))
        lin = [[draw(st.sampled_from([1, -1])) * int(j == perm[i]) for j in range(d)] for i in range(d)]
    elif kind == "hyperbolic":
        (a, b), (c, e) = draw(st.sampled_from(HYPERBOLIC_2D))
        lin[0][:2], lin[1][:2] = [a, b], [c, e]
    return lin


def symbols(d):
    constant = st.floats(0.25, 4.0).map(ConstantWeight)
    radial = st.builds(RadialPowerWeight, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 3.0]))
    table = st.dictionaries(
        st.tuples(*[st.integers(-6, 6)] * d), st.floats(0.25, 4.0), min_size=1, max_size=20
    ).map(lambda t: TableWeight(t, default=1.5))
    one = st.one_of(constant, radial, table)
    return st.one_of(one, st.lists(one, min_size=2, max_size=3).map(lambda f: ProductWeight(tuple(f))))


@st.composite
def walk_cases(draw):
    lin = draw(linear_parts())
    d = len(lin)
    offset = draw(st.tuples(*[st.integers(-3, 3)] * d))
    op = WeightedCompositionOperator(
        AffineLatticeMap(tuple(map(tuple, lin)), offset), draw(symbols(d)), Region.box([[-2, 2]] * d)
    )
    coord = st.one_of(st.integers(-6, 6), st.integers(-(2**62), 2**62))
    start = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=4))
    B = _BLOCK_CELLS // (len(start) * d)  # the longest block of this walk
    steps = draw(st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 3]))
    acc = np.full(len(start), draw(st.floats(-100, 100)))  # a carried log-sum
    return op, start, acc, steps, draw(st.booleans())


def _stepwise(op, pts, acc, steps, backward):
    """One ``apply_many`` and one ``log_values`` per step: the walk the
    blocks must reproduce bit for bit."""
    mp = op.map.inverse if backward else op.map
    for _ in range(steps):
        if not backward:
            acc = acc + op.symbol.log_values(pts)
        pts = mp.apply_many(pts)
        if backward:
            acc = acc + op.symbol.log_values(pts)
        yield pts, acc


@given(walk_cases())
@settings(deadline=None, max_examples=60)
def test_block_walk_matches_the_step_by_step_walk_bit_for_bit(case):
    op, start, acc0, steps, backward = case
    mp = op.map.inverse if backward else op.map
    row_l1 = max(sum(map(abs, row)) for row in mp.linear)
    max_off = max(map(abs, mp.offset))
    rows = np.array(start, dtype=np.int64)
    got = []
    try:
        for P, A in op.walk_blocks(rows, acc0, steps, backward):
            got += zip(P, A)
    except DomainError:
        raised = True
    else:
        raised = False
    stepwise = _stepwise(op, rows, acc0, steps, backward)
    exact = [tuple(p) for p in start]
    scalar = list(acc0)
    for i in range(steps):
        # the single-step guard of apply_many, on the exact orbit
        if max(abs(c) for p in exact for c in p) * row_l1 + max_off > 2**62:
            assert raised and len(got) == i
            with pytest.raises(DomainError):
                next(stepwise)
            break
        moved = [_walk_point(op, p, 1, backward) for p in exact]
        exact = [p for p, _ in moved]
        scalar = [a + b for a, (_, b) in zip(scalar, moved)]
        want_pts, want_acc = next(stepwise)
        P, A = got[i]
        assert [tuple(int(c) for c in row) for row in P] == exact
        assert [tuple(int(c) for c in row) for row in want_pts] == exact
        assert [float(a).hex() for a in A] == [float(a).hex() for a in want_acc]
        # the scalar walk takes log(w(x)) where the arrays may take the log
        # of the formula, so the sums agree to rounding only
        assert A == pytest.approx(scalar, rel=1e-12, abs=1e-12 * (i + 1))
    else:
        assert not raised and len(got) == steps
        if steps:
            pts, acc = rows.copy(), acc0.copy()
            op.walk(pts, acc, steps, backward)
            assert (pts == got[-1][0]).all() and [a.hex() for a in acc] == [
                a.hex() for a in got[-1][1]
            ]


def test_block_walk_raises_at_the_step_where_a_single_step_overflows():
    # m = [[1, 0], [9, -1]] + (1, 0) squares to the translation by (2, 9).
    # From this start the guard of m holds at the first three points of the
    # orbit and fails at the fourth, where the guard of m^2 still holds: the
    # walk must raise at step 4, as a step-by-step walk does, not run on.
    m = AffineLatticeMap(((1, 0), (9, -1)), (1, 0))
    op = WeightedCompositionOperator(m, ConstantWeight(2.0), Region.box([[-2, 2]] * 2))
    start = np.array([((2**62 - 1) // 90, 0)], dtype=np.int64)
    got = []
    with pytest.raises(DomainError, match="coordinate range"):
        for P, _ in op.walk_blocks(start, np.zeros(1), 50):
            got += list(P)
    assert len(got) == 3
    with pytest.raises(DomainError):
        m.apply_many(got[2])
    lin, off, _, _ = m._table.powers(2)
    m2 = AffineLatticeMap(lin[1].tolist(), off[1].tolist())
    assert m2 == AffineLatticeMap.translation((2, 9))
    m2.apply_many(got[2])  # the power alone would have gone on


def test_block_walk_raises_the_table_error_of_the_step_that_leaves_the_table():
    table = TableWeight({(x,): 1.0 + 0.1 * (x % 3) for x in range(-30, 31)})
    op = WeightedCompositionOperator(AffineLatticeMap.translation((1,)), table, Region.box([[-2, 2]]))
    start = np.array([(0,), (1,)], dtype=np.int64)
    got = []
    with pytest.raises(WeightError, match=r"no value at \(31,\)") as err:
        for P, A in op.walk_blocks(start, np.zeros(2), 100):
            got += list(P)
    assert len(got) == 30 and err.value.points == ((31,),)
