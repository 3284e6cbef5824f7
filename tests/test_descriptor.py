import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicriticals.descriptor import (
    Center,
    ModificationDescriptor,
    SpecialRow,
    TailData,
    ValuationMatrix,
    default_curvette_mults,
    inverse_orders,
    leading_principal_minors,
    low_sets,
    make_descriptor,
    pullback_orders,
    special_matrix,
    special_rows,
    validate_descriptor,
    valuation_matrix,
)
from dicriticals.errors import DescriptorError, MatrixError, ScenarioError
from dicriticals.linalg import leading_minors, solve_row_system
from helpers import random_descriptor

THREE_POINTS = dict(parent_sets=[[], [1], [1, 2]])


def three_points():
    return make_descriptor(3, **THREE_POINTS, special_mults={1: (2, 2), 2: (3, 2)})


def test_validate_accepts_three_points():
    assert validate_descriptor(three_points()) == []


def test_validate_minimal_chain():
    assert validate_descriptor(make_descriptor(3, [[]])) == []


def violation_codes(build, *args, **kwargs) -> set[str]:
    """The violation codes of the descriptor ``build(*args, **kwargs)`` fails to construct."""
    with pytest.raises(DescriptorError) as caught:
        build(*args, **kwargs)
    return {v.code for v in caught.value.violations}


def test_validate_flags_empty_parents():
    assert "empty-parents" in violation_codes(make_descriptor, 3, [[], [1], []])


def test_validate_flags_bad_self_multiplicity():
    assert "unit-self-mult" in violation_codes(make_descriptor, 3, [[], [1]], curvette_mults=[(1,), (1, 2)])


def test_validate_tail_requirements():
    tail = TailData(s=1, mu_curvettes={2: {}}, mu_specials={})
    assert "tail-self" in violation_codes(make_descriptor, 3, [[], [1]], tail=tail)


def test_validate_flags_parent_order_and_repeated_specials():
    def centers(*parents):
        return tuple(Center(0, p, (1,) * j) for j, p in enumerate(parents, start=1))

    for parents in ((2, 1), (1, 1, 2)):
        assert violation_codes(ModificationDescriptor, 3, 3, centers((), (1,), parents)) == {"parent-order"}
    twice = (SpecialRow(1, (2, 2)), SpecialRow(2, (3, 2)), SpecialRow(1, (9, 9)))
    assert violation_codes(ModificationDescriptor, 3, 3, centers((), (1,), (1, 2)), twice) == {"special-twice"}


def test_validate_flags_a_first_center_inside_a_divisor_and_a_special_owner_out_of_range():
    inside = (Center(0, (1,), (1,)), Center(0, (1,), (1, 1)))
    assert "first-center" in violation_codes(ModificationDescriptor, 3, 2, inside)
    assert "special-owner" in violation_codes(make_descriptor, 3, [[], [1]], special_mults={3: (1, 1)})


@pytest.mark.parametrize(
    "tail, code",
    [
        (TailData(s=4), "tail-index"),
        (TailData(s=1, mu_curvettes={2: {2: 1, 4: 1}}), "tail-range"),
        (TailData(s=2, mu_curvettes={3: {3: 1}}, mu_specials={3: {2: 1}}), "tail-special-owner"),
        (TailData(s=2, mu_curvettes={3: {3: 1}}, mu_specials={3: {1: 0}}), "tail-special-positive"),
        (TailData(s=1, mu_curvettes={2: {2: 1, 3: 0}, 3: {3: 1}}), "tail-positive"),
    ],
)
def test_validate_flags_tail_violations(tail, code):
    assert code in violation_codes(make_descriptor, 3, THREE_POINTS["parent_sets"], tail=tail)


def test_validate_flags_a_tail_special_that_avoids_the_low_divisors_and_a_negative_special_entry():
    tail = TailData(s=2, mu_curvettes={3: {3: 1}}, mu_specials={3: {1: 1}})
    assert "tail-low" in violation_codes(make_descriptor, 3, [[], [1], [2]], tail=tail)
    assert "special-negative" in violation_codes(make_descriptor, 3, [[], [1]], special_mults={1: (-1,)})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: pullback_orders(d, (1, -1, 0)), "^strict-transform multiplicities must be nonnegative$"),
        (lambda d: special_rows(d, 4, {}), r"^index 4 out of range 1\.\.3$"),
        (lambda d: low_sets(d, 0), r"^index 0 out of range 1\.\.3$"),
    ],
    ids=["pullback-negative", "special-rows-index", "low-sets-index"],
)
def test_the_order_tables_reject_bad_arguments(call, message):
    with pytest.raises(DescriptorError, match=message):
        call(three_points())


def test_with_tail_checks_the_tail_alone_and_keeps_the_cached_tables():
    d = make_descriptor(3, THREE_POINTS["parent_sets"])
    rows = d.curvette_mults
    tail = TailData(s=2, mu_curvettes={3: {3: 1}})
    carried = d.with_tail(tail)
    assert carried == make_descriptor(3, THREE_POINTS["parent_sets"], tail=tail)
    assert carried.tail is tail and d.tail is None and carried.curvette_mults is rows
    for bad in (TailData(s=4), TailData(s=1, mu_curvettes={2: {2: 1, 4: 1}})):
        built = violation_codes(make_descriptor, 3, THREE_POINTS["parent_sets"], tail=bad)
        assert violation_codes(d.with_tail, bad) == built


def test_make_descriptor_needs_one_multiplicity_row_per_center():
    for rows in ([(1,)], [(1,), (1, 1), (1, 1, 1)]):
        with pytest.raises(DescriptorError):
            make_descriptor(3, [[], [1]], curvette_mults=rows)


def test_derived_views_are_computed_once_and_read_only():
    d = three_points()
    assert d.curvette_mults is d.curvette_mults and d.special_mults is d.special_mults
    assert d.curvette_mults == ((1,), (1, 1), (1, 1, 1))
    assert d.special_mults == {1: (2, 2), 2: (3, 2)}
    with pytest.raises(TypeError):
        d.special_mults[3] = (1, 1)


def test_pullback_orders_three_points():
    assert pullback_orders(three_points(), (2, 2, 1)) == (2, 4, 7)
    assert pullback_orders(three_points(), (3, 2, 1)) == (3, 5, 9)


def test_pullback_orders_star_chain():
    # every later center only on the first divisor
    d = make_descriptor(3, [[], [1], [1], [1], [1]])
    assert pullback_orders(d, (1,)) == (1, 1, 1, 1, 1)


def test_pullback_orders_zero():
    assert pullback_orders(three_points(), (0, 0, 0)) == (0, 0, 0)


def test_pullback_orders_linear():
    rng = random.Random(3)
    d = random_descriptor(rng, max_m=7)
    a = [rng.randint(0, 4) for _ in range(d.m)]
    b = [rng.randint(0, 4) for _ in range(d.m)]
    lhs = pullback_orders(d, [x + y for x, y in zip(a, b)])
    rhs = tuple(x + y for x, y in zip(pullback_orders(d, a), pullback_orders(d, b)))
    assert lhs == rhs


def test_pullback_orders_rejects_long_table():
    with pytest.raises(DescriptorError):
        pullback_orders(three_points(), (1, 1, 1, 1))


def test_valuation_matrix_orderings():
    # two orderings of the same modification give different matrices
    a = valuation_matrix(make_descriptor(3, [[], [1], [1]], dims=[0, 0, 1]))
    assert a.rows == ((1, 1, 1), (1, 2, 1), (1, 2, 2))
    abar = valuation_matrix(
        make_descriptor(
            3, [[], [1], [2]], dims=[0, 1, 1], curvette_mults=[(1,), (1, 1), (2, 1, 1)]
        )
    )
    assert abar.rows == ((1, 1, 1), (1, 2, 2), (2, 3, 4))
    assert leading_principal_minors(a) == (1, 1, 1)
    assert leading_principal_minors(abar) == (1, 1, 1)


def test_default_mults_reproduce_first_ordering():
    # the nested-tower default is exactly the table of the first ordering;
    # the second ordering needs the single documented override
    assert default_curvette_mults([[], [1], [1]]) == ((1,), (1, 1), (1, 1, 1))


def test_valuation_matrix_single_blowup():
    assert valuation_matrix(make_descriptor(2, [[]])).rows == ((1,),)


def test_special_matrix_three_points():
    sm = special_matrix(three_points(), 3, {1: 1, 2: 1})
    assert sm.special_rows == ((2, 4, 7), (3, 5, 9))
    assert sm.special_owners == (1, 2)


def test_special_matrix_chain_row():
    d = make_descriptor(3, [[], [1], [2]], special_mults={2: (0, 0)})
    sm = special_matrix(d, 3, {2: 1})
    assert sm.special_rows == ((0, 0, 1),)


def test_special_matrix_requires_parents():
    with pytest.raises(DescriptorError):
        special_matrix(three_points(), 1, {})


def test_special_matrix_requires_rows():
    d = make_descriptor(3, [[], [1]])
    with pytest.raises(DescriptorError):
        special_matrix(d, 2, {1: 1})


def test_low_sets():
    d4 = make_descriptor(3, [[], [1], [1, 2], [3]], dims=[0, 0, 0, 1])
    assert low_sets(d4, 3) == {4: frozenset({3})}
    chain = make_descriptor(3, [[], [1], [2]])
    assert low_sets(chain, 1) == {2: frozenset({1}), 3: frozenset({1})}
    assert low_sets(chain, 2) == {3: frozenset({2})}


def test_json_roundtrip():
    d = make_descriptor(
        3,
        [[], [1], [1, 2], [3]],
        dims=[0, 0, 0, 1],
        curvette_mults=[(1,), (1, 1), (1, 1, 1), (2, 1, 1, 1)],
        special_mults={1: (2, 2), 2: (3, 2)},
        tail=TailData(s=3, mu_curvettes={4: {4: 1}}, mu_specials={}),
    )
    again = ModificationDescriptor.from_json(d.to_json())
    assert again == d


def test_json_rejects_floats_and_bools():
    data = three_points().to_json()
    data["centers"][0]["dim"] = 0.0
    with pytest.raises(ScenarioError):
        ModificationDescriptor.from_json(data)
    data["centers"][0]["dim"] = False
    with pytest.raises(ScenarioError):
        ModificationDescriptor.from_json(data)


def assert_minors_are_one(d: ModificationDescriptor) -> None:
    """Bareiss elimination, independent of the factorization the library
    certifies, finds the same leading minors: all 1."""
    v = valuation_matrix(d)
    assert leading_minors(v.rows) == leading_principal_minors(v) == (1,) * d.m


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_minors_always_one(seed):
    assert_minors_are_one(random_descriptor(random.Random(seed)))


def test_minors_reject_a_matrix_that_does_not_undo_to_its_table():
    d = three_points()
    rows = [list(row) for row in valuation_matrix(d).rows]
    rows[1][2] += 1
    with pytest.raises(MatrixError, match="row 2 "):
        leading_principal_minors(ValuationMatrix(rows=tuple(map(tuple, rows)), descriptor=d))
    for wrong in (rows[:2], [row + [0] for row in rows]):
        with pytest.raises(MatrixError, match="not 3 x 3"):
            leading_principal_minors(ValuationMatrix(rows=tuple(map(tuple, wrong)), descriptor=d))


def test_minors_need_the_descriptor():
    with pytest.raises(DescriptorError, match="need the descriptor"):
        leading_principal_minors(ValuationMatrix(rows=valuation_matrix(three_points()).rows))


@st.composite
def descriptors(draw):
    """Valid descriptors with n = 2..5 and m = 1..12: any sorted nonempty
    parent sets of earlier divisors and nonnegative multiplicity rows with a
    unit diagonal."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 12))
    parents = [[]] + [
        sorted(draw(st.sets(st.integers(1, j - 1), min_size=1, max_size=j - 1))) for j in range(2, m + 1)
    ]
    rows = [draw(st.lists(st.integers(0, 3), min_size=j - 1, max_size=j - 1)) + [1] for j in range(1, m + 1)]
    return make_descriptor(n, parents, curvette_mults=rows)


def column_recurrence_holds(d: ModificationDescriptor, v: ValuationMatrix) -> bool:
    """Recompute the defining recurrence of the upper-triangular part."""
    for k in range(1, v.size + 1):
        for i in range(1, v.size + 1):
            expected = sum(v.entry(i, q) for q in d.parents(k))
            if i < k and v.entry(i, k) != expected:
                return False
            if i == k and v.entry(k, k) != expected + 1:
                return False
    return True


@settings(max_examples=40, deadline=None)
@given(descriptors())
def test_minors_always_one_on_generated_descriptors(d):
    assert_minors_are_one(d)


@settings(max_examples=40, deadline=None)
@given(descriptors())
def test_column_recurrence(d):
    """The column at k decomposes through the parents of k, plus 1 on the
    diagonal: what a descriptor's validation guarantees and the solver relies
    on at s."""
    assert column_recurrence_holds(d, valuation_matrix(d))


@settings(max_examples=40, deadline=None)
@given(descriptors(), st.data())
def test_pullback_orders_are_linear_in_signed_weighted_tables(d, data):
    """The orders of a product of powers are the weighted sum of the orders of
    its factors: a factor with a positive weight goes into the numerator
    table, one with a negative weight into the denominator table, and the
    orders of the two tables differ by the weighted sum.  With hypercurvette
    rows that sum is the exponents times the rows of the valuation matrix."""
    factors = data.draw(
        st.lists(st.tuples(st.integers(-5, 5), st.lists(st.integers(0, 3), max_size=d.m)), max_size=5)
    )
    num, den = [0] * d.m, [0] * d.m
    for weight, row in factors:
        table = num if weight > 0 else den
        for t, v in enumerate(row):
            table[t] += abs(weight) * v
    orders = [pullback_orders(d, row) for _, row in factors]
    expected = tuple(sum(w * o[i] for (w, _), o in zip(factors, orders)) for i in range(d.m))
    assert tuple(f - g for f, g in zip(pullback_orders(d, num), pullback_orders(d, den))) == expected


@settings(max_examples=40, deadline=None)
@given(descriptors(), st.data())
def test_inverse_orders_solves_every_leading_block(d, data):
    matrix = valuation_matrix(d)
    assert matrix.rows == tuple(pullback_orders(d, row) for row in d.curvette_mults)
    b = data.draw(st.lists(st.integers(-50, 50), min_size=d.m, max_size=d.m))
    for k in range(d.m + 1):
        block = [row[:k] for row in matrix.rows[:k]]
        assert inverse_orders(d, b[:k]) == solve_row_system(block, b[:k])


def test_inverse_orders_three_points():
    d = three_points()
    # the rows of three-points are (1, 1, 2), (1, 2, 3) and (1, 2, 4)
    assert inverse_orders(d, (1, 2, 4)) == (0, 0, 1)
    assert inverse_orders(d, (2, 3, 5)) == (1, 1, 0)
    assert inverse_orders(d, ()) == ()
    with pytest.raises(DescriptorError):
        inverse_orders(d, (0, 0, 0, 0))


@st.composite
def plane_chains(draw):
    """Chains of m <= 12 point blow-ups in the plane.  Point j > 1 lies on
    E_{j-1}; it is free, on E_{j-1} alone, or (for j > 2) a satellite, also
    on E_q for a q whose divisor contains point j - 1.  Hypercurvette j's row holds the
    multiplicities e_i of a curvette of E_j, from the proximity equalities:
    e_j = 1 and e_i is the sum of e_k over the k <= j proximate to i (those
    whose parents contain i)."""
    m = draw(st.integers(1, 12))
    parents = [[]]
    for j in range(2, m + 1):
        before = parents[-1]
        satellite = bool(before) and draw(st.booleans())
        parents.append(sorted({j - 1, draw(st.sampled_from(before))}) if satellite else [j - 1])
    rows = []
    for j in range(1, m + 1):
        e = {j: 1}
        for i in range(j - 1, 0, -1):
            e[i] = sum(e[k] for k in range(i + 1, j + 1) if i in parents[k - 1])
        rows.append(tuple(e[i] for i in range(1, j + 1)))
    return make_descriptor(2, parents, curvette_mults=rows)


@settings(max_examples=100, deadline=None)
@given(plane_chains())
def test_a_plane_chain_has_the_valuation_matrix_of_its_proximity_matrix(d):
    """A = (P^-1)^T·P^-1 for the unit upper-triangular proximity matrix P,
    with P[i][k] = -1 when k is proximate to i."""
    m = d.m
    # P·Q = I for Q = P^-1 gives Q[i][k] = sum of Q[r][k] over the r > i proximate to i
    inverse = [[int(i == k) for k in range(m)] for i in range(m)]
    for i in range(m - 1, -1, -1):
        for k in range(i + 1, m):
            inverse[i][k] = sum(inverse[r][k] for r in range(i + 1, k + 1) if i + 1 in d.parents(r + 1))
    expected = tuple(tuple(sum(row[i] * row[j] for row in inverse) for j in range(m)) for i in range(m))
    assert valuation_matrix(d).rows == expected
