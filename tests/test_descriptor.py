import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicriticals.descriptor import (
    Center,
    ModificationDescriptor,
    SpecialRow,
    TailData,
    column_recurrence_holds,
    default_curvette_mults,
    leading_principal_minors,
    low_sets,
    make_descriptor,
    pullback_orders,
    special_matrix,
    validate_descriptor,
    valuation_matrix,
)
from dicriticals.errors import DescriptorError, ScenarioError
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


def test_column_recurrence():
    rng = random.Random(11)
    for _ in range(25):
        d = random_descriptor(rng)
        assert column_recurrence_holds(d, valuation_matrix(d))


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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_minors_always_one(seed):
    d = random_descriptor(random.Random(seed))
    assert set(leading_principal_minors(valuation_matrix(d))) == {1}
