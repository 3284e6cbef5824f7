import random
from fractions import Fraction

import pytest

from dicriticals import descriptor, solver
from dicriticals.descriptor import TailData, make_descriptor, pullback_orders, valuation_matrix
from dicriticals.errors import BoundViolation, SolverError
from dicriticals.solver import (
    LinearForm,
    aux_order_bounds,
    aux_orders,
    candidate_tables,
    certificate_from_json,
    choose_exponents,
    classify,
    combine_profile,
    later_mults,
    order_forms,
    solve_last_dicritical,
    solve_single_dicritical,
    solve_support,
    window_forms,
)
from helpers import random_descriptor

A_ROWS = ((1, 1, 1), (1, 2, 1), (1, 2, 2))


def three_points():
    return make_descriptor(3, [[], [1], [1, 2]], special_mults={1: (2, 2), 2: (3, 2)})


def three_points_line():
    return make_descriptor(
        3,
        [[], [1], [1, 2], [3]],
        dims=[0, 0, 0, 1],
        curvette_mults=[(1,), (1, 1), (1, 1, 1), (2, 1, 1, 1)],
        special_mults={1: (2, 2), 2: (3, 2)},
        tail=TailData(s=3, mu_curvettes={4: {4: 1}}, mu_specials={}),
    )


# -- support ------------------------------------------------------------------


def test_support_single_blowup():
    cert = solve_support(valuation_matrix(make_descriptor(2, [[]])), {1})
    assert cert.exponents == (0,)
    assert cert.orders == (0,)
    assert cert.needs_split == (1,)


def test_support_all_targets():
    matrix = valuation_matrix(make_descriptor(3, [[], [1], [1]], dims=[0, 0, 1]))
    assert matrix.rows == A_ROWS
    cert = solve_support(matrix, {1, 2, 3})
    assert cert.exponents == (0, 0, 0)
    assert cert.needs_split == (1, 2, 3)


def test_support_middle_target():
    matrix = valuation_matrix(make_descriptor(3, [[], [1], [1]], dims=[0, 0, 1]))
    cert = solve_support(matrix, {2}, {1: 1, 3: 1})
    assert cert.exponents == (2, -1, 0)
    assert cert.orders == (1, 0, 1)
    assert cert.needs_split == ()


def test_support_rejects_zero_offset():
    matrix = valuation_matrix(three_points())
    with pytest.raises(SolverError):
        solve_support(matrix, {2}, {1: 0})
    with pytest.raises(SolverError):
        solve_support(matrix, set())


def test_classify():
    assert classify((3, 0), (1, 2)) == ("non_dicritical", "dicritical_pos")
    assert classify((0,), (0,)) == ("dicritical_if_split",)
    assert classify((-2,), (5,)) == ("non_dicritical",)
    with pytest.raises(SolverError):
        classify((1,), (1, 2))


# -- last divisor ---------------------------------------------------------------


def test_last_relations_unit_exponents():
    cert = solve_last_dicritical(three_points(), 3, 1, contact_orders={1: 1, 2: 1})
    assert cert.bundle_exponents == (2, 4)
    assert cert.orders == (1, 1, 0)
    assert cert.special_owners == (1, 2)


def test_last_relations_general_exponents():
    cert = solve_last_dicritical(
        three_points(), 3, 1, special_exponents={1: 2, 2: 3}, contact_orders={1: 1, 2: 1}
    )
    assert cert.bundle_exponents == (4, 11)
    # substitute into the full stacked system, including the eliminated equation
    matrix = valuation_matrix(three_points())
    from dicriticals.descriptor import special_matrix

    stacked = special_matrix(three_points(), 3, {1: 1, 2: 1})
    lhs = [4, 11, 0, -2, -3]
    rows = list(stacked.rows) + list(stacked.special_rows)
    produced = [sum(lhs[r] * rows[r][c] for r in range(5)) for c in range(3)]
    assert produced == [2, 3, 0]


def test_last_base_case():
    cert = solve_last_dicritical(make_descriptor(3, [[], [1]]), 1, 4)
    assert cert.bundle_exponents == ()
    assert cert.orders == (0,)
    assert cert.special_owners == ()


def test_last_rejects_zero_target():
    d = make_descriptor(3, [[], [1], [2]], special_mults={2: (0, 0)})
    with pytest.raises(SolverError):
        solve_last_dicritical(d, 3, 1, target_orders={1: 0})


def test_last_rejects_bad_degree():
    with pytest.raises(SolverError):
        solve_last_dicritical(three_points(), 3, 0)


# -- auxiliary bounds -------------------------------------------------------------


def test_aux_order_bounds():
    floor, contacts = aux_order_bounds(4, 3, {1: 1, 2: 1}, 3)
    assert floor == 13  # strictly above 2 * 1 * 2 * 3
    assert contacts == {1: 13, 2: 13}
    floor, _ = aux_order_bounds(3, 3, {1: 1, 2: 1}, 3)
    assert floor == 7 and floor > 0  # no later blow-ups: strictly above 1 * 2 * 3
    floor, _ = aux_order_bounds(6, 3, {1: 2}, 4)
    assert floor == 65  # strictly above 2**3 * 2 * 1 * 4


# -- single divisor ----------------------------------------------------------------


def untwisted_forms(d, s, base):
    """Signed rows, numerator and denominator order forms of the untwisted candidate."""
    signed, nu_f, nu_g = candidate_tables(d, base, d.tail)
    later_rows = {j: pullback_orders(d, row) for j, row in later_mults(d, s, d.tail).items()}
    return nu_f, nu_g, order_forms(nu_f, later_rows), order_forms(nu_g, later_rows)


def test_single_workspace_forms():
    d = three_points_line()
    base = solve_last_dicritical(d, 3, 1, contact_orders={1: 1, 2: 1})
    nu_f, nu_g, numer, denom = untwisted_forms(d, 3, base)
    assert numer[0] == LinearForm.make(7, {4: Fraction(2)})
    assert denom[0] == LinearForm.make(6, {4: Fraction(2)})
    assert numer[2] == LinearForm.make(20, {4: Fraction(6)})
    assert numer[2].evaluate({4: 0}) == 20  # no twist: plain orders
    aux = aux_orders(d, base, d.tail, nu_f, nu_g)
    assert aux == (1, 1, 0, 0)
    a_ss = valuation_matrix(d).entry(3, 3)
    weights, windows = window_forms(d, 3, d.tail, aux, numer, a_ss)
    assert weights == {4: 1}
    assert windows == {4: LinearForm.make(0, {4: Fraction(1, 4)})}
    assign, pole = choose_exponents(numer[2].scale(Fraction(1, a_ss)), windows, (4,))
    assert assign == {4: 5} and pole == 13
    cert = solve_single_dicritical(d, 3, 1, contact_orders={1: 1, 2: 1})
    assert (cert.later_exponents, cert.pole_power) == (assign, pole)
    assert cert.orders == (4, 1, 0, 3)


def test_single_full_pipeline():
    cert = solve_single_dicritical(three_points_line(), 3, 1, contact_orders={1: 1, 2: 1})
    assert cert.later_exponents == {4: 5}
    assert cert.pole_power == 13
    assert cert.orders == (4, 1, 0, 3)
    assert cert.aux_orders == (1, 1, 0, 0)
    assert cert.threshold_form == LinearForm.make(5, {4: Fraction(3, 2)})
    assert cert.window_forms == {4: LinearForm.make(0, {4: Fraction(1, 4)})}
    assert cert.doublings == 0


def test_single_reduces_to_last_when_no_later_centers():
    d = three_points()
    cert = solve_single_dicritical(d, 3, 1, contact_orders={1: 1, 2: 1})
    assert cert.later_exponents == {}
    assert cert.pole_power == 6  # smallest integer above 20/4
    assert cert.orders == (1, 1, 0)
    assert cert.base.bundle_exponents == (2, 4)


def test_single_smallest_tower():
    cert = solve_single_dicritical(make_descriptor(3, [[]]), 1, 3)
    assert cert.pole_power == 4
    assert cert.orders == (0,)


def test_single_positive_aux_with_special_contact():
    d = make_descriptor(
        3,
        [[], [1], [1]],
        special_mults={1: (1,)},
        tail=TailData(s=2, mu_curvettes={3: {3: 1}}, mu_specials={3: {1: 1}}),
    )
    cert = solve_single_dicritical(d, 2, 1)
    assert cert.base.contact_orders == {1: 7}
    assert cert.aux_orders == (7, 0, 6)
    assert cert.later_exponents == {3: 1}
    assert cert.pole_power == 7
    assert cert.orders == (7, 0, 6)
    assert cert.doublings == 0


def doubling_descriptor(mu):
    """s = 2 with a special hypersurface of multiplicity ``mu`` at the later center."""
    return make_descriptor(
        3,
        [[], [1], [1]],
        special_mults={1: (1,)},
        tail=TailData(s=2, mu_curvettes={3: {3: 1}}, mu_specials={3: {1: mu}}),
    )


def test_single_doubles_when_contacts_too_small():
    cert = solve_single_dicritical(doubling_descriptor(20), 2, 1)
    assert cert.doublings == 2
    assert cert.base.contact_orders == {1: 28}
    assert cert.aux_orders[2] == 8
    with pytest.raises(BoundViolation):  # needs 5 doublings, one more than allowed
        solve_single_dicritical(doubling_descriptor(200), 2, 1)


def counting(monkeypatch, name, modules=(descriptor, solver)):
    """Count the calls of the descriptor function ``name`` looked up in ``modules``."""
    calls = []
    original = getattr(descriptor, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "d, s, contacts, doublings",
    [(three_points_line(), 3, {1: 1, 2: 1}, 0), (doubling_descriptor(20), 2, None, 2)],
    ids=["three-points-line", "doubling"],
)
def test_single_validates_once_and_builds_one_matrix(d, s, contacts, doublings, monkeypatch):
    matrices = counting(monkeypatch, "valuation_matrix")
    validations = counting(monkeypatch, "require_valid", (descriptor,))  # called only at construction
    cert = solve_single_dicritical(d, s, 1, contact_orders=contacts)
    assert cert.doublings == doublings
    assert len(matrices) == 1
    assert len(validations) <= 2


def test_single_requires_tail():
    d = three_points()
    with pytest.raises(SolverError):
        solve_single_dicritical(d, 2, 1)


def test_single_branching_window_forms():
    # two parents with unit weights average their windows
    d = make_descriptor(
        3,
        [[], [1], [1], [2, 3]],
        tail=TailData(s=1, mu_curvettes={2: {2: 1}, 3: {3: 1}, 4: {4: 1}}, mu_specials={}),
    )
    base = solve_last_dicritical(d, 1, 1)
    nu_f, nu_g, numer, _ = untwisted_forms(d, 1, base)
    aux = aux_orders(d, base, d.tail, nu_f, nu_g)
    weights, windows = window_forms(d, 1, d.tail, aux, numer, valuation_matrix(d).entry(1, 1))
    assert weights == {2: 1, 3: 1, 4: 2}
    assert windows[2] == LinearForm.make(0, {2: Fraction(1)})
    assert windows[3] == LinearForm.make(0, {3: Fraction(1)})
    assert windows[4] == LinearForm.make(
        0, {2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(1, 2)}
    )


def test_single_randomized_invariants():
    rng = random.Random(20240)
    built = 0
    while built < 12:
        d = random_descriptor(rng, max_m=5)
        if d.m < 2:
            continue
        s = rng.randint(1, d.m - 1)
        owners = sorted(d.parents(s))
        specials = {j: tuple(rng.randint(0, 2) for _ in range(s - 1)) for j in owners}
        tail = TailData(
            s=s,
            mu_curvettes={i: {i: 1} for i in range(s + 1, d.m + 1)},
            mu_specials={},
        )
        d = make_descriptor(
            3,
            [sorted(c.parents) for c in d.centers],
            curvette_mults=d.curvette_mults,
            special_mults=specials,
            tail=tail,
        )
        cert = solve_single_dicritical(d, s, 1 + rng.randint(0, 2))
        built += 1
        assert cert.orders[s - 1] == 0
        assert all(v > 0 for i, v in enumerate(cert.orders, start=1) if i != s)
        # independent recompute of the untwisted orders through the recursion
        aux = tuple(a - b for a, b in zip(cert.numer_orders, cert.denom_orders))
        assert aux == cert.aux_orders
        for i, w in cert.window_forms.items():
            assert all(c > 0 for _, c in w.coeffs)
            assert w.evaluate(cert.later_exponents) > 1


# -- profiles ------------------------------------------------------------------------


def test_combine_profile():
    d = three_points_line()
    c3 = solve_single_dicritical(d, 3, 1, contact_orders={1: 1, 2: 1})
    plan = combine_profile([c3], {3: 1})
    assert plan.degrees == {3: 1}
    with pytest.raises(SolverError):
        combine_profile([])
    with pytest.raises(SolverError):
        combine_profile([c3, c3])
    with pytest.raises(SolverError):
        combine_profile([c3], {3: 2})


# -- serialization ----------------------------------------------------------------------


def test_certificate_json_roundtrips():
    matrix = valuation_matrix(make_descriptor(3, [[], [1], [1]], dims=[0, 0, 1]))
    support = solve_support(matrix, {2}, {1: 1, 3: 1})
    assert certificate_from_json(support.to_json()) == support

    last = solve_last_dicritical(three_points(), 3, 1, contact_orders={1: 1, 2: 1})
    assert certificate_from_json(last.to_json()) == last

    single = solve_single_dicritical(three_points_line(), 3, 1, contact_orders={1: 1, 2: 1})
    assert certificate_from_json(single.to_json()) == single

    plan = combine_profile([single])
    again = certificate_from_json(plan.to_json())
    assert again.degrees == plan.degrees and again.parts == plan.parts
