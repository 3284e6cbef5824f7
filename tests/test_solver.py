import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from dicriticals import descriptor, solver
from dicriticals.descriptor import TailData, make_descriptor, pullback_orders, special_rows, valuation_matrix
from dicriticals.errors import BoundViolation, DicriticalError, SolverError
from dicriticals.fixtures import load_fixture
from dicriticals.jsonio import canonical_dumps
from dicriticals.scenario import validate_scenario
from dicriticals.solver import (
    LinearForm,
    aux_order_bounds,
    aux_orders,
    candidate_tables,
    certificate_from_json,
    choose_exponents,
    combine_profile,
    later_mults,
    solve_last_dicritical,
    solve_single_dicritical,
    solve_support,
    window_forms,
)
from dicriticals.verify import solve_scenario
from helpers import four_divisor_tower, random_descriptor, random_request

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
    with pytest.raises(SolverError):
        solve_support(matrix, {2}, {7: 1})


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
    """Numerator and denominator orders of the untwisted candidate, the order
    rows of the later hypercurvettes, and the orders after twisting by their
    powers k_j as affine-linear forms in k_j."""
    nu_f, nu_g = candidate_tables(d, base)
    later_rows = {j: pullback_orders(d, row) for j, row in later_mults(d, s).items()}

    def forms(orders):
        return tuple(LinearForm.make(v, {j: row[i] for j, row in later_rows.items()}) for i, v in enumerate(orders))

    return nu_f, nu_g, later_rows, forms(nu_f), forms(nu_g)


def searched_exponents(threshold_form, windows, later, cap=10_000):
    """The search that ``choose_exponents`` replaced, kept as its oracle: try
    uniform later exponents 1, 2, ... until every window form exceeds 1 and
    the least integer above the threshold lies below threshold + window."""
    for uniform in range(1, cap + 1):
        assign = {j: uniform for j in later}
        if all(w.evaluate(assign) > 1 for w in windows.values()):
            threshold = threshold_form.evaluate(assign)
            pole = threshold.numerator // threshold.denominator + 1
            if pole > threshold and all(pole < threshold + w.evaluate(assign) for w in windows.values()):
                return assign, pole
    raise AssertionError("no admissible exponents below the cap")


def random_fraction(rng, low, high):
    den = rng.randint(1, 12)
    return Fraction(rng.randint(low * den, high * den), den)


def test_closed_form_exponents_match_the_search():
    rng = random.Random(17)
    for _ in range(400):
        later = sorted(rng.sample(range(2, 10), rng.randint(0, 4)))
        windows = {}
        for i in rng.sample(later, rng.randint(0, len(later))):
            keys = rng.sample(later, rng.randint(1, len(later)))
            coeffs = {j: Fraction(rng.randint(1, 9), rng.randint(1, 12)) for j in keys}
            windows[i] = LinearForm.make(random_fraction(rng, -4, 2), coeffs)
        coeffs = {j: random_fraction(rng, -3, 5) for j in later}
        threshold_form = LinearForm.make(random_fraction(rng, -5, 20), coeffs)
        expected = searched_exponents(threshold_form, windows, later)
        assert choose_exponents(threshold_form, windows, later) == expected, (threshold_form, windows)


def test_a_window_that_does_not_grow_is_rejected():
    with pytest.raises(SolverError, match="window form"):
        choose_exponents(LinearForm.make(5), {4: LinearForm.make(0)}, (4,))


def test_single_workspace_forms():
    d = three_points_line()
    base = solve_last_dicritical(d, 3, 1, contact_orders={1: 1, 2: 1})
    nu_f, nu_g, later_rows, numer, denom = untwisted_forms(d, 3, base)
    assert numer[0] == LinearForm.make(7, {4: Fraction(2)})
    assert denom[0] == LinearForm.make(6, {4: Fraction(2)})
    assert numer[2] == LinearForm.make(20, {4: Fraction(6)})
    assert numer[2].evaluate({4: 0}) == 20  # no twist: plain orders
    aux = aux_orders(d, base, nu_f, nu_g)
    assert aux == (1, 1, 0, 0)
    a_ss = valuation_matrix(d).entry(3, 3)
    threshold_form, weights, windows = window_forms(d, 3, aux, nu_f, later_rows, a_ss)
    assert threshold_form == LinearForm.make(Fraction(20, a_ss), {4: Fraction(6, a_ss)})
    assert weights == {4: 1}
    assert windows == {4: LinearForm.make(0, {4: Fraction(1, 4)})}
    assign, pole = choose_exponents(threshold_form, windows, (4,))
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


@pytest.mark.parametrize("contacts", [{1: 1}, {1: 1, 2: 1}, {2: 1}])
def test_a_doubling_doubles_every_chosen_order(contacts):
    """A contact order left out is 1, and a doubling doubles it with the given ones."""
    cert = solve_single_dicritical(four_divisor_tower(), 3, 1, contact_orders=contacts)
    assert (cert.base.contact_orders, cert.pole_power, cert.doublings) == ({1: 4, 2: 4}, 9, 2)


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


@pytest.mark.parametrize(
    "name, validated",
    [("three-points-line", []), ("two-dicriticals", [1, 3, 1, 3])],
)
def test_a_descriptors_own_tail_is_not_validated_again(name, validated, monkeypatch):
    """The tail a descriptor was built with was checked then; a request's
    tail is checked on each use.  Validating and solving ``name`` validates
    the tails for these indices."""
    sc = load_fixture(name)
    seen = []
    original = descriptor._validate_tail

    def counted(d):
        seen.append(d.tail.s)
        return original(d)

    monkeypatch.setattr(descriptor, "_validate_tail", counted)
    validate_scenario(sc)
    solve_scenario(sc)
    assert seen == validated


def test_a_single_solve_checks_its_request_once(monkeypatch):
    calls = []
    original = solver.request_maps

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "request_maps", counted)
    cert = solve_single_dicritical(four_divisor_tower(), 3, 1, contact_orders={1: 1})
    assert cert.doublings == 2
    assert calls == [3]


def test_single_requires_tail():
    d = three_points()
    with pytest.raises(SolverError):
        solve_single_dicritical(d, 2, 1)


def branching_descriptor():
    """s = 1 with two later divisors that both contain the last center."""
    return make_descriptor(
        3,
        [[], [1], [1], [2, 3]],
        tail=TailData(s=1, mu_curvettes={2: {2: 1}, 3: {3: 1}, 4: {4: 1}}, mu_specials={}),
    )


def test_single_branching_window_forms():
    # two parents with unit weights average their windows
    d = branching_descriptor()
    base = solve_last_dicritical(d, 1, 1)
    nu_f, nu_g, later_rows, _, _ = untwisted_forms(d, 1, base)
    aux = aux_orders(d, base, nu_f, nu_g)
    _, weights, windows = window_forms(d, 1, aux, nu_f, later_rows, valuation_matrix(d).entry(1, 1))
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
            assert all(c > 0 for c in w.coeffs.values())
            assert w.evaluate(cert.later_exponents) > 1


# -- identities of the order recursion, as properties ------------------------------


def requests(kind="single"):
    """Random requests of ``helpers.random_request``, of the given kind or, for
    None, of either kind."""
    return st.randoms(use_true_random=False).map(lambda rng: random_request(rng, kind))


def solved(request):
    """The certificate of a single request; a request that exhausts its
    doublings is rejected."""
    _, d, s, degree, specials, contacts, targets = request
    try:
        return solve_single_dicritical(d, s, degree, specials, contacts, targets)
    except BoundViolation:
        reject()


@settings(max_examples=40, deadline=None)
@given(requests(kind=None))
def test_special_rows_obey_the_order_identity_at_s(request):
    _, d, s, _, _, contacts, _ = request
    owners = d.parents(s)
    assume(owners)
    contacts = dict.fromkeys(owners, 1) | (contacts or {})
    for j, row in zip(owners, special_rows(d, s, contacts)):
        assert row[s - 1] == sum(row[q - 1] for q in owners) + contacts[j]


@settings(max_examples=40, deadline=None)
@given(requests())
def test_auxiliary_orders_follow_the_recursion_after_s(request):
    """After s the untwisted numerator has no multiplicity, so each auxiliary
    order is the sum over the parents less the special multiplicities."""
    cert = solved(request)
    d = request[1]
    for i in range(cert.s + 1, d.m + 1):
        expected = sum(cert.aux_orders[p - 1] for p in d.parents(i))
        expected -= sum(cert.base.special_exponents[j] * mu for j, mu in d.tail.mu_specials.get(i, {}).items())
        assert cert.aux_orders[i - 1] == expected


def scaled(form, factor):
    return LinearForm.make(form.const * factor, {k: c * factor for k, c in form.coeffs.items()})


def recursive_window_forms(d, s, aux, nu_f, later_rows, a_ss):
    """The recursion that the closed-form ``window_forms`` replaced, kept as its
    oracle: each window is the weighted mean of its parents' windows plus the
    later curvette multiplicities at its center over weight·a_ss, and it must
    satisfy numerator_form(i) = weight·(numerator_form(s) + a_ss·window)."""

    def numerator_form(i):
        return LinearForm.make(nu_f[i - 1], {j: row[i - 1] for j, row in later_rows.items()})

    numer_s = numerator_form(s)
    weights, windows = {s: 1}, {s: LinearForm.make(0)}
    for i in range(s + 1, d.m + 1):
        if aux[i - 1] != 0:
            continue
        weight = sum(weights[p] for p in d.parents(i))
        form = LinearForm.make(0)
        for p in d.parents(i):
            form = form + scaled(windows[p], Fraction(weights[p], weight))
        mu_row = d.tail.mu_curvettes.get(i, {})
        form = form + LinearForm.make(0, {j: Fraction(mu, weight * a_ss) for j, mu in mu_row.items()})
        assert scaled(numer_s + scaled(form, a_ss), weight) == numerator_form(i)
        weights[i], windows[i] = weight, form
    del weights[s], windows[s]
    return scaled(numer_s, Fraction(1, a_ss)), weights, windows


@settings(max_examples=60, deadline=None)
@given(requests())
def test_closed_form_windows_match_the_window_recursion(request):
    cert = solved(request)
    d, s = request[1], cert.s
    nu_f, nu_g = candidate_tables(d, cert.base)
    later_rows = {j: pullback_orders(d, row) for j, row in later_mults(d, s).items()}
    a_ss = valuation_matrix(d).entry(s, s)
    closed = window_forms(d, s, cert.aux_orders, nu_f, later_rows, a_ss)
    assert closed == recursive_window_forms(d, s, cert.aux_orders, nu_f, later_rows, a_ss)
    assert closed == (cert.threshold_form, cert.weights, cert.window_forms)


# sha256 of the canonical JSON of each certificate.  The four-divisor and
# doubling-20 solves make two doublings each; "floors-without-maps" gives no
# order maps, so it starts at the ``aux_order_bounds`` floors; and the last
# solve runs on a descriptor that carries a tail, which it never reads.
PINNED_CERTIFICATES = {
    "four-divisor-contact-1": (
        lambda: solve_single_dicritical(four_divisor_tower(), 3, 1, contact_orders={1: 1}),
        "770d75e1b50f3148fee71488fb66d1e0912d96e8927b84ddbcb33abe3e683833",
    ),
    "four-divisor-contact-2": (
        lambda: solve_single_dicritical(four_divisor_tower(), 3, 1, contact_orders={2: 1}),
        "770d75e1b50f3148fee71488fb66d1e0912d96e8927b84ddbcb33abe3e683833",
    ),
    "four-divisor-contacts-1-2": (
        lambda: solve_single_dicritical(four_divisor_tower(), 3, 1, contact_orders={1: 1, 2: 1}),
        "770d75e1b50f3148fee71488fb66d1e0912d96e8927b84ddbcb33abe3e683833",
    ),
    "doubling-20": (
        lambda: solve_single_dicritical(doubling_descriptor(20), 2, 1),
        "0860ab9344b87bf2a4209a39465c007d0ab953365629b496d0cdef096e5e6ac0",
    ),
    "branching-window": (
        lambda: solve_single_dicritical(branching_descriptor(), 1, 1),
        "410400c2bfd83ffb4b9383602df696a2facc089be7da45420378b671e743aa3c",
    ),
    "floors-without-maps": (
        lambda: solve_single_dicritical(three_points_line(), 3, 1),
        "f0217901865c8056d8edf0e46ef2d6dc1be25d98e5ad7badf1962ccdd1db3ad9",
    ),
    "last-with-a-tail": (
        lambda: solve_last_dicritical(three_points_line(), 3, 1),
        "d26d1bf83688224ce8cd5cc839ffddbdf1add9244d6ab603cd53c8b4d2acd56c",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_CERTIFICATES))
def test_certificate_bytes_are_pinned(case):
    solve, digest = PINNED_CERTIFICATES[case]
    assert hashlib.sha256(canonical_dumps(solve().to_json()).encode()).hexdigest() == digest


# sha256 over the canonical JSON of each certificate of a seeded sweep, or over
# the type and text of the error its request raises: 201 last and 196 single
# certificates, and 3 single requests that exhaust their doublings
# (``BoundViolation``).
SWEEP_DIGEST = "f4a4f5b687ccf6223746685f90c34b66be52a6e97a5f701a9484bb21e20602ed"


def test_a_seeded_sweep_of_certificates_is_pinned():
    rng = random.Random(21)
    digest = hashlib.sha256()
    outcomes = Counter()
    for _ in range(400):
        kind, d, s, degree, specials, contacts, targets = random_request(rng)
        solve = solve_single_dicritical if kind == "single" else solve_last_dicritical
        try:
            text = canonical_dumps(solve(d, s, degree, specials, contacts, targets).to_json())
            outcomes[kind] += 1
        except DicriticalError as e:
            text = f"{type(e).__name__}: {e}\n"
            outcomes[type(e).__name__] += 1
        digest.update(text.encode())
    assert outcomes == {"last": 201, "single": 196, "BoundViolation": 3}
    assert digest.hexdigest() == SWEEP_DIGEST


# -- profiles ------------------------------------------------------------------------


def test_combine_profile():
    d = three_points_line()
    c3 = solve_single_dicritical(d, 3, 1, contact_orders={1: 1, 2: 1})
    plan = combine_profile([c3])
    assert plan.degrees == {3: 1}
    with pytest.raises(SolverError):
        combine_profile([])
    with pytest.raises(SolverError):
        combine_profile([c3, c3])


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

    for form in (single.threshold_form, *single.window_forms.values()):
        assert LinearForm.from_json(form.to_json()) == form


def test_linear_form_holds_no_zero_coefficient():
    assert LinearForm.make(1, {2: 0, 1: Fraction(1, 2)}) == LinearForm(Fraction(1), {1: Fraction(1, 2)})
    a = LinearForm.make(0, {1: 1})
    assert a + LinearForm.make(0, {1: -1}) == LinearForm.make(0)
    with pytest.raises(SolverError):
        LinearForm(Fraction(0), {1: Fraction(0)})
