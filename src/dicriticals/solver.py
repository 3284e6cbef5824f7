"""Certificate-producing solvers for prescribed dicritical profiles.

Three construction problems are solved here, in increasing strength:

* ``solve_support``: choose bundle exponents so the candidate product of
  hypercurvettes has order zero exactly on a prescribed set of divisors.
* ``solve_last_dicritical``: force a chosen divisor s to carry a dominant
  restriction of prescribed degree while every earlier divisor gets a
  nonzero order, by playing hypercurvette bundles against special
  hypersurfaces with prescribed contact orders.
* ``solve_single_dicritical``: additionally silence every divisor after s by
  twisting with powers of later hypercurvettes and one extra power in the
  denominator whose exponent must land in an explicit rational window.

Every system is x·A_k = b for a leading block A_k of the valuation matrix.
It is solved by inverting the order recursion (``inverse_orders``), in
integers and without a division, and each solution is checked against the
rows of A_k.  Each certificate carries the full predicted order vector, and
before it is returned it passes the checks of its construction: the
eliminated equation at s, the positivity of the auxiliary orders below s and
the descent rule after s, the positivity and growth of the window forms, and
the final order conditions.  Every order here comes from the one order
recursion, so running it again on its own output would check nothing; the
independent check of a certificate is ``verify``, which walks the
constructed function through the charts symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Iterable, Mapping, Sequence

from .descriptor import (
    ModificationDescriptor,
    TailData,
    ValuationMatrix,
    inverse_orders,
    low_sets,
    pullback_orders,
    special_mults_row,
    special_rows,
    valuation_matrix,
)
from .errors import BoundViolation, SolverError
from .jsonio import SCHEMA_VERSION, FieldCodec, Kinded, read_kinded


# -- linear forms -------------------------------------------------------------


@dataclass(frozen=True)
class LinearForm(FieldCodec):
    """Exact affine-linear form in integer-indexed unknowns; no coefficient is zero.

    ``make`` is the normalising constructor: it drops zero coefficients.
    """

    const: Fraction
    coeffs: Mapping[int, Fraction]

    def __post_init__(self):
        if not all(self.coeffs.values()):
            raise SolverError(f"LinearForm field 'coeffs' holds a zero coefficient: {self.coeffs}")

    @classmethod
    def make(cls, const=0, coeffs: Mapping[int, Fraction | int] | None = None) -> "LinearForm":
        return cls(Fraction(const), {k: Fraction(c) for k, c in (coeffs or {}).items() if c})

    def __add__(self, other: "LinearForm") -> "LinearForm":
        merged = dict(self.coeffs)
        for k, c in other.coeffs.items():
            merged[k] = merged.get(k, 0) + c
        return LinearForm.make(self.const + other.const, merged)

    def evaluate(self, assignment: Mapping[int, int | Fraction]) -> Fraction:
        total = self.const
        for k, c in self.coeffs.items():
            total += c * Fraction(assignment[k])
        return total


# -- certificates ----------------------------------------------------------------


class Certificate(Kinded):
    """A solver certificate: its JSON form is its fields, its schema version
    and its class-level ``kind``."""

    def envelope(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **super().envelope()}


# -- support certificates ------------------------------------------------------


@dataclass(frozen=True)
class SupportCertificate(Certificate):
    exponents: tuple[int, ...]
    orders: tuple[int, ...]
    targets: tuple[int, ...]
    offsets: Mapping[int, int] = field(default_factory=dict)
    needs_split: tuple[int, ...] = ()

    kind = "support"


def solve_support(
    matrix: ValuationMatrix,
    targets: Iterable[int],
    offsets: Mapping[int, int] | None = None,
) -> SupportCertificate:
    """Exponents making the product of hypercurvette bundles vanish to order
    zero exactly on the target divisors.

    Off-target divisors receive the given nonzero orders (default +1).  A
    target whose solved exponent is zero is flagged: its bundle must then be
    a nonconstant ratio of two hypercurvettes of the same divisor.
    """
    if matrix.descriptor is None:
        raise SolverError("solve_support needs the valuation matrix of a descriptor")
    target_set = set(targets)
    orders = support_orders(matrix.size, target_set, offsets or {})
    exponents = _solve_rows(matrix.descriptor, matrix.rows, orders)
    needs_split = tuple(j for j in sorted(target_set) if exponents[j - 1] == 0)
    return SupportCertificate(
        exponents=exponents,
        orders=orders,
        targets=tuple(sorted(target_set)),
        offsets={j: v for j, v in enumerate(orders, start=1) if j not in target_set},
        needs_split=needs_split,
    )


def _solve_rows(d: ModificationDescriptor, rows: Sequence[Sequence[int]], orders: Sequence[int]) -> tuple[int, ...]:
    """The exponents x with x·A_k = orders, where A_k is the leading k-block of
    the valuation matrix ``rows`` of ``d`` and k = len(orders).

    ``inverse_orders`` solves the system; the solution is then checked
    exactly against the rows.
    """
    x = inverse_orders(d, orders)
    k = len(orders)
    if [sum(map(mul, x, col)) for col in islice(zip(*rows[:k]), k)] != list(orders):
        raise SolverError("solved exponents do not reproduce the prescribed orders; internal error")
    return x


def support_orders(m: int, targets: Iterable[int], offsets: Mapping[int, int]) -> tuple[int, ...]:
    """The order vector a support request prescribes on m divisors: zero on
    the targets, the given nonzero offsets off them and +1 elsewhere.

    The targets form a nonempty subset of 1..m; the offsets are keyed by
    divisors of 1..m off the targets.
    """
    target_set = set(targets)
    if not target_set or not target_set <= set(range(1, m + 1)):
        raise SolverError(f"support targets {sorted(target_set)} must be a nonempty subset of 1..{m}")
    for j, value in offsets.items():
        if j in target_set or not 1 <= j <= m:
            raise SolverError(f"divisor {j} is a target or outside 1..{m}; it cannot carry an off-target order")
        if value == 0:
            raise SolverError(f"off-target order for divisor {j} must be nonzero")
    return tuple(0 if j in target_set else offsets.get(j, 1) for j in range(1, m + 1))


# -- last-divisor certificates -------------------------------------------------


@dataclass(frozen=True)
class LastDicriticalCertificate(Certificate):
    s: int
    degree: int
    special_owners: tuple[int, ...]
    special_exponents: Mapping[int, int]
    contact_orders: Mapping[int, int]
    bundle_exponents: tuple[int, ...]
    target_orders: Mapping[int, int]
    orders: tuple[int, ...]
    matrix_a: tuple[tuple[int, ...], ...]
    matrix_b: tuple[tuple[int, ...], ...]
    matrix_c: tuple[tuple[int, ...], ...]

    kind = "last"

    def __post_init__(self):
        if any(k < 0 for k in self.special_exponents.values()):
            raise SolverError("special hypersurfaces carry honest positive powers")


def solve_last_dicritical(
    d: ModificationDescriptor,
    s: int,
    degree: int,
    special_exponents: Mapping[int, int] | None = None,
    contact_orders: Mapping[int, int] | None = None,
    target_orders: Mapping[int, int] | None = None,
) -> LastDicriticalCertificate:
    """Solve the reduced square system for the bundle exponents below s.

    The divisor s gets order zero and restriction degree ``degree``; each
    parent j of s gets order (special exponent) * (contact order); every
    other divisor below s gets a prescribed nonzero order (default +1).
    """
    maps = request_maps(d, s, degree, special_exponents, contact_orders, target_orders)
    return _solve_last(d, valuation_matrix(d), s, degree, *maps)


def request_maps(
    d: ModificationDescriptor,
    s: int,
    degree: int,
    special_exponents: Mapping[int, int] | None = None,
    contact_orders: Mapping[int, int] | None = None,
    target_orders: Mapping[int, int] | None = None,
    positive_targets: bool = False,
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """The three order maps of a request for a dicritical divisor s of the
    given degree, each completed with 1 wherever it leaves a divisor out.

    This is the one statement of what such a request is: s lies in 1..m, the
    degree is >= 1 and every parent of s owns a special multiplicity row of
    length s - 1.  ``special_exponents`` and ``contact_orders`` are keyed by
    the parents of s, with values >= 1; ``target_orders`` is keyed by the
    divisors below s that are not parents of s, with nonzero values, or with
    positive ones when ``positive_targets`` is set (a single-divisor
    construction needs them).
    """
    if not (1 <= s <= d.m):
        raise SolverError(f"index {s} out of range 1..{d.m}")
    if degree < 1:
        raise SolverError(f"the degree requested at divisor {s} must be >= 1, got {degree}")
    owners = sorted(d.parents(s))
    for j in owners:
        special_mults_row(d, s, j, 1)
    special_exponents = {j: 1 for j in owners} | dict(special_exponents or {})
    contact_orders = {j: 1 for j in owners} | dict(contact_orders or {})
    if set(special_exponents) != set(owners) or set(contact_orders) != set(owners):
        raise SolverError("special exponents and contact orders must be indexed by the parents of s")
    if any(v < 1 for v in special_exponents.values()):
        raise SolverError("special exponents must be positive")
    if any(v < 1 for v in contact_orders.values()):
        raise SolverError("contact orders must be positive")
    free = [i for i in range(1, s) if i not in owners]
    target_orders = {i: 1 for i in free} | dict(target_orders or {})
    if set(target_orders) != set(free):
        raise SolverError("target orders must be indexed by the divisors below s outside the parents of s")
    if any(v == 0 for v in target_orders.values()):
        raise SolverError("target orders must be nonzero")
    # below s the construction needs positive orders, not merely nonzero ones
    if positive_targets and any(v < 1 for v in target_orders.values()):
        raise SolverError("target orders must be positive for a single-divisor construction")
    return special_exponents, contact_orders, target_orders


def _solve_last(d, matrix, s, degree, special_exponents, contact_orders, target_orders):
    """``solve_last_dicritical`` on a valid descriptor with its valuation matrix
    and the three order maps that ``request_maps`` completed and checked."""
    owners = sorted(d.parents(s))
    b_rows = special_rows(d, s, contact_orders) if owners else ()

    a_sub = tuple(tuple(matrix.entry(i, t) for t in range(1, s)) for i in range(1, s))
    b_sub = tuple(tuple(row[t - 1] for t in range(1, s)) for row in b_rows)
    c_sub = tuple(
        tuple(contact_orders[j] if t == j else 0 for t in range(1, s)) for j in owners
    )

    rhs = []
    for t in range(1, s):
        value = target_orders.get(t, 0)
        for idx, j in enumerate(owners):
            value += special_exponents[j] * (b_sub[idx][t - 1] + c_sub[idx][t - 1])
        rhs.append(value)
    exponents = _solve_rows(d, matrix.rows, rhs)
    # The equation at s is not in the solved system: the product must still
    # have order zero along E_s.
    at_s = sum(x * matrix.entry(i, s) for i, x in enumerate(exponents, start=1))
    at_s -= sum(special_exponents[j] * row[s - 1] for j, row in zip(owners, b_rows))
    if at_s != 0:
        raise SolverError(f"solved exponents do not satisfy equation {s}: {at_s} != 0")

    orders = tuple(
        target_orders.get(i, 0)
        if i not in owners and i != s
        else (special_exponents[i] * contact_orders[i] if i in owners else 0)
        for i in range(1, s + 1)
    )
    return LastDicriticalCertificate(
        s=s,
        degree=degree,
        special_owners=tuple(owners),
        special_exponents=special_exponents,
        contact_orders=contact_orders,
        bundle_exponents=exponents,
        target_orders=target_orders,
        orders=orders,
        matrix_a=a_sub,
        matrix_b=b_sub,
        matrix_c=c_sub,
    )


# -- single-dicritical certificates ---------------------------------------------


@dataclass(frozen=True)
class SingleDicriticalCertificate(Certificate):
    base: LastDicriticalCertificate
    s: int
    degree: int
    later_exponents: Mapping[int, int]
    pole_power: int
    numer_orders: tuple[int, ...]
    denom_orders: tuple[int, ...]
    aux_orders: tuple[int, ...]
    orders: tuple[int, ...]
    threshold_form: LinearForm
    window_forms: Mapping[int, LinearForm]
    weights: Mapping[int, int]
    aux_floor: int | None
    doublings: int

    kind = "single"

    def __post_init__(self):
        if any(k < 1 for k in self.later_exponents.values()):
            raise SolverError("later hypercurvette powers must be positive")
        if self.pole_power < 1:
            raise SolverError("the pole power must be a positive honest power")

    def window(self, i: int) -> tuple[LinearForm, LinearForm]:
        """Lower and upper bounding forms for the pole power at divisor i."""
        return self.threshold_form, self.threshold_form + self.window_forms[i]


def aux_order_bounds(m: int, s: int, special_exponents: Mapping[int, int], n: int) -> tuple[int, dict[int, int]]:
    """Smallest auxiliary orders that survive the worst-case doubling of
    special-hypersurface multiplicities under the later blow-ups.

    Returns the common floor for free divisors below s and the per-parent
    minimal contact orders.
    """
    k = len(special_exponents)
    r_max = max(special_exponents.values(), default=1)
    bound = (2 ** (m - s)) * r_max * k * n
    floor = bound + 1
    contacts = {}
    for j, r in special_exponents.items():
        contacts[j] = bound // r + 1
    return floor, contacts


MAX_DOUBLINGS = 4  # doublings of the chosen orders before a too-small auxiliary order stands


def candidate_tables(
    d: ModificationDescriptor, base: LastDicriticalCertificate
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orders along every divisor of the numerator and the denominator of the
    untwisted candidate, through weighted multiplicity tables and the order
    recursion.

    Each bundle hypercurvette goes into the numerator table with its exponent
    when that is positive, and into the denominator table with the exponent
    negated otherwise.  The special hypersurfaces go into the denominator with
    their (positive) exponents and their multiplicities at s and, from the
    tail of ``d``, at the later centers; the hypercurvette of s raised to the
    degree goes into both tables.
    """
    s = base.s
    num, den = [0] * d.m, [0] * d.m

    def add(table, weight, row):
        for t, v in enumerate(row):
            table[t] += weight * v

    for x, row in zip(base.bundle_exponents, d.curvette_mults):
        if x > 0:
            add(num, x, row)
        else:
            add(den, -x, row)
    for j in base.special_owners:
        add(den, base.special_exponents[j], special_mults_row(d, s, j, base.contact_orders[j]))
    for table in (num, den):
        add(table, base.degree, d.curvette_mults[s - 1])
    return pullback_orders(d, num), pullback_orders(d, den)


def later_mults(d: ModificationDescriptor, s: int) -> dict[int, list[int]]:
    """Multiplicities at every center of the hypercurvette of each divisor after
    s; those at the centers after s come from the tail of ``d``, which must be
    for s."""
    tail = d.tail
    return {
        j: [*d.curvette_mults[j - 1][:s], *[tail.mu_curvettes.get(t, {}).get(j, 0) for t in range(s + 1, d.m + 1)]]
        for j in range(s + 1, d.m + 1)
    }


def aux_orders(d: ModificationDescriptor, base: LastDicriticalCertificate, nu_f, nu_g) -> tuple[int, ...]:
    """Orders of the untwisted candidate; checked against the descent sets.

    A later divisor must have auxiliary order zero exactly when the image
    of its center avoids every divisor strictly below s.  A negative or
    unexpectedly zero value means the chosen orders were too small.
    """
    s = base.s
    aux = tuple(f - g for f, g in zip(nu_f, nu_g))
    for i in range(1, s):
        if aux[i - 1] <= 0:
            raise BoundViolation(f"auxiliary order at divisor {i} must be positive", index=i)
    if aux[s - 1] != 0:
        raise SolverError(f"auxiliary order at divisor {s} must vanish, got {aux[s - 1]}")
    lows = low_sets(d, s)
    for i in range(s + 1, d.m + 1):
        if lows[i] & set(range(1, s)):
            if aux[i - 1] <= 0:
                raise BoundViolation(
                    f"auxiliary order at divisor {i} is {aux[i - 1]}; chosen orders are too small",
                    index=i,
                )
        elif aux[i - 1] != 0:
            raise SolverError(f"auxiliary order at divisor {i} should vanish by the descent rule, got {aux[i - 1]}")
    return aux


def window_forms(
    d: ModificationDescriptor,
    s: int,
    aux: Sequence[int],
    nu_f: Sequence[int],
    later_rows: Mapping[int, Sequence[int]],
    a_ss: int,
) -> tuple[LinearForm, dict[int, int], dict[int, LinearForm]]:
    """The threshold form, and the weights and window forms of the later
    divisors with zero auxiliary order.

    The numerator form N_i at divisor i is its order after twisting by the
    powers k_j of the later hypercurvettes with order rows ``later_rows``,
    N_i = nu_f[i] + sum_j k_j·L_j[i], affine-linear in k_j; the threshold form
    is N_s / a_ss.  A later divisor i with zero auxiliary order has weight
    w_i, the sum of the weights of its parents with w_s = 1, and imposes that
    the pole power be less than the threshold plus its window form
    (N_i - w_i·N_s) / (w_i·a_ss), whose coefficients must be positive.
    """

    def form(i: int, weight: int, den: int) -> LinearForm:
        """(N_i - weight·N_s) / den."""
        return LinearForm.make(
            Fraction(nu_f[i - 1] - weight * nu_f[s - 1], den),
            {j: Fraction(row[i - 1] - weight * row[s - 1], den) for j, row in later_rows.items()},
        )

    weights: dict[int, int] = {s: 1}
    windows: dict[int, LinearForm] = {}
    for i in range(s + 1, d.m + 1):
        if aux[i - 1] != 0:
            continue
        # aux_orders checked the descent rule, so each parent of i is s or a zero-aux later divisor
        weight = sum(weights[p] for p in d.parents(i))
        window = form(i, weight, weight * a_ss)
        if any(c <= 0 for c in window.coeffs.values()):
            raise SolverError(f"window form at divisor {i} has a nonpositive coefficient")
        weights[i] = weight
        windows[i] = window
    weights.pop(s)
    return form(s, 0, a_ss), weights, windows


def choose_exponents(
    threshold_form: LinearForm, windows: Mapping[int, LinearForm], later: Iterable[int]
) -> tuple[dict[int, int], int]:
    """Pick the later exponents and the pole power.

    All later exponents share the least value u >= 1 at which every window
    form exceeds 1; the pole power is then the smallest integer above the
    threshold, so it lies below the threshold plus every window form.
    """
    uniform = 1
    for w in windows.values():
        slope = sum(w.coeffs.values())
        if slope <= 0:
            raise SolverError("a window form must grow with the later exponents")
        uniform = max(uniform, (1 - w.const) // slope + 1)
    assign = dict.fromkeys(later, uniform)
    return assign, threshold_form.evaluate(assign) // 1 + 1


def tail_descriptor(d: ModificationDescriptor, s: int, tail: TailData | None = None) -> ModificationDescriptor:
    """``d`` carrying the multiplicity data for the centers after s.

    The data is ``tail``, else ``d.tail``; it must be for s, and only s = m
    may go without (there are no later centers).  ``d`` is valid already,
    with its own tail, so that tail gives ``d`` itself; only another tail is
    validated (``ModificationDescriptor.with_tail``), and one that
    contradicts ``d`` is rejected here.
    """
    tail = d.tail if tail is None else tail
    if tail is None:
        if s != d.m:
            raise SolverError("multiplicity data for the centers beyond s is required")
        tail = TailData(s=s)
    if tail.s != s:
        raise SolverError(f"tail data is for index {tail.s}, not {s}")
    return d if tail is d.tail else d.with_tail(tail)


def solve_single_dicritical(
    d: ModificationDescriptor,
    s: int,
    degree: int,
    special_exponents: Mapping[int, int] | None = None,
    contact_orders: Mapping[int, int] | None = None,
    target_orders: Mapping[int, int] | None = None,
    tail: TailData | None = None,
) -> SingleDicriticalCertificate:
    """Full pipeline: divisor s dicritical of the given degree, all others not.

    The tail data comes from ``tail_descriptor`` and rides on the descriptor
    from then on.  The orders come from ``request_maps``, which checks the
    request once, so an entry that ``contact_orders`` or ``target_orders``
    leaves out is 1, as for every other request.  When neither map is
    supplied the orders start instead at the safe floors from
    ``aux_order_bounds``.  If the auxiliary orders still come out too small
    (heavy special-hypersurface multiplicities), every chosen contact and
    target order is doubled and the pipeline retries, up to
    ``MAX_DOUBLINGS`` doublings.
    """
    d = tail_descriptor(d, s, tail)
    matrix = valuation_matrix(d)
    special_exponents, contacts, targets = request_maps(
        d, s, degree, special_exponents, contact_orders, target_orders, positive_targets=True
    )
    floor = None
    if contact_orders is None and target_orders is None:
        floor, contacts = aux_order_bounds(d.m, s, special_exponents, d.n)
        targets = dict.fromkeys(targets, floor)

    doublings = 0
    while True:
        base = _solve_last(d, matrix, s, degree, special_exponents, contacts, targets)
        nu_f, nu_g = candidate_tables(d, base)
        try:
            aux = aux_orders(d, base, nu_f, nu_g)
            break
        except BoundViolation:
            if doublings >= MAX_DOUBLINGS:
                raise
        doublings += 1
        contacts = {j: 2 * v for j, v in contacts.items()}
        targets = {i: 2 * v for i, v in targets.items()}

    later_rows = {j: pullback_orders(d, row) for j, row in later_mults(d, s).items()}
    a_ss = matrix.entry(s, s)
    threshold_form, weights, windows = window_forms(d, s, aux, nu_f, later_rows, a_ss)
    assign, pole = choose_exponents(threshold_form, windows, later_rows)

    # Final orders at the chosen exponents: the twist adds the same integer
    # orders to the numerator and the denominator.
    twist = [sum(k * later_rows[j][i] for j, k in assign.items()) for i in range(d.m)]
    numer = tuple(f + t for f, t in zip(nu_f, twist))
    denom = tuple(g + t for g, t in zip(nu_g, twist))
    orders = tuple(numer[i - 1] - min(denom[i - 1], pole * matrix.entry(s, i)) for i in range(1, d.m + 1))
    if orders[s - 1] != 0:
        raise SolverError(f"order at divisor {s} must vanish, got {orders[s - 1]}")
    if not pole > Fraction(numer[s - 1], a_ss):
        raise SolverError("pole power does not exceed the vanishing threshold")
    for i in range(1, d.m + 1):
        if i != s and orders[i - 1] <= 0:
            raise SolverError(f"order at divisor {i} must be positive, got {orders[i - 1]}")
        if orders[i - 1] < aux[i - 1]:
            raise SolverError(f"order at divisor {i} dropped below the auxiliary order")

    return SingleDicriticalCertificate(
        base=base,
        s=s,
        degree=degree,
        later_exponents=assign,
        pole_power=pole,
        numer_orders=numer,
        denom_orders=denom,
        aux_orders=aux,
        orders=orders,
        threshold_form=threshold_form,
        window_forms=windows,
        weights=weights,
        aux_floor=floor,
        doublings=doublings,
    )


# -- combined profiles ----------------------------------------------------------


@dataclass(frozen=True)
class ProfileCertificate(Certificate):
    """Plan for a product of fraction-twisted single-dicritical functions."""

    degrees: Mapping[int, int]
    parts: Mapping[int, SingleDicriticalCertificate]
    mobius_note: str = (
        "pick distinct generic constants a_j, b_j avoiding the finitely many "
        "constant values of the non-dicritical restrictions"
    )

    kind = "profile"

    def envelope(self) -> dict:
        mobius = {str(k): {"a": f"generic a_{k}", "b": f"generic b_{k}"} for k in sorted(self.parts)}
        return {**super().envelope(), "mobius": mobius}


def combine_profile(parts: Sequence[SingleDicriticalCertificate]) -> ProfileCertificate:
    """Combine one certificate per target divisor into a product plan."""
    if not parts:
        raise SolverError("at least one target divisor is required")
    seen: dict[int, SingleDicriticalCertificate] = {}
    for cert in parts:
        if cert.s in seen:
            raise SolverError(f"duplicate target divisor {cert.s}")
        seen[cert.s] = cert
    return ProfileCertificate(degrees={cert.s: cert.degree for cert in parts}, parts=seen)


def certificate_from_json(data):
    return read_kinded(
        (SupportCertificate, LastDicriticalCertificate, SingleDicriticalCertificate, ProfileCertificate),
        data,
        "certificate",
    )
