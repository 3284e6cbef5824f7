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

All systems are square with unimodular matrices, so the solutions are exact
integers; each certificate carries the full predicted order vector, which is
recomputed independently through the order recursion before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .descriptor import (
    ModificationDescriptor,
    TailData,
    ValuationMatrix,
    low_sets,
    pullback_orders,
    special_mults_row,
    special_rows,
    valuation_matrix,
)
from .errors import BoundViolation, ScenarioError, SolverError
from .jsonio import SCHEMA_VERSION, Kinded, fraction_from_json, fraction_to_json, read_kinded
from .linalg import solve_row_system

NON_DICRITICAL = "non_dicritical"
DICRITICAL_POS = "dicritical_pos"
DICRITICAL_IF_SPLIT = "dicritical_if_split"


# -- linear forms -------------------------------------------------------------


@dataclass(frozen=True)
class LinearForm:
    """Exact affine-linear form in integer-indexed unknowns."""

    const: Fraction = Fraction(0)
    coeffs: tuple[tuple[int, Fraction], ...] = ()

    @classmethod
    def make(cls, const=0, coeffs: Mapping[int, Fraction | int] | None = None) -> "LinearForm":
        items = []
        for idx in sorted(coeffs or {}):
            c = Fraction(coeffs[idx])
            if c:
                items.append((idx, c))
        return cls(Fraction(const), tuple(items))

    def __add__(self, other: "LinearForm | int | Fraction") -> "LinearForm":
        if not isinstance(other, LinearForm):
            return LinearForm(self.const + Fraction(other), self.coeffs)
        merged = dict(self.coeffs)
        for k, c in other.coeffs:
            merged[k] = merged.get(k, Fraction(0)) + c
        return LinearForm.make(self.const + other.const, merged)

    def __sub__(self, other: "LinearForm | int | Fraction") -> "LinearForm":
        if not isinstance(other, LinearForm):
            return self + (-Fraction(other))
        return self + other.scale(-1)

    def scale(self, factor: Fraction | int) -> "LinearForm":
        f = Fraction(factor)
        return LinearForm.make(self.const * f, {k: c * f for k, c in self.coeffs})

    def evaluate(self, assignment: Mapping[int, int | Fraction]) -> Fraction:
        total = self.const
        for k, c in self.coeffs:
            total += c * Fraction(assignment[k])
        return total

    def to_json(self) -> dict:
        return {
            "const": fraction_to_json(self.const),
            "coeffs": {str(k): fraction_to_json(c) for k, c in self.coeffs},
        }

    @classmethod
    def from_json(cls, data: dict) -> "LinearForm":
        coeffs = {int(k): fraction_from_json(v, "coefficient") for k, v in data.get("coeffs", {}).items()}
        form = cls.make(fraction_from_json(data["const"], "constant"), coeffs)
        if form.to_json() != data:
            raise ScenarioError(f"linear form {data!r} is not in the form the writer writes")
        return form


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
    m = matrix.size
    target_set = set(targets)
    if not target_set:
        raise SolverError("the target set must be nonempty")
    if not target_set <= set(range(1, m + 1)):
        raise SolverError(f"targets must lie in 1..{m}")
    offsets = dict(offsets or {})
    for j in offsets:
        if j in target_set:
            raise SolverError(f"divisor {j} is a target; it cannot carry an off-target order")
    orders = []
    for j in range(1, m + 1):
        if j in target_set:
            orders.append(0)
        else:
            value = offsets.setdefault(j, 1)
            if value == 0:
                raise SolverError(f"off-target order for divisor {j} must be nonzero")
            orders.append(value)
    exponents = solve_row_system([list(row) for row in matrix.rows], orders)
    needs_split = tuple(j for j in sorted(target_set) if exponents[j - 1] == 0)
    return SupportCertificate(
        exponents=exponents,
        orders=tuple(orders),
        targets=tuple(sorted(target_set)),
        offsets=offsets,
        needs_split=needs_split,
    )


def classify(orders: Sequence[int], exponents: Sequence[int]) -> tuple[str, ...]:
    """Status of each divisor from its order and bundle exponent."""
    if len(orders) != len(exponents):
        raise SolverError("orders and exponents must have equal length")
    out = []
    for n, r in zip(orders, exponents):
        if n != 0:
            out.append(NON_DICRITICAL)
        elif r != 0:
            out.append(DICRITICAL_POS)
        else:
            out.append(DICRITICAL_IF_SPLIT)
    return tuple(out)


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


def solve_last_dicritical(
    d: ModificationDescriptor,
    s: int,
    degree: int,
    special_exponents: Mapping[int, int] | None = None,
    contact_orders: Mapping[int, int] | None = None,
    target_orders: Mapping[int, int] | None = None,
    tail: TailData | None = None,
) -> LastDicriticalCertificate:
    """Solve the reduced square system for the bundle exponents below s.

    The divisor s gets order zero and restriction degree ``degree``; each
    parent j of s gets order (special exponent) * (contact order); every
    other divisor below s gets a prescribed nonzero order (default +1).
    """
    return _solve_last(d, valuation_matrix(d), s, degree, special_exponents, contact_orders, target_orders, tail)


def _solve_last(d, matrix, s, degree, special_exponents, contact_orders, target_orders, tail):
    """``solve_last_dicritical`` on a valid descriptor with its valuation matrix."""
    if not (1 <= s <= d.m):
        raise SolverError(f"index {s} out of range 1..{d.m}")
    if degree < 1:
        raise SolverError("the prescribed degree must be >= 1")
    owners = sorted(d.parents(s))
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

    _check_order_identity(matrix, s, owners)
    b_rows = special_rows(d, s, contact_orders, tail=tail) if owners else ()

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
    exponents = solve_row_system([list(r) for r in a_sub], rhs) if s > 1 else ()

    orders = tuple(
        target_orders.get(i, 0)
        if i not in owners and i != s
        else (special_exponents[i] * contact_orders[i] if i in owners else 0)
        for i in range(1, s + 1)
    )
    _verify_last_certificate(d, matrix, b_rows, owners, s, exponents, special_exponents, orders)
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


def _table_orders(d: ModificationDescriptor, signed, shared=()) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orders along every divisor of the numerator and the denominator of a
    product of powers, through weighted multiplicity tables and the order
    recursion.

    Each ``(weight, row)`` pair stands for a hypersurface with strict
    multiplicities ``row`` at the first ``len(row)`` centers, raised to
    ``weight``.  A pair in ``signed`` goes into the numerator table when its
    weight is positive and, with the weight negated, into the denominator
    table otherwise; a pair in ``shared`` goes into both.
    """
    num, den = [0] * d.m, [0] * d.m
    entries = [(w, row, (num,)) if w > 0 else (-w, row, (den,)) for w, row in signed]
    entries += [(w, row, (num, den)) for w, row in shared]
    for weight, row, tables in entries:
        for table in tables:
            for t, v in enumerate(row):
                table[t] += weight * v
    return pullback_orders(d, num), pullback_orders(d, den)


def _check_order_identity(matrix, s, owners):
    """The column at s must decompose through the parents of s (order identity)."""
    for i in range(1, s + 1):
        expected = sum(matrix.entry(i, j) for j in owners) + (1 if i == s else 0)
        if matrix.entry(i, s) != expected:
            raise SolverError(
                f"hypercurvette orders violate the recursion at column {s}, row {i}; descriptor is inconsistent"
            )


def _verify_last_certificate(d, matrix, b_rows, owners, s, exponents, special_exponents, orders):
    """Substitute the solution into all s equations, including the eliminated one,
    and recompute the order vector through the order recursion."""
    # Independent route: weighted multiplicity tables through the recursion.
    n_plus, n_minus = _table_orders(d, [(exponents[i - 1], d.curvette_mults[i - 1]) for i in range(1, s)])
    for t in range(1, s + 1):
        via_rows = sum(exponents[i - 1] * matrix.entry(i, t) for i in range(1, s))
        value = via_rows - sum(special_exponents[j] * b_rows[idx][t - 1] for idx, j in enumerate(owners))
        expected = orders[t - 1] if t < s else 0
        if value != expected:
            raise SolverError(f"solved exponents do not satisfy equation {t}: {value} != {expected}")
        if n_plus[t - 1] - n_minus[t - 1] != via_rows:
            raise SolverError("order recursion disagrees with the matrix rows; internal error")


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
CHOOSE_CAP = 1_000_000  # largest uniform later exponent that ``choose_exponents`` tries


def candidate_tables(d: ModificationDescriptor, base: LastDicriticalCertificate, tail: TailData):
    """Signed multiplicity rows of the untwisted candidate and the orders of its
    numerator and denominator along every divisor.

    The rows are the bundle hypercurvettes with their signed exponents, then
    the special hypersurfaces (positive exponents, in the denominator) with
    their multiplicities at s and, from the tail, at the later centers; the
    hypercurvette of s raised to the degree goes into both tables.
    """
    s = base.s
    signed = [(base.bundle_exponents[i - 1], d.curvette_mults[i - 1]) for i in range(1, s)]
    signed += [
        (-base.special_exponents[j], special_mults_row(d, s, j, base.contact_orders[j], tail))
        for j in base.special_owners
    ]
    nu_f, nu_g = _table_orders(d, signed, [(base.degree, d.curvette_mults[s - 1])])
    return signed, nu_f, nu_g


def later_mults(d: ModificationDescriptor, s: int, tail: TailData) -> dict[int, list[int]]:
    """Multiplicities at every center of the hypercurvette of each divisor after
    s; the tail gives those at the centers after s."""
    return {
        j: [d.curvette_mult(j, t) if t <= s else tail.mu_curvettes.get(t, {}).get(j, 0) for t in range(1, d.m + 1)]
        for j in range(s + 1, d.m + 1)
    }


def order_forms(orders: Sequence[int], later_rows: Mapping[int, Sequence[int]]) -> tuple[LinearForm, ...]:
    """Orders along every divisor after twisting by the powers k_j of the later
    hypercurvettes with order rows ``later_rows``, as affine-linear forms in k_j."""
    return tuple(
        LinearForm.make(v, {j: row[i] for j, row in later_rows.items()}) for i, v in enumerate(orders)
    )


def aux_orders(
    d: ModificationDescriptor, base: LastDicriticalCertificate, tail: TailData, nu_f, nu_g
) -> tuple[int, ...]:
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
    later = range(s + 1, d.m + 1)
    lows = low_sets(d, s)
    for i in later:
        if lows[i] & set(range(1, s)):
            if aux[i - 1] <= 0:
                raise BoundViolation(
                    f"auxiliary order at divisor {i} is {aux[i - 1]}; chosen orders are too small",
                    index=i,
                )
        elif aux[i - 1] != 0:
            raise SolverError(f"auxiliary order at divisor {i} should vanish by the descent rule, got {aux[i - 1]}")
    # Recursion cross-check through parents and special multiplicities.
    for i in later:
        expected = sum(aux[a - 1] for a in d.parents(i))
        for j, mu in tail.mu_specials.get(i, {}).items():
            expected -= base.special_exponents[j] * mu
        if aux[i - 1] != expected:
            raise SolverError(f"auxiliary order recursion failed at divisor {i}")
    return aux


def window_forms(
    d: ModificationDescriptor, s: int, tail: TailData, aux: Sequence[int], numer_forms, a_ss: int
) -> tuple[dict[int, int], dict[int, LinearForm]]:
    """Weights and window forms for the later divisors with zero auxiliary order.

    Each such divisor imposes that the pole power be less than the
    threshold plus its window form; the identity
    numerator_form(i) = weight(i) * (numerator_form(s) + a_ss * window(i))
    is verified symbolically.
    """
    weights: dict[int, int] = {s: 1}
    windows: dict[int, LinearForm] = {s: LinearForm.make(0)}
    for i in range(s + 1, d.m + 1):
        if aux[i - 1] != 0:
            continue
        parents = sorted(d.parents(i))
        if any(p < s or (p > s and p not in windows) for p in parents):
            raise SolverError(f"window recursion hit a divisor with nonzero auxiliary order at {i}")
        weight = sum(weights[p] for p in parents)
        form = LinearForm.make(0)
        for p in parents:
            form = form + windows[p].scale(Fraction(weights[p], weight))
        mu_row = tail.mu_curvettes.get(i, {})
        form = form + LinearForm.make(0, {j: Fraction(mu, weight * a_ss) for j, mu in mu_row.items()})
        if any(c <= 0 for _, c in form.coeffs):
            raise SolverError(f"window form at divisor {i} has a nonpositive coefficient")
        identity = numer_forms[s - 1] + form.scale(a_ss)
        if identity.scale(weight) != numer_forms[i - 1]:
            raise SolverError(f"window identity failed at divisor {i}")
        weights[i] = weight
        windows[i] = form
    weights.pop(s)
    windows.pop(s)
    return weights, windows


def choose_exponents(
    threshold_form: LinearForm, windows: Mapping[int, LinearForm], later: Iterable[int]
) -> tuple[dict[int, int], int]:
    """Pick the later exponents and the pole power.

    All later exponents share one value, raised until every window form
    exceeds 1 there; the pole power is then the smallest integer above
    the threshold, which the window length guarantees admissible.
    """
    for uniform in range(1, CHOOSE_CAP + 1):
        assign = {j: uniform for j in later}
        if all(w.evaluate(assign) > 1 for w in windows.values()):
            threshold = threshold_form.evaluate(assign)
            pole = threshold.numerator // threshold.denominator + 1
            upper_ok = all(pole < threshold + w.evaluate(assign) for w in windows.values())
            if pole > threshold and upper_ok:
                return assign, pole
    raise SolverError("no admissible exponents found below the search cap")


def _resolve_tail(d: ModificationDescriptor, s: int, tail: TailData | None) -> TailData:
    if tail is None:
        tail = d.tail
    if tail is None:
        if s == d.m:
            return TailData(s=s)
        raise SolverError("multiplicity data for the centers beyond s is required")
    if tail.s != s:
        raise SolverError(f"tail data is for index {tail.s}, not {s}")
    return tail


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

    When contact and target orders are not supplied they start at the safe
    floors from ``aux_order_bounds``.  If the auxiliary orders still come out
    too small (heavy special-hypersurface multiplicities), all chosen orders
    are doubled and the pipeline retries, up to ``MAX_DOUBLINGS`` doublings.
    """
    if not (1 <= s <= d.m):
        raise SolverError(f"index {s} out of range 1..{d.m}")
    tail = _resolve_tail(d, s, tail)
    d = replace(d, tail=tail)
    matrix = valuation_matrix(d)
    owners = sorted(d.parents(s))
    special_exponents = {j: 1 for j in owners} | dict(special_exponents or {})
    free = [i for i in range(1, s) if i not in owners]

    explicit = contact_orders is not None or target_orders is not None
    if explicit:
        contacts = dict(contact_orders) if contact_orders is not None else {j: 1 for j in owners}
        floor = None
        targets = dict(target_orders) if target_orders is not None else {i: 1 for i in free}
        # below s the construction needs positive orders, not merely nonzero ones
        if any(v < 1 for v in targets.values()):
            raise SolverError("target orders must be positive for a single-divisor construction")
    else:
        floor, contacts = aux_order_bounds(d.m, s, special_exponents, d.n)
        targets = {i: floor for i in free}

    doublings = 0
    while True:
        base = _solve_last(d, matrix, s, degree, special_exponents, contacts, targets, tail)
        signed, nu_f, nu_g = candidate_tables(d, base, tail)
        try:
            aux = aux_orders(d, base, tail, nu_f, nu_g)
            break
        except BoundViolation:
            if doublings >= MAX_DOUBLINGS:
                raise
        doublings += 1
        contacts = {j: 2 * v for j, v in contacts.items()}
        targets = {i: 2 * v for i, v in targets.items()}

    mults = later_mults(d, s, tail)
    later_rows = {j: pullback_orders(d, row) for j, row in mults.items()}
    numer_forms = order_forms(nu_f, later_rows)
    a_ss = matrix.entry(s, s)
    weights, windows = window_forms(d, s, tail, aux, numer_forms, a_ss)
    threshold_form = numer_forms[s - 1].scale(Fraction(1, a_ss))
    assign, pole = choose_exponents(threshold_form, windows, later_rows)

    # Final orders at the chosen exponents; the denominator's twist only ever
    # enters evaluated, so its orders are summed as integers.
    numer = tuple(int(f.evaluate(assign)) for f in numer_forms)
    denom = tuple(g + sum(k * later_rows[j][i] for j, k in assign.items()) for i, g in enumerate(nu_g))
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
    # Independent recompute of every order through weighted multiplicity tables.
    shared = [(degree, d.curvette_mults[s - 1])] + [(k, mults[j]) for j, k in assign.items()]
    nu_num, nu_den = _table_orders(d, signed, shared)
    nu_pole = pullback_orders(d, [pole * v for v in d.curvette_mults[s - 1]])
    for i in range(d.m):
        if numer[i] != nu_num[i] or denom[i] != nu_den[i]:
            raise SolverError("table recompute disagrees with the twisted orders; internal error")
        if orders[i] != nu_num[i] - min(nu_den[i], nu_pole[i]):
            raise SolverError("final orders disagree with the table recompute; internal error")

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


def combine_profile(
    parts: Sequence[SingleDicriticalCertificate],
    degrees: Mapping[int, int] | None = None,
) -> ProfileCertificate:
    """Combine one certificate per target divisor into a product plan."""
    if not parts:
        raise SolverError("at least one target divisor is required")
    seen: dict[int, SingleDicriticalCertificate] = {}
    for cert in parts:
        if cert.s in seen:
            raise SolverError(f"duplicate target divisor {cert.s}")
        seen[cert.s] = cert
    degs = {cert.s: cert.degree for cert in parts}
    if degrees is not None:
        if dict(degrees) != degs:
            raise SolverError("requested degrees disagree with the certificates")
    return ProfileCertificate(degrees=degs, parts=seen)


def certificate_from_json(data):
    return read_kinded(
        (SupportCertificate, LastDicriticalCertificate, SingleDicriticalCertificate, ProfileCertificate),
        data,
        "certificate",
    )
