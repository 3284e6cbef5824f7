"""Symbolic chart towers: blow-ups with coordinate centers, plus shears.

A tower is a list of steps over a fixed ambient coordinate ring.  A blow-up
step names a coordinate subspace (two or more variables) as its center and
one of those variables as the default chart; pulling a function back into the
chart substitutes center variables by (chart variable) * (variable).  A shear
renames coordinates by an invertible triangular translation, which is how
non-coordinate centers (a conic inside a divisor, a translated line) are
brought into coordinate position.

The local equation of every exceptional divisor still visible in a chart
depends on the tower and the chart path alone, not on a function: the tower
pushes them through once per chart path and keeps them
(``ChartTower.divisor_eqs``), ``check_tower`` reads the default path's, and
a walk looks them up and pushes only its polynomials.  A walk keeps a stage
after each blow-up: the walked polynomials and divisor equations, exactly
what a walk stopped there gives.  ``path_walks`` walks a function once per
chart override, as far as the highest stage read there; every order,
restriction, status and degree is a stage read.  The walked polynomials
are the leaves of h (``ratfunc.LeafQuotient``), and ``read_divisor`` reads
h's order along a divisor and its restriction together off their orders
and lowest slices, so h is never multiplied out; a ``RationalFunction`` or
``Quotient`` is read as its two-leaf form.  The order along E_i is a
divisorial valuation, so it is the same at every stage where E_i's
equation is a chart variable: at stage i, and at each stage its
restriction is read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, itemgetter, mul, sub
from typing import Mapping, NamedTuple, Sequence

from .descriptor import ModificationDescriptor
from .errors import ChartError, GenericityError, PolynomialError, ScenarioError
from .jsonio import FieldCodec, json_field
from .poly import Polynomial, polynomial_gcd
from .ratfunc import LeafQuotient, Quotient, RationalFunction, as_leaf_quotient, render_pair

PARAM = "param"
CONST = "const"
ZERO = "zero"


@dataclass(frozen=True)
class BlowupStep(FieldCodec):
    center: tuple[str, ...]
    chart: str

    def __post_init__(self):
        if len(set(self.center)) != len(self.center) or len(self.center) < 2:
            raise ChartError("a blow-up center needs at least two distinct variables")
        if self.chart not in self.center:
            raise ChartError("the chart variable must belong to the center")


@dataclass(frozen=True)
class ShearStep(FieldCodec):
    target: str
    shift: Polynomial  # new target = old target - shift(other variables)

    def __post_init__(self):
        if self.shift.degree_in(self.target) > 0:
            raise ChartError("a shear must be triangular: the shift cannot involve its target")

    def image(self, variables: tuple[str, ...]) -> dict[str, Polynomial]:
        """The substitution of the shear in the ring of ``variables``."""
        return {self.target: _coordinate(variables, self.target) + self.shift}


Step = BlowupStep | ShearStep
_STEP_TAGS = {"blowup": BlowupStep, "shear": ShearStep}


def _steps_to_json(steps: Sequence[Step]) -> list:
    return [{"blowup" if isinstance(step, BlowupStep) else "shear": step.to_json()} for step in steps]


def _steps_from_json(data, what: str) -> tuple[Step, ...]:
    """A list of steps, each tagged by exactly one of ``blowup`` and ``shear``."""
    if type(data) is not list:
        raise ScenarioError(f"{what} must be a list of steps, got {data!r}")
    steps = []
    for entry in data:
        if type(entry) is not dict or len(entry) != 1 or not entry.keys() <= _STEP_TAGS.keys():
            raise ScenarioError(f"{what} holds {entry!r}, which is not one {{blowup: ...}} or {{shear: ...}}")
        ((tag, body),) = entry.items()
        steps.append(_STEP_TAGS[tag].from_json(body))
    return tuple(steps)


@dataclass(frozen=True)
class ChartTower(FieldCodec):
    variables: tuple[str, ...] = json_field(key="vars")
    steps: tuple[Step, ...] = json_field(codec=(_steps_to_json, _steps_from_json))

    def __post_init__(self):
        for step in self.steps:
            names = step.center if isinstance(step, BlowupStep) else (step.target,)
            for name in names:
                if name not in self.variables:
                    raise ChartError(f"step uses unknown variable {name!r}")

    @property
    def centers(self) -> tuple[tuple[str, ...], ...]:
        """The center of each blow-up step, in order."""
        return tuple(s.center for s in self.steps if isinstance(s, BlowupStep))

    @property
    def blowup_count(self) -> int:
        return len(self.centers)

    @cached_property
    def _path_eqs(self) -> dict[tuple[str, ...] | None, list[dict[int, Polynomial]]]:
        return {}

    def divisor_eqs(self, charts: Sequence[str] | None = None) -> list[dict[int, Polynomial]]:
        """The local equation of each exceptional divisor visible on the chart
        path ``charts`` (None for the default charts) after every step: entry
        k holds them after the first k steps.  Each tower object pushes them
        through once per path and keeps them.  A path with more charts than
        blow-ups, or with a chart outside its center, raises ``ChartError``:
        this is the one check of a chart path, and every walk makes it."""
        key = None if charts is None else tuple(charts)
        eqs = self._path_eqs.get(key)
        if eqs is None:
            eqs = self._path_eqs[key] = _push_divisor_eqs(self, key)
        return eqs


@dataclass(frozen=True)
class LineClassSpec(FieldCodec):
    """Parametrized representative of a curve class inside one divisor.

    Each chart variable is a parameter, a generic constant, or zero; the
    divisor's own local equation must be assigned zero so the curve lies in
    the divisor.  Which divisor is the caller's: the key of
    ``Scenario.lines``, the argument of ``dicritical_degree``.  Which curve
    class this template represents is the scenario author's choice.  The
    constants are never drawn: they stay symbols, so the degree measured is
    the one at generic constants.  The JSON form is ``{assign}``.
    """

    assign: Mapping[str, str]

    def __post_init__(self):
        for name, role in self.assign.items():
            if role not in (PARAM, CONST, ZERO):
                raise ChartError(f"line template role must be param/const/zero, got {role!r}")
        if sum(1 for r in self.assign.values() if r == PARAM) != 1:
            raise ChartError("a line template needs exactly one parameter variable")


Stage = tuple[list[Polynomial], dict[int, Polynomial]]


@dataclass
class WalkState:
    """A walk in progress; ``stages[k]`` holds the polynomials and divisor
    equations right after k blow-ups, shared with the walk, not copied."""

    polys: list[Polynomial]
    divisor_eqs: dict[int, Polynomial]
    blowups_done: int
    stages: list[Stage] = field(init=False)

    def __post_init__(self):
        self.stages = [(self.polys, self.divisor_eqs)]


def _apply_blowup(poly: Polynomial, center: tuple[str, ...], chart: str) -> Polynomial:
    """The pullback of ``poly`` to the chart: the chart variable's exponent
    becomes the sum of the center's exponents.  The map is injective on
    exponent tuples and keeps every coefficient, so the terms stay in
    stored form."""
    idx = poly.variables.index(chart)
    center_exps = itemgetter(*map(poly.variables.index, center))
    return Polynomial._wrap(
        poly.variables,
        {e[:idx] + (sum(center_exps(e)),) + e[idx + 1 :]: c for e, c in poly._terms.items()},
    )


def _coordinate(variables: tuple[str, ...], name: str) -> Polynomial:
    """The coordinate ``name`` of the tower's ring, built as a trusted monomial."""
    return Polynomial._trusted(variables, {tuple(int(v == name) for v in variables): 1})


def _coordinate_name(eq: Polynomial) -> str | None:
    """The variable ``eq`` is, when it is one coordinate: a single unit term."""
    if len(eq._terms) == 1:
        ((exps, coeff),) = eq._terms.items()
        if coeff == 1 and sum(exps) == 1:
            return eq.variables[exps.index(1)]
    return None


def _blowup_chart(step: BlowupStep, charts: Sequence[str] | None, done: int) -> str:
    """The chart of the blow-up ``step`` after ``done`` others; ``charts`` overrides the default."""
    return charts[done] if charts is not None and done < len(charts) else step.chart


def _push_divisor_eqs(tower: ChartTower, charts: Sequence[str] | None) -> list[dict[int, Polynomial]]:
    """The divisor equations along a chart path after every step (see
    ``ChartTower.divisor_eqs``).  A shear substitutes into every equation.
    Through a blow-up an equation loses its power of the chart variable, one
    that becomes a constant leaves (its divisor is not visible in the chart),
    and the new divisor's equation is the chart variable."""
    if charts is not None and len(charts) > tower.blowup_count:
        raise ChartError(f"{len(charts)} charts given for {tower.blowup_count} blow-ups")
    variables = tower.variables
    path: list[dict[int, Polynomial]] = [{}]
    done = 0
    for step in tower.steps:
        if isinstance(step, ShearStep):
            image = step.image(variables)
            path.append({i: e.substitute(image) for i, e in path[-1].items()})
            continue
        chart = _blowup_chart(step, charts, done)
        if chart not in step.center:
            raise ChartError(f"chart variable {chart!r} is not in the center {step.center}")
        done += 1
        new_eqs: dict[int, Polynomial] = {}
        for idx, eq in path[-1].items():
            name = _coordinate_name(eq)
            if name is not None:  # a coordinate stays itself, unless it is the chart variable
                if name != chart:
                    new_eqs[idx] = eq
                continue
            moved = _apply_blowup(eq, step.center, chart)
            drop = moved.order_in(chart)
            if drop:
                moved = moved.divide_by_monomial(tuple(drop if v == chart else 0 for v in variables))
            if not moved.is_constant():
                new_eqs[idx] = moved
        new_eqs[done] = _coordinate(variables, chart)
        path.append(new_eqs)
    return path


def walk_tower(
    tower: ChartTower,
    polys: Sequence[Polynomial],
    charts: Sequence[str] | None = None,
    blowups: int | None = None,
) -> WalkState:
    """Push polynomials through the tower, one chart per blow-up step.

    ``charts`` overrides the default chart variable per blow-up; ``blowups``
    stops the walk right after that many blow-ups (shears in between are
    applied, trailing shears are not).  Only ``polys`` are pushed: the
    divisor equations are the tower's (``ChartTower.divisor_eqs``), whose
    push checks the whole chart path, past where the walk stops too.
    """
    limit = tower.blowup_count if blowups is None else blowups
    if not 0 <= limit <= tower.blowup_count:
        raise ChartError(f"blow-up count {limit} is outside 0..{tower.blowup_count}")
    state = WalkState(polys=list(polys), divisor_eqs={}, blowups_done=0)
    if any(poly.variables != tower.variables for poly in state.polys):
        raise PolynomialError("polynomial does not live in the tower's coordinate ring")
    path = tower.divisor_eqs(charts)
    for k, step in enumerate(tower.steps):
        if state.blowups_done >= limit:
            break
        if isinstance(step, ShearStep):
            image = step.image(tower.variables)
            state.polys = [p.substitute(image) for p in state.polys]
            state.divisor_eqs = path[k + 1]
            continue
        chart = _blowup_chart(step, charts, state.blowups_done)
        state.polys = [_apply_blowup(p, step.center, chart) for p in state.polys]
        state.blowups_done += 1
        state.divisor_eqs = path[k + 1]
        state.stages.append((state.polys, state.divisor_eqs))
    return state


def vanishes_on_center(eq: Polynomial, center: Sequence[str]) -> bool:
    """Whether ``eq`` vanishes on the coordinate subspace ``{center = 0}``:
    every term has a positive exponent in some variable of the center."""
    idxs = [eq.variables.index(name) for name in center]
    return all(any(exps[i] for i in idxs) for exps in eq._terms)


def check_tower(d: ModificationDescriptor, tower: ChartTower) -> None:
    """Verify the tower realizes the descriptor's center structure.

    Per blow-up: the center codimension matches the recorded dimension, and a
    visible divisor's local equation vanishes on the center exactly when the
    descriptor lists it as containing the center.  Invisible divisors cannot
    contain a center that lives in the current chart.  The divisor equations
    are the tower's in the default charts, which stay cached on it.
    """
    if tower.blowup_count != d.m:
        raise ChartError(f"tower has {tower.blowup_count} blow-ups, descriptor has {d.m}")
    if len(tower.variables) != d.n:
        raise ChartError(f"tower has {len(tower.variables)} variables, descriptor ambient dimension is {d.n}")
    path = tower.divisor_eqs()
    j = 0
    for k, step in enumerate(tower.steps):
        if isinstance(step, ShearStep):
            continue
        j += 1
        center = d.centers[j - 1]
        if d.n - len(step.center) != center.dim:
            raise ChartError(
                f"blow-up {j}: center {step.center} has dimension {d.n - len(step.center)}, "
                f"descriptor says {center.dim}"
            )
        contains = {idx for idx, eq in path[k].items() if vanishes_on_center(eq, step.center)}
        if contains != set(center.parents):
            raise ChartError(
                f"blow-up {j}: chart says the center lies in divisors {sorted(contains)}, "
                f"descriptor says {sorted(center.parents)}"
            )


def path_walks(
    tower: ChartTower,
    polys: Sequence[Polynomial],
    reads: Mapping[int, tuple[tuple[str, ...] | None, int]],
) -> dict[tuple[str, ...] | None, WalkState]:
    """Walk ``polys`` once per chart override that ``reads`` names.

    ``reads`` maps a divisor to its chart override (None for the default
    charts) and the blow-up count at which it is read.  Each override is
    walked as far as the highest count read there.
    """
    reach: dict[tuple[str, ...] | None, int] = {}
    for charts, blowups in reads.values():
        reach[charts] = max(reach.get(charts, 0), blowups)
    return {charts: walk_tower(tower, polys, charts, k) for charts, k in reach.items()}


def divisor_order(
    h: RationalFunction | Quotient | LeafQuotient,
    tower: ChartTower,
    divisor: int,
    charts: Sequence[str] | None = None,
) -> int:
    """Vanishing order of h along an exceptional divisor.

    Computed at the divisor's creating step, where its local equation is the
    chart variable; the value does not depend on the chart path because the
    numerator and denominator orders are read off together.  A
    ``RationalFunction`` or ``Quotient`` is read as its two-leaf form.
    """
    if not (1 <= divisor <= tower.blowup_count):
        raise ChartError(f"divisor {divisor} out of range 1..{tower.blowup_count}")
    form = as_leaf_quotient(h)
    state = walk_tower(tower, form.leaves, charts=charts, blowups=divisor)
    order, _ = read_divisor((form,), StageLeaves(state.stages[divisor], divisor))
    if order is None:
        raise ChartError("cannot take the order of the zero function")
    return order


@dataclass(frozen=True)
class Restriction:
    """Restriction of a pulled-back function to one exceptional divisor.

    ``read_divisor`` stores the reduced, canonically scaled pair, the
    numerator slice over a zero denominator for an infinite restriction, or
    (0, 1), read off the orders, where h vanishes along the divisor.
    """

    divisor: int
    num: Polynomial
    den: Polynomial
    chart_var: str

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_infinite(self) -> bool:
        return self.den.is_zero()

    def render(self) -> str:
        if self.is_infinite():
            return "inf"
        return render_pair(self.num, self.den)


def restrict(
    h: RationalFunction | Quotient | LeafQuotient,
    tower: ChartTower,
    divisor: int,
    charts: Sequence[str] | None = None,
    blowups: int | None = None,
) -> Restriction:
    """Restrict the pullback of h to a divisor, in a chart where it is visible.

    The shared power of the divisor's local equation is cleared from the
    numerator and denominator, then the equation is set to zero.  A nonzero
    order therefore yields the constant 0 or infinity.  A
    ``RationalFunction`` or ``Quotient`` is read as its two-leaf form.
    """
    form = as_leaf_quotient(h)
    stage = walk_tower(tower, form.leaves, charts=charts, blowups=blowups).stages[-1]
    return read_divisor((form,), StageLeaves(stage, divisor))[1]


def restriction_chart_variable(divisor_eqs: Mapping[int, Polynomial], divisor: int) -> str:
    """The coordinate that is the divisor's local equation among a walk's ``divisor_eqs``."""
    eq = divisor_eqs.get(divisor)
    if eq is None:
        raise ChartError(f"divisor {divisor} is not visible in the selected chart")
    chart_var = _coordinate_name(eq)
    if chart_var is None:
        raise ChartError(
            f"divisor {divisor} has local equation {eq.render()}; restriction needs a coordinate chart"
        )
    return chart_var


class StageLeaves:
    """The walked leaves of a function at one stage, read along a divisor
    visible there: each leaf's order along it, read when built, and on
    demand its lowest slice.  A zero leaf has order None.  Every figure is
    read off a walked polynomial."""

    __slots__ = ("polys", "divisor", "variables", "chart_var", "idx", "orders", "_slices")

    def __init__(self, stage: Stage, divisor: int):
        polys, divisor_eqs = stage
        self.chart_var = restriction_chart_variable(divisor_eqs, divisor)
        self.variables = divisor_eqs[divisor].variables
        self.idx = self.variables.index(self.chart_var)
        self.polys = polys
        self.divisor = divisor
        at = itemgetter(self.idx)
        self.orders = [min(map(at, p._terms)) if p._terms else None for p in polys]
        self._slices: dict[int, Polynomial] = {}

    def weight(self, exps: tuple[int, ...]) -> int | None:
        """The order of the leaf monomial with exponents ``exps``; None when
        it holds a zero leaf."""
        w = 0
        for e, o in zip(exps, self.orders):
            if e:
                if o is None:
                    return None
                w += e * o
        return w

    def _slice_of_leaf(self, j: int) -> Polynomial:
        s = self._slices.get(j)
        if s is None:
            s = self._slices[j] = self.polys[j].slice(self.idx, self.orders[j])
        return s

    def slice_of(self, terms: Mapping[tuple[int, ...], Fraction | int]) -> Polynomial:
        """The sum of leaf terms with every leaf replaced by its lowest slice, multiplied out."""
        return reduce(add, (self.monomial(exps, c) for exps, c in terms.items()))

    def monomial(self, exps: Sequence[int], coeff: Fraction | int) -> Polynomial:
        """``coeff`` times the product of the leaves' lowest slices to the powers ``exps``."""
        out = None
        for j, e in enumerate(exps):
            if e:
                s = self._slice_of_leaf(j)
                s = s if e == 1 else s**e
                out = s if out is None else out * s
        if out is None:
            return Polynomial._trusted(self.variables, {(0,) * len(self.variables): coeff})
        return out if coeff == 1 else out * coeff


class _Lowest(NamedTuple):
    """A side of a leaf form along the divisor: its order and the leaf terms
    that attain it, or None where their slices cancel and the side was
    multiplied out; ``slice`` is the lowest slice where finding the order
    took it."""

    order: int
    terms: Mapping[tuple[int, ...], Fraction | int] | None
    slice: Polynomial | None


def _lowest(side: Polynomial, leaves: StageLeaves) -> _Lowest | None:
    """The order and lowest part of one side of a leaf form, or None where
    it multiplies out to 0.

    The order of a leaf term is the sum of its leaves' orders, each times
    its exponent; the least of them is the order of the side unless the
    terms that attain it have slices summing to 0.  One term alone is
    nonzero, since the ring is a domain.  Tied terms take the exact sum of
    their slices, and only an exact 0 multiplies the side out over the
    walked leaves to read it directly.
    """
    best = None
    tied: dict[tuple[int, ...], Fraction | int] = {}
    for exps, coeff in side._terms.items():
        w = leaves.weight(exps)
        if w is None:
            return _multiplied_out(side, leaves)
        if best is None or w < best:
            best, tied = w, {exps: coeff}
        elif w == best:
            tied[exps] = coeff
    if best is None:
        return None
    if len(tied) == 1:
        return _Lowest(best, tied, None)
    exact = leaves.slice_of(tied)
    if exact:
        return _Lowest(best, tied, exact)
    return _multiplied_out(side, leaves)


def _multiplied_out(side: Polynomial, leaves: StageLeaves) -> _Lowest | None:
    """A side of a leaf form multiplied out over the walked leaves and read directly."""
    whole = side.substitute(dict(zip(side.variables, leaves.polys)), leaves.variables)
    if not whole:
        return None
    k = whole.order_in(leaves.chart_var)
    return _Lowest(k, None, whole.slice(leaves.idx, k))


def read_divisor(parts: Sequence[LeafQuotient], leaves: StageLeaves) -> tuple[int | None, Restriction]:
    """Order along the divisor and restriction to it of h, the product of
    the leaf forms ``parts``, read off their walked ``leaves``; each side's
    lowest part is found once and serves both.

    ord is a valuation, so the order is the sum of the numerators' orders
    minus the sum of the denominators'; it is None where h is 0.  A zero h
    or a positive order restricts to 0, returned as (0, 1) from the orders
    alone.  A negative one restricts to infinity: the product of the
    numerators' lowest slices over zero.  At order 0 the restriction is the
    reduced pair of lowest slices of the product, since the lowest slice of
    a product is the product of the lowest slices; what cancels is taken out
    first (``_cancelled_slices``), and the reduced canonical pair is unique,
    so it does not depend on how h is written.
    """
    divisor, variables, chart_var = leaves.divisor, leaves.variables, leaves.chart_var
    nums = [_lowest(part.num, leaves) for part in parts]
    total = None
    if None not in nums:
        dens = [_lowest(part.den, leaves) for part in parts]
        if None in dens:
            raise ChartError(f"a denominator of h multiplies out to 0 at divisor {divisor}")
        lows = list(zip(nums, dens))
        total = sum(num.order - den.order for num, den in lows)
    zero = Polynomial._wrap(variables, {})
    if total is None or total > 0:
        return total, Restriction(divisor, zero, Polynomial._wrap(variables, {(0,) * len(variables): 1}), chart_var)
    if total < 0:
        return total, Restriction(divisor, reduce(mul, (_slice_of(low, leaves) for low in nums)), zero, chart_var)
    num, den = _cancelled_slices(lows, leaves)
    if num.is_constant() or den.is_constant():
        reduced = RationalFunction._coprime(num, den)
    else:
        reduced = RationalFunction(num, den)
    return total, Restriction(divisor, reduced.num, reduced.den, chart_var)


def _slice_of(low: _Lowest, leaves: StageLeaves) -> Polynomial:
    return low.slice if low.slice is not None else leaves.slice_of(low.terms)


def _cancelled_slices(lows: list[tuple[_Lowest, _Lowest]], leaves: StageLeaves) -> tuple[Polynomial, Polynomial]:
    """The lowest slices of h's numerator and denominator at total order 0,
    multiplied out after what cancels is taken out: a part whose lowest
    numerator and denominator are proportional leaf polynomials gives that
    constant and no slice, and the leaf powers common to the two lowest
    monomials of h cancel by index.  Only what is left is multiplied out."""
    width = len(leaves.polys)
    num_exps, den_exps = [0] * width, [0] * width
    num_factors: list[Polynomial] = []
    den_factors: list[Polynomial] = []
    num_coeff = den_coeff = 1
    for num, den in lows:
        if num.terms is not None and den.terms is not None:
            ratio = _proportion(num.terms, den.terms)
            if ratio is not None:
                num_coeff *= ratio[0]
                den_coeff *= ratio[1]
                continue
        num_coeff *= _split(num, num_exps, num_factors, leaves)
        den_coeff *= _split(den, den_exps, den_factors, leaves)
    for j in range(width):
        common = min(num_exps[j], den_exps[j])
        num_exps[j] -= common
        den_exps[j] -= common
    return (
        reduce(mul, num_factors, leaves.monomial(num_exps, num_coeff)),
        reduce(mul, den_factors, leaves.monomial(den_exps, den_coeff)),
    )


def _proportion(a: Mapping, b: Mapping) -> tuple[Fraction | int, Fraction | int] | None:
    """(p, q) with a = (p / q) * b for two leaf polynomials given as term maps, or None."""
    if a.keys() != b.keys():
        return None
    key = next(iter(a))
    p, q = a[key], b[key]
    if all(a[e] * q == p * b[e] for e in a):
        return p, q
    return None


def _split(low: _Lowest, exps: list[int], factors: list[Polynomial], leaves: StageLeaves) -> Fraction | int:
    """Add a lowest part's leaf-monomial content to ``exps`` and what is
    left, when it is not a constant, to ``factors``; return that constant."""
    if low.terms is None:
        factors.append(low.slice)
        return 1
    content = tuple(map(min, zip(*low.terms)))
    for j, e in enumerate(content):
        exps[j] += e
    if len(low.terms) == 1:
        return next(iter(low.terms.values()))
    factors.append(leaves.slice_of({tuple(map(sub, e, content)): c for e, c in low.terms.items()}))
    return 1


@dataclass(frozen=True)
class Status:
    kind: str  # "constant" | "dicritical"
    value: Fraction | None = None
    infinite: bool = False


def status_of(restriction: Restriction) -> Status:
    """Constant iff the reduced restriction's numerator and denominator are both constants."""
    if restriction.is_infinite():
        return Status("constant", None, True)
    if restriction.is_zero():
        return Status("constant", Fraction(0))
    num, den = restriction.num, restriction.den
    if num.is_constant() and den.is_constant():
        return Status("constant", num.constant_value() / den.constant_value())
    return Status("dicritical")


def dicritical_status(
    h: RationalFunction | Quotient | LeafQuotient,
    tower: ChartTower,
    divisor: int,
    charts: Sequence[str] | None = None,
    blowups: int | None = None,
) -> Status:
    return status_of(restrict(h, tower, divisor, charts=charts, blowups=blowups))


def draw_fraction(rng: random.Random) -> Fraction:
    """A small nonzero random fraction; draws the Möbius twist constants."""
    num = rng.randint(-19, 19)
    while num == 0:
        num = rng.randint(-19, 19)
    return Fraction(num, rng.randint(1, 7))


def dicritical_degree(
    h: RationalFunction | Quotient | LeafQuotient,
    tower: ChartTower,
    divisor: int,
    line: LineClassSpec,
    charts: Sequence[str] | None = None,
    blowups: int | None = None,
) -> int:
    """Degree of the restricted map against the template's curve class."""
    return restriction_degree(restrict(h, tower, divisor, charts=charts, blowups=blowups), line)


def restriction_degree(restriction: Restriction, line: LineClassSpec) -> int:
    """Degree of a dicritical restriction along the template's curve at generic constants.

    The ``zero`` variables are set to zero and the ``const`` variables stay
    symbols c, so N/D lies in Q(c)(t) for the parameter t.  By Gauss's lemma
    the t-degree of gcd(N, D) in Q[c][t] is its t-degree in Q(c)[t], so the
    result is the degree of the reduced quotient for generic constants.
    """
    if status_of(restriction).kind != "dicritical":
        raise ChartError("degree is only defined for dicritical restrictions")
    variables = restriction.num.variables
    unknown = sorted(set(line.assign) - set(variables))
    if unknown:
        raise ChartError(f"line template names variables outside the ring: {unknown}")
    num, den = restriction.num, restriction.den
    for name in variables:
        role = line.assign.get(name, ZERO if name == restriction.chart_var else CONST)
        if name == restriction.chart_var and role != ZERO:
            raise ChartError("the divisor's own chart variable must be assigned zero")
        if role == ZERO:
            num, den = num.set_to_zero(name), den.set_to_zero(name)
        elif role == PARAM:
            param = name
    if den.is_zero():
        raise GenericityError(
            f"the zero roles of the line template for divisor {restriction.divisor} "
            "make the restriction's denominator vanish"
        )
    gcd = polynomial_gcd(num, den)
    return max(num.degree_in(param), den.degree_in(param)) - gcd.degree_in(param)
