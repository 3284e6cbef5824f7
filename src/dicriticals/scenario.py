"""Scenario model: a descriptor, an optional chart tower with equations, one
solver request, and the presentation data (chart paths, line templates,
expected outcomes) needed to verify everything symbolically.

Scenarios serialize to JSON with exact integers only; rationals are
{num, den} pairs and polynomials are canonical term lists.  Every piece reads
and writes through ``jsonio.FieldCodec``, so unknown keys and wrongly typed
values are input errors at every level; only the tower's step list has a JSON
shape of its own.

A scenario is validated as a whole once per object: the flag
``Scenario.validated`` runs the checks on first use, and ``scenario_from_json``
sets it as it reads.  Checking the chart paths leaves the divisor equations
of every path ``verify`` reads cached on the tower (``ChartTower.divisor_eqs``),
so the walks of h push only its parts' numerators and denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .candidates import Bindings
from .charts import BlowupStep, ChartTower, LineClassSpec, check_tower, restriction_chart_variable
from .descriptor import ModificationDescriptor, TailData
from .errors import ChartError, DescriptorError, ScenarioError, SolverError
from .jsonio import SCHEMA_VERSION, FieldCodec, Kinded, json_field
from .poly import Polynomial
from .solver import request_maps, support_orders, tail_descriptor


@dataclass(frozen=True)
class SupportRequest(Kinded):
    targets: tuple[int, ...]
    offsets: Mapping[int, int] = json_field(default_factory=dict)

    kind = "support"


@dataclass(frozen=True)
class TargetRequest(Kinded):
    """A request for one dicritical divisor ``s`` of the given degree."""

    s: int
    degree: int
    special_exponents: Mapping[int, int] | None = json_field(omit=True, default=None)
    contact_orders: Mapping[int, int] | None = json_field(omit=True, default=None)
    target_orders: Mapping[int, int] | None = json_field(omit=True, default=None)


@dataclass(frozen=True)
class LastRequest(TargetRequest):
    kind = "last"


@dataclass(frozen=True)
class SingleRequest(TargetRequest):
    tail: TailData | None = json_field(omit=True, default=None)

    kind = "single"


@dataclass(frozen=True)
class ProfileRequest(Kinded):
    parts: Mapping[int, SingleRequest]

    kind = "profile"

    @property
    def degrees(self) -> dict[int, int]:
        return {j: part.degree for j, part in self.parts.items()}


@dataclass(frozen=True)
class ExplicitRequest(Kinded):
    """A hand-given function: numerator product and denominator sum of products."""

    num_factors: tuple[tuple[str, int], ...] = json_field(key="num")
    den_terms: tuple[tuple[tuple[str, int], ...], ...] = json_field(key="den")

    kind = "explicit"

    def __post_init__(self):
        if any(exp < 0 for _, exp in (*self.num_factors, *(f for term in self.den_terms for f in term))):
            raise ScenarioError("explicit request exponents must be nonnegative")


Request = SupportRequest | LastRequest | SingleRequest | ProfileRequest | ExplicitRequest


@dataclass(frozen=True)
class DivisorChart(FieldCodec):
    charts: tuple[str, ...] | None = None
    blowups: int | None = None


@dataclass(frozen=True)
class ExpectedStatus(FieldCodec):
    """The status a divisor's restriction must have: ``constant``, or
    ``dicritical`` with the degree it must have, if any."""

    kind: str
    degree: int | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "dicritical"):
            raise ScenarioError(f"expected status kinds must be constant or dicritical, got {self.kind!r}")
        if self.kind == "constant" and self.degree is not None:
            raise ScenarioError("an expected constant status takes no degree")


@dataclass(frozen=True)
class Expectations(FieldCodec):
    orders: tuple[int, ...] | None = json_field(omit=True, default=None)
    statuses: Mapping[int, ExpectedStatus] = json_field(omit=True, default_factory=dict)


@dataclass(frozen=True)
class Scenario(FieldCodec):
    name: str
    descriptor: ModificationDescriptor
    request: Request | None = json_field(omit=True, default=None)
    tower: ChartTower | None = json_field(omit=True, default=None)
    equations: Mapping[str, Polynomial] = json_field(omit=True, default_factory=dict)
    bindings: Bindings = json_field(omit=True, default_factory=Bindings)
    seed: int = 1
    charts: Mapping[int, DivisorChart] = json_field(omit=True, default_factory=dict)
    lines: Mapping[int, LineClassSpec] = json_field(omit=True, default_factory=dict)
    expect: Expectations | None = json_field(omit=True, default=None)

    def envelope(self) -> dict:
        return {"schema_version": SCHEMA_VERSION}

    @cached_property
    def validated(self) -> bool:
        """True once the scenario is checked as a whole: computing it runs the
        checks, once per object."""
        _validate(self)
        return True

    def chart_path(self, divisor: int) -> tuple[tuple[str, ...] | None, int]:
        """The chart override (None for the default charts) and the blow-up
        count at which the divisor's restriction is read; all m by default."""
        dc = self.charts.get(divisor, DivisorChart())
        return dc.charts, self.descriptor.m if dc.blowups is None else dc.blowups


def restricted_divisors(sc: Scenario) -> range | list[int]:
    """The divisors whose restriction ``verify`` reads: 1..top of a solved
    request (top is s for ``last`` and m otherwise), the ``expect.statuses``
    keys of an ``explicit`` request, and none of a matrix-only scenario."""
    req = sc.request
    if req is None:
        return []
    if isinstance(req, ExplicitRequest):
        return sorted(sc.expect.statuses) if sc.expect is not None else []
    return range(1, (req.s if isinstance(req, LastRequest) else sc.descriptor.m) + 1)


def _check_chart_paths(sc: Scenario) -> None:
    """Every override chart path passes the tower's one check of a path
    (``ChartTower.divisor_eqs``: a chart per blow-up at most, each in its
    center), and every divisor whose restriction verify reads is a
    coordinate at the stage of its chart path that verify reads: an index
    into the tower's divisor equations of the path, which nothing walks."""
    # the steps done right after k blow-ups, k = 0..m: where a walk keeps stage k
    stage_steps = [0] + [k + 1 for k, step in enumerate(sc.tower.steps) if isinstance(step, BlowupStep)]
    try:
        for i, path in sorted(sc.charts.items()):
            sc.tower.divisor_eqs(path.charts)
        for i in restricted_divisors(sc):
            charts, blowups = sc.chart_path(i)
            restriction_chart_variable(sc.tower.divisor_eqs(charts)[stage_steps[blowups]], i)
    except ChartError as exc:
        raise ScenarioError(f"chart path of divisor {i}: {exc}") from None


def validate_scenario(sc: Scenario) -> None:
    """Check ``sc`` as a whole, once per object: a second call does nothing."""
    sc.validated  # the flag runs the checks when it is first read


def _validate(sc: Scenario) -> None:
    # artifacts are written to <out>/<name>.<command>.json
    name = sc.name
    if not isinstance(name, str) or not name or name.startswith(".") or "/" in name or "\\" in name:
        raise ScenarioError(f"scenario name {name!r} must be a nonempty file name without '/', '\\' or a leading '.'")
    m = sc.descriptor.m
    statuses = sc.expect.statuses if sc.expect is not None else {}
    parts = sc.request.parts if isinstance(sc.request, ProfileRequest) else {}
    for what, keyed in (
        ("chart paths", sc.charts),
        ("line templates", sc.lines),
        ("expected statuses", statuses),
    ):
        outside = sorted(i for i in keyed if not 1 <= i <= m)
        if outside:
            raise ScenarioError(f"{what} given for divisors {outside} outside 1..{m}")
    for i, path in sc.charts.items():
        if path.blowups is not None and not 0 <= path.blowups <= m:
            raise ScenarioError(f"the chart path of divisor {i} stops after {path.blowups} blow-ups, outside 0..{m}")
    if sc.expect is not None and sc.expect.orders is not None and len(sc.expect.orders) != m:
        raise ScenarioError(f"expected orders give {len(sc.expect.orders)} values for {m} divisors")
    if sc.tower is not None:
        try:
            check_tower(sc.descriptor, sc.tower)
        except ChartError as exc:
            raise ScenarioError(f"chart tower: {exc}") from None
        for name, poly in sc.equations.items():
            if poly.variables != sc.tower.variables:
                raise ScenarioError(f"equation {name!r} does not live in the tower's ring")
        for i, line in sc.lines.items():
            unknown = sorted(set(line.assign) - set(sc.tower.variables))
            if unknown:
                raise ScenarioError(f"line template of divisor {i} names variables outside the ring {unknown}")
    if isinstance(sc.request, ProfileRequest) and not parts:
        raise ScenarioError("a profile request needs at least one target divisor")
    for j, part in parts.items():
        if part.s != j:
            raise ScenarioError(f"profile part {j} targets divisor {part.s}; a part is keyed by its own s")
    try:
        if isinstance(sc.request, SupportRequest):
            support_orders(m, sc.request.targets, sc.request.offsets)
        for req in [sc.request] if isinstance(sc.request, TargetRequest) else parts.values():
            single = isinstance(req, SingleRequest)
            maps = req.special_exponents, req.contact_orders, req.target_orders
            request_maps(sc.descriptor, req.s, req.degree, *maps, positive_targets=single)
            if single:
                tail_descriptor(sc.descriptor, req.s, req.tail)
    except (DescriptorError, SolverError) as exc:
        raise ScenarioError(f"invalid request: {exc}") from None
    if sc.tower is not None:
        # after the request checks: a well-formed request names the divisors read
        _check_chart_paths(sc)


# -- JSON ----------------------------------------------------------------------


def scenario_to_json(sc: Scenario) -> dict:
    return sc.to_json()


def scenario_from_json(data) -> Scenario:
    """Read and validate a scenario, which stays flagged as validated."""
    sc = Scenario.from_json(data)
    validate_scenario(sc)
    return sc
