"""Scenario model: a descriptor, an optional chart tower with equations, one
solver request, and the presentation data (chart paths, line templates,
expected outcomes) needed to verify everything symbolically.

Scenarios serialize to JSON with exact integers only; rationals are
{num, den} pairs and polynomials are canonical term lists.  Every piece reads
and writes through ``jsonio.FieldCodec``, so unknown keys and wrongly typed
values are input errors at every level; only the tower's step list and the
line templates have JSON shapes of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .candidates import Bindings
from .charts import ChartTower, LineClassSpec, check_tower
from .descriptor import ModificationDescriptor, TailData
from .errors import ScenarioError
from .jsonio import SCHEMA_VERSION, FieldCodec, Kinded, json_field, type_codec
from .poly import Polynomial


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
class LineTemplate(FieldCodec):
    """The JSON form of one line template: ``{assign}``, keyed by its divisor."""

    assign: Mapping[str, str]


_encode_lines, _decode_lines = type_codec(Mapping[int, LineTemplate])


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
    lines: Mapping[int, LineClassSpec] = json_field(
        omit=True,
        default_factory=dict,
        codec=(
            lambda lines: _encode_lines({i: LineTemplate(line.assign) for i, line in lines.items()}),
            lambda data, what: {i: LineClassSpec(i, t.assign) for i, t in _decode_lines(data, what).items()},
        ),
    )
    expect: Expectations | None = json_field(omit=True, default=None)

    def envelope(self) -> dict:
        return {"schema_version": SCHEMA_VERSION}

    def chart_path(self, divisor: int) -> tuple[tuple[str, ...] | None, int | None]:
        dc = self.charts.get(divisor)
        if dc is None:
            return None, None
        return dc.charts, dc.blowups


def validate_scenario(sc: Scenario) -> None:
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
        ("profile parts", parts),
    ):
        outside = sorted(i for i in keyed if not 1 <= i <= m)
        if outside:
            raise ScenarioError(f"{what} given for divisors {outside} outside 1..{m}")
    if sc.expect is not None and sc.expect.orders is not None and len(sc.expect.orders) != m:
        raise ScenarioError(f"expected orders give {len(sc.expect.orders)} values for {m} divisors")
    if sc.tower is not None:
        check_tower(sc.descriptor, sc.tower)
        for name, poly in sc.equations.items():
            if poly.variables != sc.tower.variables:
                raise ScenarioError(f"equation {name!r} does not live in the tower's ring")
        for i, line in sc.lines.items():
            unknown = sorted(set(line.assign) - set(sc.tower.variables))
            if unknown:
                raise ScenarioError(f"line template of divisor {i} names variables outside the ring {unknown}")
    if isinstance(sc.request, TargetRequest) and not 1 <= sc.request.s <= m:
        raise ScenarioError(f"request index {sc.request.s} out of range")
    if isinstance(sc.request, ProfileRequest) and not parts:
        raise ScenarioError("a profile request needs at least one target divisor")
    for j, part in parts.items():
        if part.s != j:
            raise ScenarioError(f"profile part {j} targets divisor {part.s}; a part is keyed by its own s")


# -- JSON ----------------------------------------------------------------------


def scenario_to_json(sc: Scenario) -> dict:
    return sc.to_json()


def scenario_from_json(data) -> Scenario:
    sc = Scenario.from_json(data)
    validate_scenario(sc)
    return sc
