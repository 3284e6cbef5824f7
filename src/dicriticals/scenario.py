"""Scenario model: a descriptor, an optional chart tower with equations, one
solver request, and the presentation data (chart paths, line templates,
expected outcomes) needed to verify everything symbolically.

Scenarios serialize to JSON with exact integers only; rationals are
{num, den} pairs and polynomials are canonical term lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .candidates import Bindings
from .charts import BlowupStep, ChartTower, LineClassSpec, ShearStep, check_tower
from .descriptor import (
    ModificationDescriptor,
    TailData,
    descriptor_from_json,
    descriptor_to_json,
    require_valid,
    tail_from_json,
    tail_to_json,
)
from .errors import ScenarioError
from .jsonio import SCHEMA_VERSION, FieldCodec, reject_unknown_keys, require_int
from .poly import Polynomial


@dataclass(frozen=True)
class SupportRequest:
    targets: tuple[int, ...]
    offsets: Mapping[int, int] = field(default_factory=dict)

    kind = "support"


@dataclass(frozen=True)
class LastRequest:
    s: int
    degree: int
    special_exponents: Mapping[int, int] | None = None
    contact_orders: Mapping[int, int] | None = None
    target_orders: Mapping[int, int] | None = None

    kind = "last"


@dataclass(frozen=True)
class SingleRequest:
    s: int
    degree: int
    special_exponents: Mapping[int, int] | None = None
    contact_orders: Mapping[int, int] | None = None
    target_orders: Mapping[int, int] | None = None
    tail: TailData | None = None

    kind = "single"


@dataclass(frozen=True)
class ProfileRequest:
    parts: Mapping[int, SingleRequest]

    kind = "profile"

    @property
    def degrees(self) -> dict[int, int]:
        return {j: part.degree for j, part in self.parts.items()}


@dataclass(frozen=True)
class ExplicitRequest:
    """A hand-given function: numerator product and denominator sum of products."""

    num_factors: tuple[tuple[str, int], ...]
    den_terms: tuple[tuple[tuple[str, int], ...], ...]

    kind = "explicit"


Request = SupportRequest | LastRequest | SingleRequest | ProfileRequest | ExplicitRequest


@dataclass(frozen=True)
class DivisorChart(FieldCodec):
    charts: tuple[str, ...] | None = None
    blowups: int | None = None


@dataclass(frozen=True)
class Expectations:
    orders: tuple[int, ...] | None = None
    statuses: Mapping[int, tuple[str, int | None]] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    descriptor: ModificationDescriptor
    request: Request | None = None
    tower: ChartTower | None = None
    equations: Mapping[str, Polynomial] = field(default_factory=dict)
    bindings: Bindings = field(default_factory=Bindings)
    seed: int = 1
    charts: Mapping[int, DivisorChart] = field(default_factory=dict)
    lines: Mapping[int, LineClassSpec] = field(default_factory=dict)
    expect: Expectations | None = None

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
    require_valid(sc.descriptor)
    m = sc.descriptor.m
    statuses = sc.expect.statuses if sc.expect is not None else {}
    for what, keyed in (("chart paths", sc.charts), ("line templates", sc.lines), ("expected statuses", statuses)):
        outside = sorted(i for i in keyed if not 1 <= i <= m)
        if outside:
            raise ScenarioError(f"{what} given for divisors {outside} outside 1..{m}")
    if sc.expect is not None and sc.expect.orders is not None and len(sc.expect.orders) != m:
        raise ScenarioError(f"expected orders give {len(sc.expect.orders)} values for {m} divisors")
    kinds = sorted({kind for kind, _ in statuses.values()} - {"constant", "dicritical"})
    if kinds:
        raise ScenarioError(f"expected status kinds must be constant or dicritical, got {kinds}")
    if sc.tower is not None:
        check_tower(sc.descriptor, sc.tower)
        for name, poly in sc.equations.items():
            if poly.variables != sc.tower.variables:
                raise ScenarioError(f"equation {name!r} does not live in the tower's ring")
        for i, line in sc.lines.items():
            unknown = sorted(set(line.assign) - set(sc.tower.variables))
            if unknown:
                raise ScenarioError(f"line template of divisor {i} names variables outside the ring {unknown}")
    if isinstance(sc.request, (LastRequest, SingleRequest)):
        if not (1 <= sc.request.s <= sc.descriptor.m):
            raise ScenarioError(f"request index {sc.request.s} out of range")
    if isinstance(sc.request, ProfileRequest) and not sc.request.parts:
        raise ScenarioError("a profile request needs at least one target divisor")


# -- JSON ----------------------------------------------------------------------


def _int_map_to_json(mapping) -> dict:
    return {str(k): v for k, v in sorted(mapping.items())}


def _int_map_from_json(data, what) -> dict[int, int]:
    return {int(k): require_int(v, what) for k, v in (data or {}).items()}


def request_to_json(req: Request) -> dict:
    if isinstance(req, SupportRequest):
        return {
            "kind": req.kind,
            "targets": list(req.targets),
            "offsets": _int_map_to_json(req.offsets),
        }
    if isinstance(req, (LastRequest, SingleRequest)):
        data = {"kind": req.kind, "s": req.s, "degree": req.degree}
        if req.special_exponents is not None:
            data["special_exponents"] = _int_map_to_json(req.special_exponents)
        if req.contact_orders is not None:
            data["contact_orders"] = _int_map_to_json(req.contact_orders)
        if req.target_orders is not None:
            data["target_orders"] = _int_map_to_json(req.target_orders)
        if isinstance(req, SingleRequest) and req.tail is not None:
            data["tail"] = tail_to_json(req.tail)
        return data
    if isinstance(req, ProfileRequest):
        return {
            "kind": req.kind,
            "parts": {str(j): request_to_json(part) for j, part in sorted(req.parts.items())},
        }
    if isinstance(req, ExplicitRequest):
        return {
            "kind": req.kind,
            "num": [[name, exp] for name, exp in req.num_factors],
            "den": [[[name, exp] for name, exp in term] for term in req.den_terms],
        }
    raise ScenarioError(f"unknown request type {type(req).__name__}")


_SOLVE_KEYS = ("kind", "s", "degree", "special_exponents", "contact_orders", "target_orders")
_REQUEST_KEYS = {
    "support": ("kind", "targets", "offsets"),
    "last": _SOLVE_KEYS,
    "single": (*_SOLVE_KEYS, "tail"),
    "profile": ("kind", "parts"),
    "explicit": ("kind", "num", "den"),
}
_SCENARIO_KEYS = (
    "schema_version", "name", "seed", "descriptor", "request", "tower",
    "equations", "bindings", "charts", "lines", "expect",
)


def request_from_json(data: dict) -> Request:
    kind = data.get("kind")
    if kind in _REQUEST_KEYS:
        reject_unknown_keys(data, _REQUEST_KEYS[kind], f"{kind} request")
    if kind == "support":
        return SupportRequest(
            targets=tuple(require_int(v, "target") for v in data["targets"]),
            offsets=_int_map_from_json(data.get("offsets"), "offset"),
        )
    if kind in ("last", "single"):
        common = dict(
            s=require_int(data["s"], "s"),
            degree=require_int(data["degree"], "degree"),
            special_exponents=(
                _int_map_from_json(data["special_exponents"], "exponent")
                if "special_exponents" in data
                else None
            ),
            contact_orders=(
                _int_map_from_json(data["contact_orders"], "contact") if "contact_orders" in data else None
            ),
            target_orders=(
                _int_map_from_json(data["target_orders"], "target") if "target_orders" in data else None
            ),
        )
        if kind == "last":
            return LastRequest(**common)
        tail = tail_from_json(data["tail"]) if "tail" in data else None
        return SingleRequest(tail=tail, **common)
    if kind == "profile":
        parts = {}
        for j, part in data["parts"].items():
            sub = request_from_json(part)
            if not isinstance(sub, SingleRequest):
                raise ScenarioError("profile parts must be single-divisor requests")
            parts[int(j)] = sub
        return ProfileRequest(parts=parts)
    if kind == "explicit":
        return ExplicitRequest(
            num_factors=tuple((str(n), require_int(e, "exponent")) for n, e in data["num"]),
            den_terms=tuple(
                tuple((str(n), require_int(e, "exponent")) for n, e in term) for term in data["den"]
            ),
        )
    raise ScenarioError(f"unknown request kind {kind!r}")


def tower_to_json(tower: ChartTower) -> dict:
    steps = []
    for step in tower.steps:
        if isinstance(step, BlowupStep):
            steps.append({"blowup": {"center": list(step.center), "chart": step.chart}})
        else:
            steps.append({"shear": {"target": step.target, "shift": step.shift.to_json()}})
    return {"vars": list(tower.variables), "steps": steps}


def tower_from_json(data: dict) -> ChartTower:
    variables = tuple(str(v) for v in data["vars"])
    steps: list = []
    for entry in data["steps"]:
        if "blowup" in entry:
            blk = entry["blowup"]
            steps.append(BlowupStep(center=tuple(blk["center"]), chart=str(blk["chart"])))
        elif "shear" in entry:
            blk = entry["shear"]
            steps.append(ShearStep(target=str(blk["target"]), shift=Polynomial.from_json(blk["shift"])))
        else:
            raise ScenarioError("tower step must be a blowup or a shear")
    return ChartTower(variables=variables, steps=tuple(steps))


def scenario_to_json(sc: Scenario) -> dict:
    data: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": sc.name,
        "seed": sc.seed,
        "descriptor": descriptor_to_json(sc.descriptor),
    }
    if sc.request is not None:
        data["request"] = request_to_json(sc.request)
    if sc.tower is not None:
        data["tower"] = tower_to_json(sc.tower)
    if sc.equations:
        data["equations"] = {name: poly.to_json() for name, poly in sorted(sc.equations.items())}
    bindings = sc.bindings.to_json()
    if bindings:
        data["bindings"] = bindings
    if sc.charts:
        data["charts"] = {str(i): dc.to_json() for i, dc in sorted(sc.charts.items())}
    if sc.lines:
        data["lines"] = {
            str(i): {"assign": dict(sorted(line.assign.items()))} for i, line in sorted(sc.lines.items())
        }
    if sc.expect is not None:
        block: dict = {}
        if sc.expect.orders is not None:
            block["orders"] = list(sc.expect.orders)
        if sc.expect.statuses:
            block["statuses"] = {
                str(i): {"kind": kind, "degree": deg} for i, (kind, deg) in sorted(sc.expect.statuses.items())
            }
        data["expect"] = block
    return data


def scenario_from_json(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("a scenario must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {data.get('schema_version')!r}")
    reject_unknown_keys(data, _SCENARIO_KEYS, "scenario")
    descriptor = descriptor_from_json(data["descriptor"])
    request = request_from_json(data["request"]) if "request" in data else None
    tower = tower_from_json(data["tower"]) if "tower" in data else None
    equations = {name: Polynomial.from_json(p) for name, p in data.get("equations", {}).items()}
    bindings = Bindings.from_json(data.get("bindings", {}))
    charts = {int(key): DivisorChart.from_json(entry) for key, entry in data.get("charts", {}).items()}
    lines = {}
    for key, entry in data.get("lines", {}).items():
        lines[int(key)] = LineClassSpec(divisor=int(key), assign=dict(entry["assign"]))
    expect = None
    if "expect" in data:
        block = data["expect"]
        statuses = {}
        for key, entry in block.get("statuses", {}).items():
            deg = entry.get("degree")
            statuses[int(key)] = (str(entry["kind"]), None if deg is None else require_int(deg, "degree"))
        expect = Expectations(
            orders=tuple(require_int(v, "order") for v in block["orders"]) if "orders" in block else None,
            statuses=statuses,
        )
    sc = Scenario(
        name=data["name"],
        descriptor=descriptor,
        request=request,
        tower=tower,
        equations=equations,
        bindings=bindings,
        seed=require_int(data.get("seed", 1), "seed"),
        charts=charts,
        lines=lines,
        expect=expect,
    )
    validate_scenario(sc)
    return sc
