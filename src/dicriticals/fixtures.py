"""Built-in scenarios: small towers over a point of three-space with known
matrices, certificates, and restrictions.

Names describe the centers: "point-point-line" and "point-line-fiber" are the
two orderings of the same three-divisor modification (their valuation
matrices differ), "three-points" is a chain of three point blow-ups,
"three-points-line" extends it by a translated line inside the last divisor,
"conic-center" blows up a conic inside the first divisor via a shear, and
"two-dicriticals" prescribes a two-divisor profile on the three-points tower.
"""

from __future__ import annotations

from .candidates import Bindings
from .charts import BlowupStep, ChartTower, LineClassSpec, ShearStep
from .descriptor import TailData, make_descriptor
from .errors import ScenarioError
from .poly import Polynomial
from .scenario import (
    DivisorChart,
    ExpectedStatus,
    Expectations,
    ExplicitRequest,
    LastRequest,
    ProfileRequest,
    Scenario,
    SingleRequest,
)

RING = ("x", "y", "z")


def _vars():
    return (
        Polynomial.variable(RING, "x"),
        Polynomial.variable(RING, "y"),
        Polynomial.variable(RING, "z"),
    )


def point_point_line() -> Scenario:
    """Point, then a point on it, then a line through both images."""
    x, y, z = _vars()
    descriptor = make_descriptor(3, [[], [1], [1]], dims=[0, 0, 1])
    tower = ChartTower(
        RING,
        (
            BlowupStep(("x", "y", "z"), "z"),
            BlowupStep(("x", "y", "z"), "x"),
            BlowupStep(("y", "z"), "y"),
        ),
    )
    return Scenario(
        name="point-point-line",
        descriptor=descriptor,
        tower=tower,
        equations={"C1": x + y + z, "C2": x + 2 * y, "C3": y + 3 * z**2},
        bindings=Bindings(rows={1: "C1", 2: "C2", 3: "C3"}),
        seed=101,
    )


def point_line_fiber() -> Scenario:
    """Point, then a line in the first divisor, then a fiber of the second."""
    x, y, z = _vars()
    descriptor = make_descriptor(
        3,
        [[], [1], [2]],
        dims=[0, 1, 1],
        curvette_mults=[(1,), (1, 1), (2, 1, 1)],
    )
    tower = ChartTower(
        RING,
        (
            BlowupStep(("x", "y", "z"), "z"),
            BlowupStep(("y", "z"), "y"),
            BlowupStep(("x", "y"), "x"),
        ),
    )
    return Scenario(
        name="point-line-fiber",
        descriptor=descriptor,
        tower=tower,
        equations={
            "C1": x + y + z,
            "C2": y + 3 * z**2,
            "C3": y**2 + 5 * x * z**2 + 7 * x * y,
        },
        bindings=Bindings(rows={1: "C1", 2: "C2", 3: "C3"}),
        seed=102,
    )


def _three_points_equations() -> dict[str, Polynomial]:
    x, y, z = _vars()
    return {
        "C1": x + y + z,
        "C1b": x + 2 * y + 3 * z,
        "C2": x + y,
        "C2b": x + 3 * y,
        "C3p": x + z**2,
        "C3pp": x - z**2,
        "H1": x**2 + z**2 * y,
        "H2": x**2 * z + y**3,
        "C3x": 2 * x + z**2,
    }


def _three_points_tower() -> ChartTower:
    return ChartTower(
        RING,
        (
            BlowupStep(("x", "y", "z"), "z"),
            BlowupStep(("x", "y", "z"), "y"),
            BlowupStep(("x", "y", "z"), "x"),
        ),
    )


def three_points() -> Scenario:
    """Chain of three point blow-ups; the last divisor carries degree one."""
    descriptor = make_descriptor(
        3,
        [[], [1], [1, 2]],
        special_mults={1: (2, 2), 2: (3, 2)},
    )
    return Scenario(
        name="three-points",
        descriptor=descriptor,
        request=LastRequest(
            s=3,
            degree=1,
            special_exponents={1: 1, 2: 1},
            contact_orders={1: 1, 2: 1},
        ),
        tower=_three_points_tower(),
        equations=_three_points_equations(),
        bindings=Bindings(
            primary="C3p",
            secondary="C3pp",
            bundles={1: ("C1", "C1b"), 2: ("C2", "C2b")},
            specials={1: "H1", 2: "H2"},
            rows={1: "C1", 2: "C2", 3: "C3p"},
        ),
        lines={3: LineClassSpec(3, {"x": "zero", "y": "const", "z": "param"})},
        expect=Expectations(orders=(1, 1, 0)),
        seed=103,
    )


def three_points_line() -> Scenario:
    """Three points and then a translated line inside the third divisor."""
    descriptor = make_descriptor(
        3,
        [[], [1], [1, 2], [3]],
        dims=[0, 0, 0, 1],
        curvette_mults=[(1,), (1, 1), (1, 1, 1), (2, 1, 1, 1)],
        special_mults={1: (2, 2), 2: (3, 2)},
        tail=TailData(s=3, mu_curvettes={4: {4: 1}}, mu_specials={}),
    )
    x, y, z = _vars()
    equations = _three_points_equations()
    equations["C4"] = x * z + y**2
    tower = ChartTower(
        RING,
        (
            BlowupStep(("x", "y", "z"), "z"),
            BlowupStep(("x", "y", "z"), "y"),
            BlowupStep(("x", "y", "z"), "x"),
            ShearStep("y", Polynomial.constant(RING, -1)),
            BlowupStep(("x", "y"), "x"),
        ),
    )
    return Scenario(
        name="three-points-line",
        descriptor=descriptor,
        request=SingleRequest(
            s=3,
            degree=1,
            special_exponents={1: 1, 2: 1},
            contact_orders={1: 1, 2: 1},
        ),
        tower=tower,
        equations=equations,
        bindings=Bindings(
            primary="C3p",
            secondary="C3pp",
            bundles={1: ("C1", "C1b"), 2: ("C2", "C2b")},
            specials={1: "H1", 2: "H2"},
            pole="C3x",
            later={4: "C4"},
            rows={1: "C1", 2: "C2", 3: "C3p", 4: "C4"},
        ),
        charts={
            1: DivisorChart(blowups=3),
            2: DivisorChart(blowups=3),
            3: DivisorChart(blowups=3),
        },
        lines={3: LineClassSpec(3, {"x": "zero", "y": "const", "z": "param"})},
        expect=Expectations(orders=(4, 1, 0, 3)),
        seed=104,
    )


def three_points_line_explicit(pole_power: int) -> Scenario:
    """Hand-built variant of the twisted candidate with a chosen pole power.

    Expectations stay pinned at the solved values (pole power 13), so other
    powers are expected to fail verification; useful as a fault injection.
    """
    base = three_points_line()
    request = ExplicitRequest(
        num_factors=(("C3p", 1), ("C1", 2), ("C2", 4), ("C4", 5)),
        den_terms=(
            (("C3pp", 1), ("H1", 1), ("H2", 1), ("C4", 5)),
            (("C3x", pole_power),),
        ),
    )
    return Scenario(
        name=f"three-points-line-pole-{pole_power}",
        descriptor=base.descriptor,
        request=request,
        tower=base.tower,
        equations=base.equations,
        bindings=base.bindings,
        charts=base.charts,
        lines=base.lines,
        expect=Expectations(
            orders=(4, 1, 0, 3),
            statuses={
                1: ExpectedStatus("constant"),
                2: ExpectedStatus("constant"),
                3: ExpectedStatus("dicritical", 1),
                4: ExpectedStatus("constant"),
            },
        ),
        seed=105,
    )


def conic_center(k: int = 2, power: int = 6) -> Scenario:
    """Blow up the origin, then a conic inside the first divisor (via a shear).

    The hand-given candidate pits a quadric-cone power against a plane power;
    the first divisor is dominant of degree one and the second constant when
    2k+1 < power < 3k+1.
    """
    x, y, z = _vars()
    descriptor = make_descriptor(
        3,
        [[], [1]],
        dims=[0, 1],
        curvette_mults=[(1,), (2, 1)],
    )
    tower = ChartTower(
        RING,
        (
            BlowupStep(("x", "y", "z"), "x"),
            ShearStep("z", y**2),
            BlowupStep(("x", "z"), "z"),
        ),
    )
    dominant_first = 2 * k + 1 < power
    constant_second = power < 3 * k + 1
    statuses = {
        1: ExpectedStatus("dicritical", 1) if dominant_first else ExpectedStatus("constant"),
        2: ExpectedStatus("constant") if constant_second else ExpectedStatus("dicritical"),
    }
    orders = (
        (2 * k + 1) - min(2 * k + 1, power),
        (3 * k + 1) - min(3 * k + 1, power),
    )
    return Scenario(
        name=f"conic-center-{k}-{power}" if (k, power) != (2, 6) else "conic-center",
        descriptor=descriptor,
        request=ExplicitRequest(
            num_factors=(("Cp", 1), ("Q", k)),
            den_terms=((("Cpp", 1), ("Q", k)), (("Cl", power),)),
        ),
        tower=tower,
        equations={
            "C1": x + 2 * y + 5 * z,
            "Q": x * z - y**2,
            "Cp": x + 3 * y + 2 * z,
            "Cpp": x + 5 * y + 3 * z,
            "Cl": x + 7 * y + 11 * z,
        },
        bindings=Bindings(rows={1: "C1", 2: "Q"}),
        lines={
            1: LineClassSpec(1, {"x": "zero", "y": "const", "z": "param"}),
            2: LineClassSpec(2, {"x": "param", "y": "const", "z": "zero"}),
        },
        expect=Expectations(orders=orders, statuses=statuses),
        seed=106,
    )


def two_dicriticals() -> Scenario:
    """Profile request on the three-points tower: divisors 1 and 3 dominant."""
    x, y, z = _vars()
    descriptor = make_descriptor(
        3,
        [[], [1], [1, 2]],
        special_mults={1: (2, 2), 2: (3, 2)},
    )
    equations = _three_points_equations()
    equations.update(
        {
            "C1p": x + 2 * y + 5 * z,
            "C1pp": x + 3 * y + 2 * z,
            "C1l": x + 5 * y + 7 * z,
            "C2m": 2 * x + y,
            "C3m": x + 4 * z**2,
        }
    )
    part_one = SingleRequest(
        s=1,
        degree=1,
        tail=TailData(s=1, mu_curvettes={2: {2: 1, 3: 1}, 3: {3: 1}}, mu_specials={}),
    )
    part_three = SingleRequest(
        s=3,
        degree=1,
        special_exponents={1: 1, 2: 1},
        contact_orders={1: 1, 2: 1},
    )
    return Scenario(
        name="two-dicriticals",
        descriptor=descriptor,
        request=ProfileRequest(parts={1: part_one, 3: part_three}),
        tower=_three_points_tower(),
        equations=equations,
        bindings=Bindings(
            parts={
                1: Bindings(primary="C1p", secondary="C1pp", pole="C1l", later={2: "C2m", 3: "C3m"}),
                3: Bindings(
                    primary="C3p",
                    secondary="C3pp",
                    bundles={1: ("C1", "C1b"), 2: ("C2", "C2b")},
                    specials={1: "H1", 2: "H2"},
                    pole="C3x",
                ),
            }
        ),
        lines={
            1: LineClassSpec(1, {"x": "const", "y": "param", "z": "zero"}),
            3: LineClassSpec(3, {"x": "zero", "y": "const", "z": "param"}),
        },
        seed=107,
    )


FIXTURES = {
    "point-point-line": point_point_line,
    "point-line-fiber": point_line_fiber,
    "three-points": three_points,
    "three-points-line": three_points_line,
    "conic-center": conic_center,
    "two-dicriticals": two_dicriticals,
}


def load_fixture(name: str) -> Scenario:
    if name not in FIXTURES:
        raise ScenarioError(f"unknown fixture {name!r}; known: {', '.join(sorted(FIXTURES))}")
    return FIXTURES[name]()
