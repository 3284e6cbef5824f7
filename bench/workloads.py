"""Seeded scenario sets for the benchmark workloads.

Every workload is a list of ``Item``s: one scenario plus the CLI commands a
user would run on it.  The inputs depend only on the workload seed; the
program under test sees nothing but the generated scenario files.

* ``fixtures``: the six built-in scenarios (line-template degree checks, a
  Moebius-twisted profile, explicit requests).  At the default seed they run
  at their own seeds; any other seed is passed to ``verify --seed``.
* ``chain``: chains of m point blow-ups in chart z with support requests,
  no shears and no degree checks.  Two-target requests exercise the gcd
  fallback of ``poly.polynomial_gcd``.
* ``shear-chain``: the single-target chains with a seeded translation of y
  before every blow-up after the first; scales the shear substitution.
* ``solve``: tower-less descriptors with support and single requests, which
  measures ``descriptor``, ``linalg`` and ``solver`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from dicriticals.candidates import Bindings
from dicriticals.charts import BlowupStep, ChartTower, ShearStep
from dicriticals.descriptor import TailData, make_descriptor
from dicriticals.fixtures import FIXTURES, load_fixture
from dicriticals.poly import Polynomial
from dicriticals.scenario import (
    DivisorChart,
    ExplicitRequest,
    Scenario,
    SingleRequest,
    SupportRequest,
    scenario_to_json,
)

DEFAULT_SEED = 1
RING = ("x", "y", "z")

# Sizes.  Two-target chains stop at m = 3: from m = 4 on, a seeded chain
# falls back to the pseudo-remainder gcd in about one case in ten and then
# takes 1.5 to 15 s instead of 20 ms, which no run length absorbs steadily.
# At m = 2 and 3 the fallback still happens (roughly one case in four at
# m = 2) but stays cheap.
CHAIN_FAMILIES = 4
CHAIN_SINGLE_M = range(2, 11)
CHAIN_DOUBLE_M = range(2, 4)
SHEAR_FAMILIES = 4
SHEAR_M = range(2, 9)
SOLVE_M = (4, 8, 12, 16, 20, 24)

WORKLOADS = ("fixtures", "chain", "shear-chain", "solve")


@dataclass(frozen=True)
class Item:
    """One scenario of a pass and the commands run on it, in order."""

    name: str
    commands: tuple[str, ...]
    fixture: str | None = None  # built-in scenario name, or None for a generated file
    data: dict | None = None  # scenario JSON of a generated scenario
    verify_seed: int | None = None  # passed as ``verify --seed`` when set


def _commands(sc: Scenario) -> tuple[str, ...]:
    solvable = sc.request is not None and not isinstance(sc.request, ExplicitRequest)
    commands = ("matrix", "solve") if solvable else ("matrix",)
    return commands + (("verify",) if sc.tower is not None else ())


def fixture_items(seed: int) -> list[Item]:
    verify_seed = None if seed == DEFAULT_SEED else seed
    return [
        Item(name, _commands(load_fixture(name)), fixture=name, verify_seed=verify_seed)
        for name in FIXTURES
    ]


def _nonzero(rng: random.Random, bound: int, avoid: int | None = None) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v and v != avoid])


def chain_scenario(name: str, m: int, targets: tuple[int, ...], rng: random.Random, shear: bool) -> Scenario:
    """Chain of m point blow-ups, each at the origin of chart z.

    Hypercurvette j is the bundle ``x - a_j z^j + y z^j`` over ``x - b_j z^j``
    with seeded nonzero ``a_j != b_j``; divisor i is checked right after the
    i-th blow-up.  With ``shear`` a seeded nonzero translation of y precedes
    every blow-up after the first.
    """
    x, y, z = (Polynomial.variable(RING, v) for v in RING)
    steps: list = []
    for k in range(1, m + 1):
        if shear and k > 1:
            steps.append(ShearStep("y", Polynomial.constant(RING, _nonzero(rng, 9))))
        steps.append(BlowupStep(RING, "z"))
    equations = {}
    bundles = {}
    for j in range(1, m + 1):
        a = _nonzero(rng, 9)
        b = _nonzero(rng, 9, avoid=a)
        equations[f"C{j}"] = x - a * z**j + y * z**j
        equations[f"C{j}b"] = x - b * z**j
        bundles[j] = (f"C{j}", f"C{j}b")
    return Scenario(
        name=name,
        descriptor=make_descriptor(3, [[]] + [[k] for k in range(1, m)]),
        request=SupportRequest(targets=targets),
        tower=ChartTower(RING, tuple(steps)),
        equations=equations,
        bindings=Bindings(bundles=bundles),
        charts={i: DivisorChart(blowups=i) for i in range(1, m + 1)},
        seed=rng.randint(1, 10**6),
    )


def _generated(scenarios: list[Scenario]) -> list[Item]:
    return [Item(sc.name, _commands(sc), data=scenario_to_json(sc)) for sc in scenarios]


def chain_scenarios(seed: int) -> list[Scenario]:
    out = []
    for family in range(1, CHAIN_FAMILIES + 1):
        for m in CHAIN_SINGLE_M:
            rng = random.Random(f"chain/{seed}/{family}/{m}/1")
            out.append(chain_scenario(f"chain-f{family}-m{m}-t1", m, (m,), rng, shear=False))
        for m in CHAIN_DOUBLE_M:
            rng = random.Random(f"chain/{seed}/{family}/{m}/2")
            out.append(chain_scenario(f"chain-f{family}-m{m}-t2", m, (m // 2, m), rng, shear=False))
    return out


def shear_chain_scenarios(seed: int) -> list[Scenario]:
    out = []
    for family in range(1, SHEAR_FAMILIES + 1):
        for m in SHEAR_M:
            rng = random.Random(f"shear-chain/{seed}/{family}/{m}")
            out.append(chain_scenario(f"shear-chain-f{family}-m{m}", m, (m,), rng, shear=True))
    return out


def solve_scenarios(seed: int) -> list[Scenario]:
    """Tower-less descriptors: a path ``[j-1]`` and a ladder ``[j-2, j-1]``.

    Each gets a support request with seeded off-target orders and a single
    request of seeded degree, at s = m/2 and s = m; the single requests use
    the tail ``{i: {i: 1}}`` and unit special rows.
    """
    rng = random.Random(f"solve/{seed}")
    out = []
    for m in SOLVE_M:
        for pattern in ("path", "ladder"):
            parents = [[]] + [[j - 1] if pattern == "path" or j == 2 else [j - 2, j - 1] for j in range(2, m + 1)]
            for s in (m // 2, m):
                offsets = {i: rng.randint(1, 3) for i in range(1, m + 1) if i != s}
                out.append(
                    Scenario(
                        name=f"solve-{pattern}-m{m}-s{s}-support",
                        descriptor=make_descriptor(3, parents),
                        request=SupportRequest(targets=(s,), offsets=offsets),
                        seed=seed,
                    )
                )
                specials = {j: (1,) * (s - 1) for j in parents[s - 1]}
                tail = TailData(s=s, mu_curvettes={i: {i: 1} for i in range(s + 1, m + 1)})
                out.append(
                    Scenario(
                        name=f"solve-{pattern}-m{m}-s{s}-single",
                        descriptor=make_descriptor(3, parents, special_mults=specials),
                        request=SingleRequest(s=s, degree=rng.randint(1, 3), tail=tail),
                        seed=seed,
                    )
                )
    return out


GENERATORS = {
    "chain": chain_scenarios,
    "shear-chain": shear_chain_scenarios,
    "solve": solve_scenarios,
}


def build_items(workload: str, seed: int) -> list[Item]:
    """The scenarios of one pass of ``workload`` at ``seed``."""
    if workload == "fixtures":
        return fixture_items(seed)
    return _generated(GENERATORS[workload](seed))


def warmup_item(items: list[Item]) -> Item:
    """The smallest scenario that runs every command of the workload."""
    widest = max(len(item.commands) for item in items)
    return next(item for item in items if len(item.commands) == widest)
