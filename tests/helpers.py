"""Shared test utilities: seeded random descriptors and requests, a four-divisor tower
that needs doublings, three request scenarios and the bench's scenario
generators."""

from __future__ import annotations

import dataclasses
import importlib.util
import random
import sys
from pathlib import Path

from dicriticals.candidates import Bindings
from dicriticals.charts import BlowupStep, ChartTower, LineClassSpec
from dicriticals.descriptor import ModificationDescriptor, TailData, low_sets, make_descriptor
from dicriticals.fixtures import point_point_line, three_points_line
from dicriticals.poly import Polynomial
from dicriticals.scenario import DivisorChart, LastRequest, Scenario, SingleRequest, SupportRequest


def random_descriptor(rng: random.Random, max_m: int = 8) -> ModificationDescriptor:
    """Valid descriptor with random containment sets and 0/1 multiplicities."""
    m = rng.randint(1, max_m)
    parents: list[list[int]] = [[]]
    for j in range(2, m + 1):
        pool = list(range(1, j))
        parents.append(sorted(rng.sample(pool, rng.randint(1, len(pool)))))
    rows = []
    for j in range(1, m + 1):
        rows.append(tuple(rng.randint(0, 1) for _ in range(j - 1)) + (1,))
    return make_descriptor(3, parents, curvette_mults=rows)


def random_request(rng: random.Random, kind: str | None = None):
    """A tower-less ``single`` or ``last`` request on a random descriptor; the
    kind is drawn unless it is given.

    The descriptor has n = 2..5 and m = 2..9, random parents, multiplicity
    rows with entries 0..2 and special rows 0..3 for the parents of s.  A
    single request carries a tail for s with random ``muZ`` (1..2) and, over
    centers whose image meets a divisor below s, random ``muH`` (1..9, heavy
    enough that some requests exhaust their doublings); a last
    request carries one half of the time.  Each order map is left out or
    given on a random subset of its keys.  Returns ``(kind, d, s, degree,
    special_exponents, contact_orders, target_orders)``.
    """
    n, m = rng.randint(2, 5), rng.randint(2, 9)
    parents = [[]] + [sorted(rng.sample(range(1, j), rng.randint(1, min(3, j - 1)))) for j in range(2, m + 1)]
    rows = [tuple(rng.randint(0, 2) for _ in range(j - 1)) + (1,) for j in range(1, m + 1)]
    kind = kind or rng.choice(("single", "last"))
    s = rng.randint(1, m)
    owners = parents[s - 1]
    specials = {j: tuple(rng.randint(0, 3) for _ in range(s - 1)) for j in owners}
    d = make_descriptor(n, parents, curvette_mults=rows, special_mults=specials)
    if kind == "single" or rng.random() < 0.5:
        lows = low_sets(d, s)
        mu_z, mu_h = {}, {}
        for i in range(s + 1, m + 1):
            mu_z[i] = {i: rng.randint(1, 2)}
            mu_z[i] |= {j: rng.randint(1, 2) for j in range(i + 1, m + 1) if rng.random() < 0.3}
            if owners and min(lows[i]) < s and rng.random() < 0.5:
                mu_h[i] = {j: rng.randint(1, 9) for j in rng.sample(owners, rng.randint(1, len(owners)))}
        tail = TailData(s=s, mu_curvettes=mu_z, mu_specials=mu_h)
        d = make_descriptor(n, parents, curvette_mults=rows, special_mults=specials, tail=tail)

    def some(keys, values):
        if rng.random() < 0.4:
            return None
        return {k: rng.choice(values) for k in keys if rng.random() < 0.7}

    free = [i for i in range(1, s) if i not in owners]
    targets = (1, 2, 3, 4) if kind == "single" else (-3, -2, -1, 1, 2, 3)
    return kind, d, s, rng.randint(1, 3), some(owners, (1, 2, 3)), some(owners, (1, 2, 3)), some(free, targets)


def four_divisor_tower() -> ModificationDescriptor:
    """Three points and then a point on E_2 and E_3 that the special
    hypersurface of E_1 passes through twice: a single request at 3 with
    unit contact orders needs two doublings."""
    return make_descriptor(
        3,
        [[], [1], [1, 2], [2, 3]],
        curvette_mults=[(1,), (1, 1), (1, 1, 1), (2, 1, 1, 1)],
        special_mults={1: (2, 2), 2: (3, 2)},
        tail=TailData(s=3, mu_curvettes={4: {4: 1}}, mu_specials={4: {1: 2}}),
    )


def support_middle() -> Scenario:
    """point-point-line with a support request for its middle divisor."""
    base = point_point_line()
    return Scenario(
        name="support-middle",
        descriptor=base.descriptor,
        request=SupportRequest(targets=(2,), offsets={1: 1, 3: 1}),
        tower=base.tower,
        equations=base.equations,
        bindings=Bindings(bundles={1: ("C1",), 2: ("C2",), 3: ("C3",)}),
        seed=42,
    )


def three_points_line_last() -> Scenario:
    """three-points-line with a last-dicritical request for divisor 3 of 4,
    so that the verified scope 1..3 stops short of the tower."""
    return dataclasses.replace(
        three_points_line(),
        name="three-points-line-last",
        request=LastRequest(s=3, degree=1, special_exponents={1: 1, 2: 1}, contact_orders={1: 1, 2: 1}),
    )


def pole_tie_single() -> Scenario:
    """A single request at 5 on a five-blow-up tower in four variables whose
    denominator g * twist + pole^k ties at E_2 (order 14 each): the leading
    forms cancel, so h walks to order 0 at E_2 where the solver predicts 1."""
    ring = ("x1", "x2", "x3", "x4")
    x1, x2, x3, x4 = (Polynomial.variable(ring, v) for v in ring)
    tower = ChartTower(
        ring,
        (
            BlowupStep(ring, "x4"),
            BlowupStep(("x1", "x3", "x4"), "x1"),
            BlowupStep(("x1", "x4"), "x1"),
            BlowupStep(("x1", "x2"), "x1"),
            BlowupStep(ring, "x1"),
        ),
    )
    descriptor = make_descriptor(
        4,
        [[], [1], [1, 2], [3], [1, 4]],
        dims=[0, 1, 2, 2, 0],
        curvette_mults=[(1,), (1, 1), (2, 1, 1), (1, 0, 0, 1), (2, 0, 0, 1, 1)],
        special_mults={1: (2, 0, 0, 2), 4: (3, 0, 0, 2)},
    )
    equations = {
        "C1": x1 - 2 * x4,
        "C1b": 2 * x1 + 5 * x4,
        "C2": x3 - 2 * x1,
        "C2b": 2 * x3 + 5 * x1,
        "C3": x4**3 - 3 * x1**2,
        "C3b": 2 * x4**3 + 5 * x1**2,
        "C4": x2 - 7 * x1,
        "C4b": 2 * x2 + 5 * x1,
        "C5": x2 * x4 - 2 * x1**2,
        "C5b": 2 * x2 * x4 + 5 * x1**2,
        "P": x2 * x4 - 11 * x1**2,
        "Q": x2 * x4 + 13 * x1**2,
        "L": x2 * x4 - 17 * x1**2,
        "H1": x2**2 + x4**3,
        "H4": x2**2 * x4 + x1**3,
    }
    return Scenario(
        name="pole-tie-single",
        descriptor=descriptor,
        request=SingleRequest(
            s=5, degree=3, special_exponents={1: 1, 4: 1}, contact_orders={1: 1, 4: 1}, tail=TailData(s=5)
        ),
        tower=tower,
        equations=equations,
        bindings=Bindings(
            primary="P",
            secondary="Q",
            bundles={j: (f"C{j}", f"C{j}b") for j in range(1, 6)},
            specials={1: "H1", 4: "H4"},
            pole="L",
        ),
        charts={i: DivisorChart(blowups=i) for i in range(1, 6)},
        lines={5: LineClassSpec({"x1": "zero", "x2": "param", "x3": "const", "x4": "const"})},
    )


def bench_workloads(monkeypatch):
    """``bench/workloads.py``, loaded from its file: the suite does not collect the bench."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module
