"""Drive ``dicriticals`` the way a user does and check every call.

Each scenario goes through ``matrix``, ``solve`` and ``verify --certificate
<stored solve artifact>`` (the commands its request supports), called
in-process through ``dicriticals.cli.main`` with stdout and stderr captured.
A call fails on an unexpected exit code, a crash, a verify artifact whose
``overall`` is not PASS, an append-only drift error on a repeat pass, or
artifact bytes that differ from the stored reference digests or from the
golden three-points report.

With ``calibrate`` set, a fixed calibration kernel is timed right before
every call, so that each call's time can be read against the speed the
machine ran at just then.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from dicriticals import cli

from workloads import Item

GOLDEN_NAME = "three-points.verify.json"
KERNEL_FACTOR = {(0, 0): Fraction(1), (1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3), (1, 1): Fraction(-5, 7)}


def calibration_kernel() -> dict:
    """A fixed amount of the library's kind of work without the library.

    It multiplies sparse polynomials with exact rational coefficients, as
    ``poly`` does, so a slow phase of the shared machine slows it about as
    much as the calls it is timed beside; a change to ``dicriticals`` cannot
    change its speed.
    """
    acc = {(0, 0): Fraction(1)}
    for _ in range(5):
        out: dict = {}
        for (a, b), u in acc.items():
            for (c, d), v in KERNEL_FACTOR.items():
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + u * v
        acc = {k: v for k, v in out.items() if v}
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


@dataclass
class Call:
    scenario: str
    command: str
    seconds: float
    failure: str | None = None
    kernel_s: float = 0.0  # calibration kernel time just before the call


@dataclass
class Pass:
    wall: float
    calls: list[Call] = field(default_factory=list)
    processed: int = 0  # scenarios whose every call held

    def seconds(self, *commands: str) -> float:
        return sum(c.seconds for c in self.calls if not commands or c.command in commands)


class Harness:
    """Runs passes over prepared scenario files inside one work directory.

    ``references`` maps artifact names to sha256 digests; ``golden`` holds the
    golden three-points verify bytes, compared byte for byte at the seed they
    were made with and with the seed field ignored at any other seed.
    """

    def __init__(
        self,
        items: list[Item],
        workdir: Path,
        references: dict[str, str] | None = None,
        golden: str | None = None,
        tracer=None,
    ):
        self.items = items
        self.out = workdir / "out"
        self.scenario_dir = workdir / "scenarios"
        self.references = references or {}
        self.golden = golden
        self.tracer = tracer
        self.calibrate = False
        self.digests: dict[str, str] = {}
        self.scenario_dir.mkdir(parents=True, exist_ok=True)
        for item in items:
            if item.data is not None:
                self._scenario_path(item).write_text(json.dumps(item.data))

    def _scenario_path(self, item: Item) -> Path:
        return self.scenario_dir / f"{item.name}.json"

    def _argv(self, item: Item, command: str) -> list[str]:
        ref = item.fixture if item.fixture is not None else str(self._scenario_path(item))
        argv = [command, "--scenario", ref, "--out", str(self.out)]
        if command == "verify":
            if "solve" in item.commands:
                argv += ["--certificate", str(self.out / f"{item.name}.solve.json")]
            if item.verify_seed is not None:
                argv += ["--seed", str(item.verify_seed)]
        return argv

    def call(self, item: Item, command: str) -> Call:
        kernel_s = kernel_seconds() if self.calibrate else 0.0
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(self._argv(item, command))
        except Exception:  # a crash is a failed call, never the end of the run
            seconds = time.perf_counter() - start
            last = traceback.format_exc().strip().splitlines()[-1]
            return Call(item.name, command, seconds, f"crash: {last}", kernel_s)
        seconds = time.perf_counter() - start
        return Call(item.name, command, seconds, self._check(item, command, code, sink.getvalue()), kernel_s)

    def _check(self, item: Item, command: str, code: int, output: str) -> str | None:
        if "drift:" in output:
            return "drift"
        if code != cli.PASS:
            return f"exit code {code}"
        name = f"{item.name}.{command}.json"
        path = self.out / name
        if not path.exists():
            return f"missing artifact {name}"
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        self.digests[name] = digest
        if command == "verify" and json.loads(data).get("overall") != "PASS":
            return "overall not PASS"
        if name in self.references and self.references[name] != digest:
            return "reference digest mismatch"
        if name == GOLDEN_NAME and self.golden is not None and not self._matches_golden(data.decode()):
            return "golden bytes mismatch"
        return None

    def _matches_golden(self, text: str) -> bool:
        ours, golden = json.loads(text), json.loads(self.golden)
        if ours["seed"] == golden["seed"]:
            return text == self.golden
        ours.pop("seed"), golden.pop("seed")
        return ours == golden

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        result = Pass(wall=0.0)
        for index, item in enumerate(self.items):
            if self.tracer is not None:
                self.tracer.scenario_id = index
            calls = [self.call(item, command) for command in item.commands]
            result.calls.extend(calls)
            result.processed += all(c.failure is None for c in calls)
        result.wall = time.perf_counter() - start
        return result
