"""Benchmark of the ``dicriticals`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Set-up imports ``dicriticals`` from ``src/``, generates the workload from the
seed, writes the scenario files and makes one warm-up call per command on
the smallest scenario.  Then passes over every scenario of the workload run
for ``--seconds``: ``matrix``, ``solve`` and ``verify --certificate``, called
in-process through ``dicriticals.cli.main`` (single process, single thread,
closed loop: each call starts when the previous one returns).

Times are reported at a reference speed.  The shared machine this runs on
moves between fast and slow phases (up to 1.7x apart, lasting seconds to
minutes), which no run length averages away.  So a fixed calibration kernel
that does not use the library is timed before every call, and a pass's
seconds are scaled by ``KERNEL_REF_S`` over the pass's mean kernel time: the
seconds the pass would have taken at the speed where the kernel takes
``KERNEL_REF_S``.  The raw seconds are printed beside them.

With ``--trace 0`` nothing is traced and the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the last line carries the per-layer metrics of the traced passes.  Both
print a human-readable report and a ``meta`` line before it, and write the
result (and, traced, the spans) under ``.bench_out/``.  Work files live in a
temporary directory under ``.bench_work/`` that is removed at exit.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "reference_digests.json"
GOLDEN = ROOT / "tests" / "data" / "three-points.verify.json"
# Import time is paid once per process, so set-up is sampled in fresh
# processes: this one and SETUP_SAMPLES - 1 more; setup_s is their median.
SETUP_SAMPLES = 7
SETUP_KERNELS = 15  # kernel timings after each set-up; their median scales it
PROBE_TIMEOUT_S = 120
KERNEL_REF_S = 0.001  # calibration kernel seconds at the reference speed


def import_library() -> None:
    """Put ``src/`` first on the path and make sure that copy is the one used."""
    if not (SRC / "dicriticals" / "__init__.py").is_file():
        sys.exit(f"bench: no dicriticals sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dicriticals

    if Path(dicriticals.__file__).resolve().parent != SRC / "dicriticals":
        sys.exit(f"bench: imported dicriticals from {dicriticals.__file__}, not from {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fixtures", "chain", "shear-chain", "solve"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def references(workload: str, seed: int) -> dict[str, str]:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def setup(workload: str, seed: int, workdir: Path):
    """Generate the workload, write its files and warm every command up once."""
    from harness import Harness
    from workloads import build_items, warmup_item

    items = build_items(workload, seed)
    golden = GOLDEN.read_text() if workload == "fixtures" and GOLDEN.is_file() else None
    harness = Harness(items, workdir / "run", references(workload, seed), golden)
    warm = Harness([warmup_item(items)], workdir / "warmup").run_pass()
    return harness, [c for c in warm.calls if c.failure is not None]


def setup_probe(args) -> tuple[float, float]:
    """Set-up and kernel seconds of one fresh process on the same workload and seed."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    setup_s, kernel_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(kernel_s)


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the calibration kernel took ``kernel_s``, at the reference speed."""
    return seconds * KERNEL_REF_S / kernel_s


def pass_seconds(p, *commands: str) -> float:
    """Seconds of the pass's calls of ``commands`` (all calls if none), at the reference speed."""
    return at_reference_speed(p.seconds(*commands), statistics.fmean(c.kernel_s for c in p.calls))


def highest_percentile(values: list[float]) -> tuple[int, float, int] | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[p - 1]
            return p, cut, sum(v > cut for v in values)
    return None


def describe(name: str, values: list[float]) -> str:
    line = f"{name}: median {statistics.median(values):.6f} over {len(values)} passes"
    tail = highest_percentile(values)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6f} ({tail[2]} passes beyond)"
    return line


def failure_lines(passes) -> list[str]:
    seen = Counter((c.scenario, c.command, c.failure) for p in passes for c in p.calls if c.failure is not None)
    return [f"FAILED {s} {cmd}: {why} (x{k})" for (s, cmd, why), k in sorted(seen.items())]


def gcd_fallback_ratio(harness) -> float:
    """Share of top-level gcd calls that fell back to the PRS recursion in one pass."""
    from spans import TARGETS, Tracer

    tracer = Tracer([t for t in TARGETS if t.name == "poly.gcd"])
    tracer.install()
    try:
        harness.run_pass()
    finally:
        tracer.uninstall()
    tops, recursed, _ = tracer.nested_figures()
    return recursed / tops if tops else 0.0


def timed_run(args, harness, setup: tuple[float, float], meta: dict) -> dict:
    setups = [setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    harness.calibrate = True
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        passes.append(harness.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(len(p.calls) for p in passes)
    failed = sum(c.failure is not None for p in passes for c in p.calls)
    setup_s = [at_reference_speed(*sample) for sample in setups]
    solve_s = [pass_seconds(p, "solve") for p in passes]
    check_s = [pass_seconds(p, "matrix", "verify") for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_s": (statistics.median(solve_s), "s"),
        "check_s": (statistics.median(check_s), "s"),
        "scenarios_per_s": (sum(p.processed for p in passes) / sum(map(pass_seconds, passes)), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    meta.update(
        passes=len(passes),
        calls_per_pass=len(passes[0].calls),
        setup_samples=setups,
        fail_ratio=failed / attempted,
    )
    if args.workload == "chain":
        meta["poly.gcd.fallback_ratio"] = gcd_fallback_ratio(harness)
    report = [
        f"times at the reference speed (calibration kernel {KERNEL_REF_S * 1e3:g} ms); raw seconds in brackets",
        describe("setup_s", setup_s) + f" [{statistics.median(s for s, _ in setups):.6f}]",
        describe("solve_s per pass", solve_s) + f" [{statistics.median(p.seconds('solve') for p in passes):.6f}]",
        describe("check_s per pass", check_s)
        + f" [{statistics.median(p.seconds('matrix', 'verify') for p in passes):.6f}]",
        describe("verify_s per pass", [pass_seconds(p, "verify") for p in passes])
        + f" [{statistics.median(p.seconds('verify') for p in passes):.6f}]",
        describe("kernel ms per pass", [statistics.fmean(c.kernel_s for c in p.calls) * 1e3 for p in passes]),
        f"first timed pass: solve_s {solve_s[0]:.6f}, check_s {check_s[0]:.6f}"
        " (reuse across passes in one process shows as a gap to the medians above)",
        *failure_lines(passes),
    ]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def traced_run(args, harness, meta: dict) -> dict:
    from spans import LAYER_METRICS, Tracer

    tracer = Tracer()
    harness.tracer = tracer
    prime = harness.run_pass()  # writes the artifacts, so that every measured pass repeats
    untraced, traced, per_pass = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < args.seconds:
        untraced.append(harness.run_pass())
        tracer.reset()
        tracer.install()
        try:
            done = harness.run_pass()
        finally:
            tracer.uninstall()
        traced.append(done)
        rows = tracer.summary()
        layer = tracer.layer_metrics(rows)
        layer["trace.unaccounted_ratio"] = 1 - (tracer.covered_seconds() - layer["cli.self_s"]) / done.wall
        per_pass.append(layer)
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced)
    metrics = {
        name: (overhead if name == "trace.overhead_ratio" else statistics.median(m[name] for m in per_pass), unit)
        for name, unit in LAYER_METRICS
    }

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(spans_path, [item.name for item in harness.items])
    verify_s = done.seconds("verify")
    report = layer_table(rows, done.wall)
    report += [
        f"trace overhead: traced pass {statistics.median(p.wall for p in traced):.4f} s"
        f" / untraced {statistics.median(p.wall for p in untraced):.4f} s = {overhead:.3f}"
        f" ({len(traced)} traced, {len(untraced)} untraced passes)",
        f"unaccounted share of the traced pass: {metrics['trace.unaccounted_ratio'][0]:.4f}",
        f"walks {layer['charts.walks']} for {layer['verify.rows']} verify rows"
        f" ({layer['charts.walks_per_row']:.3f} per row)",
        f"shear substitution share of traced verify time: "
        + (f"{layer['charts.shear_s'] / verify_s:.4f}" if verify_s else "n/a (no verify calls)"),
        f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.start)} spans of the last traced pass)",
    ]
    passes = [prime] + untraced + traced
    report += failure_lines(passes)
    meta.update(passes=len(passes), traced_passes=len(traced), calls_per_pass=len(done.calls))
    attempted = sum(len(p.calls) for p in passes)
    failed = sum(c.failure is not None for p in passes for c in p.calls)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def layer_table(rows: dict, wall: float) -> list[str]:
    """Calls, self seconds and share of the traced pass, per span and per layer."""
    layers: dict[str, list[float]] = {}
    for name, r in rows.items():
        acc = layers.setdefault(name.split(".")[0], [0, 0.0])
        acc[0] += r["calls"]
        acc[1] += r["self_s"]
    lines = [f"{'layer / span':<36} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for layer in sorted(layers, key=lambda k: -layers[k][1]):
        calls, self_s = layers[layer]
        lines.append(f"{layer:<36} {calls:>9} {self_s:>10.4f} {self_s / wall:>7.3f}")
        for name in sorted((n for n in rows if n.split(".")[0] == layer), key=lambda n: -rows[n]["self_s"]):
            r = rows[name]
            lines.append(f"  {name:<34} {r['calls']:>9} {r['self_s']:>10.4f} {r['self_s'] / wall:>7.3f}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import DEFAULT_SEED

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        load_start = read_loadavg()
        harness, warm_failures = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - START
        from harness import kernel_seconds

        setup_kernel_s = statistics.median(kernel_seconds() for _ in range(SETUP_KERNELS))
        if args.setup_probe:
            print(setup_s, setup_kernel_s)
            return 1 if warm_failures else 0
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "default_seed": DEFAULT_SEED,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": sys.version.split()[0],
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
            "scenarios": len(harness.items),
            "scenario_names": [item.name for item in harness.items],
            "reference_digests": len(harness.references),
            "loadavg_start": load_start,
        }
        run = traced_run(args, harness, meta) if args.trace else timed_run(args, harness, (setup_s, setup_kernel_s), meta)
        meta["loadavg_end"] = read_loadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": run["failed"] == 0 and not warm_failures,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "report": run["report"], "result": result}, indent=1) + "\n"
    )
    for line in run["report"] + [f"warm-up FAILED {c.scenario} {c.command}: {c.failure}" for c in warm_failures]:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
