"""vinebound benchmark: seeded verification workloads run through the
command line in-process, as a closed loop with one client and jobs=1.

Run from the root of a source checkout:

    python3 bench/run.py --workload fuzz-small --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes over the same inputs and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
``record {...}``, carries the environment, the pass digests and every metric.
``python3 bench/run.py --write-spec`` rewrites BENCHMARK.json from the
definitions below. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "vinebound"
SCRATCH = ".bench_tmp"
SPANS_DIR = ".bench_out"
RUN_SECONDS = 35
SETUP_SAMPLES = 7
MIN_PASSES = 2
TAIL_BEYOND = 10

WORKLOADS = {
    "fuzz-small": "acceptance fuzz, n 4..12: the subset-DP oracles and all-vines checks carry the load",
    "fuzz-dense": "dense Hamiltonian fuzz, n 18..22, 30..40 chords: longest_cycle search with a heavy tail, no oracles",
    "extremal-grid": "38 tight graphs up to n=143 with c much less than l: long sparse solves and vine counts up to m=20",
}

# name -> (unit, better, bound as a share of the parent's median). On a
# shared 2-vCPU machine the same pass runs up to 20% slower from one minute
# to the next, so the timing bounds are as wide as allowed.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "inst_per_s": ("1/s", "higher", 0.25),
    "analyze_ms.p50": ("ms", "lower", 0.25),
    "analyze_ms.tail": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Shape of one pass; a run repeats its pass until --seconds is up.
PASS = {"small_batches": 25, "small_count": 20, "dense_batches": 6, "dense_count": 10, "m_max": 20}
FUZZ_SMALL = {"nmin": 4, "nmax": 12, "extra-min": 0, "extra-max": 10, "vine-cap": 200}
FUZZ_DENSE = {"nmin": 18, "nmax": 22, "extra-min": 30, "extra-max": 40, "vine-cap": 200}
# The dense pool is fixed: a fresh sample per seed would swing throughput
# severalfold, because one instance in twenty carries most of the time.
DENSE_POOL_SEED = 7
SLACKS = (0, 2)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(f"{spans.ROOT}.self_s", "s"), (f"{spans.ROOT}.calls", "count")]
    for name in spans.TARGETS:
        names += [(f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    names += [(metric, "count") for metric in spans.RESULT_COUNTS]
    names += [("solvers.budget_errors", "count"), ("trace.overhead_s", "s")]
    return names


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "lower"}  # each is work done or time spent
            for name, unit in layer_metric_names()
        ],
    }


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Campaign:
    """One campaign command and the number of instances it verifies."""

    argv: tuple[str, ...]
    instances: int


def _fuzz_argv(params: dict, count: int, seed: int) -> tuple[str, ...]:
    argv = ["fuzz", "--count", str(count), "--seed", str(seed), "--json", "-"]
    for flag, value in params.items():
        argv += [f"--{flag}", str(value)]
    return tuple(argv)


def build_campaigns(workload: str, seed: int) -> list[Campaign]:
    """The campaign commands of one pass, in run order, from the seed."""
    rng = random.Random(seed)
    if workload == "fuzz-small":
        count = PASS["small_count"]
        return [
            Campaign(_fuzz_argv(FUZZ_SMALL, count, rng.getrandbits(31)), count)
            for _ in range(PASS["small_batches"])
        ]
    if workload == "fuzz-dense":
        count = PASS["dense_count"]
        seeds = [DENSE_POOL_SEED + k for k in range(PASS["dense_batches"])]
        rng.shuffle(seeds)
        return [Campaign(_fuzz_argv(FUZZ_DENSE, count, s), count) for s in seeds]
    if workload == "extremal-grid":
        points = [(m, y) for m in range(2, PASS["m_max"] + 1) for y in SLACKS]
        rng.shuffle(points)
        return [
            Campaign(
                ("extremal", "--m", str(m), "--slack", str(y), "--out", f"x-m{m}-y{y}.txt", "--verify"),
                1,
            )
            for m, y in points
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Program:
    """The freshly imported package and the functions the benchmark calls."""

    main: Callable
    generate: Callable
    serialize: Callable
    modules: list


def load_program() -> Program:
    """Import the package; src/ must be on sys.path."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
    families = sys.modules[f"{PACKAGE}.families"]
    graphs = sys.modules[f"{PACKAGE}.graphs"]
    return Program(cli.main, families.random_two_connected, graphs.serialize_graph, modules)


# A fresh interpreter's set-up: everything a run does before its first
# timed operation.
SETUP_CODE = """import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
run.load_program()
run.build_campaigns(sys.argv[3], int(sys.argv[4]))
"""


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall time of SETUP_SAMPLES fresh interpreters, each from its start
    through importing the benchmark and the package and building the
    workload's inputs; the cost every run pays before it measures."""
    argv = [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, check=True)
        samples.append(time.perf_counter() - start)
    return samples


# ----------------------------------------------------------------------
# operations and their output gates
# ----------------------------------------------------------------------

# The reference: a fixed search in the solvers' style, recursion over
# bitmask adjacency (here the 4-cube), timed before every operation. On a
# shared machine the same work runs up to twice as slow for minutes at a
# time. The reference's median time over the operations around one
# tracks that, and the timing metrics are scaled to a machine on which it
# takes REF_S (about what a 2-vCPU x86-64 VM with CPython 3.11 gives). The
# reference never changes with the program, so a faster program still
# reads faster.
REF_ADJ = tuple(sum(1 << (v ^ 1 << b) for b in range(4)) for v in range(16))
REF_DEPTH = 9
REF_S = 0.004
REF_WINDOW = 5


def reference_search(v: int = 0, visited: int = 1, depth: int = REF_DEPTH) -> int:
    """Number of simple paths from v of at most ``depth`` edges in REF_ADJ."""
    if not depth:
        return 1
    total = 1
    free = REF_ADJ[v] & ~visited
    while free:
        low = free & -free
        free ^= low
        total += reference_search(low.bit_length() - 1, visited | low, depth - 1)
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_search()
    return time.perf_counter() - start


class GateError(Exception):
    """An operation exited 0 but its output is wrong."""


@dataclass
class Outcome:
    code: int | None
    stdout: str
    seconds: float
    error: str | None  # exception type and message, or the nonzero exit

    @property
    def failed(self) -> bool:
        return self.error is not None


def call_cli(program: Program, argv, tracer: spans.Tracer | None = None) -> Outcome:
    """Run one command in-process with its output captured. A nonzero exit
    or any exception is returned as a failure, never raised."""
    out, err = io.StringIO(), io.StringIO()
    code: int | None = None
    error: str | None = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin(spans.ROOT)
        try:
            code = program.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a harness failure
            error = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end(error and error.split(":", 1)[0])
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        lines = err.getvalue().strip().splitlines()
        error = f"exit {code}" + (f": {lines[-1]}" if lines else "")
    return Outcome(code, out.getvalue(), seconds, error)


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise GateError(f"report is not JSON: {exc}") from None


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def check_fuzz(program: Program, campaign: Campaign, stdout: str) -> list[tuple[str, dict]]:
    """Gate a fuzz report; return the analyze inputs it implies: one graph
    file per instance, with the instance's l, c, m and slack."""
    doc = _json(stdout)
    summary = doc.get("summary", {})
    instances = doc.get("instances", [])
    if summary.get("failed") != 0:
        raise GateError(f"summary reports failed={summary.get('failed')}")
    if summary.get("count") != campaign.instances or len(instances) != campaign.instances:
        raise GateError(f"expected {campaign.instances} instances, got {summary.get('count')}")
    graphs = []
    for inst in instances:
        source = f"g{inst['seed']}-{inst['n']}-{inst['extra_requested']}.txt"
        if not os.path.exists(source):  # the cwd is this run's scratch directory
            g, placed = program.generate(inst["n"], inst["extra_requested"], inst["seed"])
            if placed != inst["extra_placed"]:
                raise GateError(f"instance {inst['index']} regenerates with {placed} chords")
            with open(source, "w", encoding="utf-8") as fh:
                fh.write(program.serialize(g))
        graphs.append((source, {k: inst[k] for k in ("l", "c", "m", "slack")}))
    return graphs


def check_extremal(program: Program, campaign: Campaign, stdout: str) -> list[tuple[str, dict]]:
    """Gate an ``extremal --verify`` run; its exit 0 already certifies the
    closed-form l and c and tightness. Returns the emitted graph file with
    the verified l, c, m and slack."""
    lines = [line for line in stdout.splitlines() if line.startswith("verify: ")]
    if len(lines) != 1:
        raise GateError("no verify line in the output")
    tokens = lines[0].split()
    if tokens[-1] != "TIGHT":
        raise GateError(f"verified instance is not tight: {lines[0]}")
    fields = dict(t.split("=", 1) for t in tokens[1:-1])
    found = {"l": int(fields["l"]), "c": int(fields["c"]), "m": int(fields["m"]), "slack": int(fields["y"])}
    argv = campaign.argv
    if found["m"] != int(_flag(argv, "--m")) or found["slack"] != int(_flag(argv, "--slack")):
        raise GateError(f"verified m/slack differ from the request: {lines[0]}")
    return [(_flag(argv, "--out"), found)]


def check_analyze(stdout: str, expected: dict) -> None:
    results = _json(stdout).get("results", {})
    got = {k: results.get(k) for k in expected}
    if got != expected:
        raise GateError(f"analyze gives {got}, campaign recorded {expected}")


CHECKS = {"fuzz": check_fuzz, "extremal": check_extremal}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

@dataclass
class PassResult:
    traced: bool
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    wall: float = 0.0
    seconds: list[float] = field(default_factory=list)  # each operation's time, in order
    reference: list[float] = field(default_factory=list)  # the reference's time just before each
    campaigns: dict[Campaign, int] = field(default_factory=dict)  # -> operation index
    analyze: dict[str, int] = field(default_factory=dict)  # graph file -> operation index
    digest: str = ""
    stats: dict[str, spans.SpanStats] | None = None

    def times(self, kind: str, scaled: bool) -> dict:
        """Seconds per campaign or per graph, as measured or at the
        reference speed: each operation's time times REF_S over the median
        reference time of the REF_WINDOW operations on either side."""
        ops = getattr(self, kind)
        if not scaled:
            return {key: self.seconds[i] for key, i in ops.items()}
        return {
            key: self.seconds[i] * REF_S
            / statistics.median(self.reference[max(0, i - REF_WINDOW):i + REF_WINDOW])
            for key, i in ops.items()
        }


def _fingerprint(argv, outcome: Outcome) -> bytes:
    parts = [" ".join(argv), str(outcome.code), (outcome.error or "").split(":", 1)[0],
             hashlib.sha256(outcome.stdout.encode()).hexdigest()]
    if "--out" in argv and os.path.exists(_flag(argv, "--out")):
        with open(_flag(argv, "--out"), "rb") as fh:
            parts.append(hashlib.sha256(fh.read()).hexdigest())
    return ("\t".join(parts) + "\n").encode()


def run_pass(program: Program, campaigns: list[Campaign], tracer: spans.Tracer | None) -> PassResult:
    """Every campaign of the pass, each followed by ``analyze`` on each
    graph it verified. Nothing an operation does stops the pass."""
    result = PassResult(traced=tracer is not None)
    digest = hashlib.sha256()
    start = time.perf_counter()

    def op(argv) -> Outcome | None:
        result.reference.append(time_reference())
        outcome = call_cli(program, argv, tracer)
        result.seconds.append(outcome.seconds)
        result.attempted += 1
        digest.update(_fingerprint(argv, outcome))
        if outcome.failed:
            result.failed += 1
            result.failures.append(f"{' '.join(argv)}: {outcome.error}")
            return None
        return outcome

    for campaign in campaigns:
        outcome = op(campaign.argv)
        if outcome is None:
            continue
        try:
            graphs = CHECKS[campaign.argv[0]](program, campaign, outcome.stdout)
        except Exception as exc:  # a report the gate cannot read is a wrong output
            result.problems.append(f"{' '.join(campaign.argv)}: {type(exc).__name__}: {exc}")
            continue
        result.campaigns[campaign] = result.attempted - 1
        for source, expected in graphs:
            outcome = op(("analyze", source, "--json", "-"))
            if outcome is None:
                continue
            try:
                check_analyze(outcome.stdout, expected)
            except Exception as exc:  # a report the gate cannot read is a wrong output
                result.problems.append(f"analyze {source}: {type(exc).__name__}: {exc}")
                continue
            result.analyze[source] = result.attempted - 1
    result.digest = digest.hexdigest()
    result.wall = time.perf_counter() - start
    return result


def measure(program: Program, campaigns: list[Campaign], seconds: float, trace: bool,
            tracer: spans.Tracer | None = None) -> list[PassResult]:
    """Repeat the pass while the next one is expected to end within
    ``seconds``, but at least MIN_PASSES times; with ``trace``, alternate
    untraced and traced passes, at least one of each."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        next_traced = trace and len(untraced) > len(traced)
        enough = bool(traced and untraced) if trace else len(untraced) >= MIN_PASSES
        previous = (traced if next_traced else untraced)[-1:]
        if enough and time.perf_counter() - start + previous[0].wall > seconds:
            break
        if next_traced:
            tracer.clear()
            restore = spans.install(tracer, PACKAGE, program.modules)
            try:
                result = run_pass(program, campaigns, tracer)
            finally:
                restore()
            result.stats = tracer.stats
        else:
            result = run_pass(program, campaigns, None)
        passes.append(result)
    return passes


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, dict]:
    """The highest percentile with TAIL_BEYOND samples beyond it (fewer
    when there are not that many), with where it sits."""
    ordered = sorted(values)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    index = len(ordered) - 1 - beyond
    return ordered[index], {
        "percentile": 100.0 * (index + 1) / len(ordered),
        "beyond": beyond,
        "samples": len(ordered),
    }


def typical(passes: list[PassResult], kind: str, scaled: bool) -> dict:
    """Each operation's median time over the passes."""
    times: dict = {}
    for p in passes:
        for key, seconds in p.times(kind, scaled).items():
            times.setdefault(key, []).append(seconds)
    return {key: statistics.median(values) for key, values in times.items()}


def timings(passes: list[PassResult], scaled: bool) -> tuple[dict[str, float], dict]:
    """Throughput and analyze times from each operation's median time over
    the passes; and the tail's position."""
    campaigns = typical(passes, "campaigns", scaled)
    campaign_s = sum(campaigns.values())
    graph_ms = [1000.0 * seconds for seconds in typical(passes, "analyze", scaled).values()]
    tail_ms, tail_at = tail(graph_ms) if graph_ms else (0.0, {})
    return {
        "inst_per_s": sum(c.instances for c in campaigns) / campaign_s if campaign_s else 0.0,
        "analyze_ms.p50": statistics.median(graph_ms) if graph_ms else 0.0,
        "analyze_ms.tail": tail_ms,
    }, tail_at


def end_to_end(passes: list[PassResult], setup_s: float) -> tuple[dict[str, float], dict, dict]:
    """End-to-end metrics over the untraced passes, with times at the
    reference speed; the times as measured; and the tail's position.
    ``setup_s`` is scaled by the reference's median time over the run."""
    untraced = [p for p in passes if not p.traced]
    reference_s = statistics.median(r for p in untraced for r in p.reference)
    scaled, tail_at = timings(untraced, True)
    measured, _ = timings(untraced, False)
    measured["setup_s"] = setup_s
    measured["reference_ms"] = 1000.0 * reference_s
    attempted = sum(p.attempted for p in passes)
    metrics = {
        "setup_s": setup_s * REF_S / reference_s,
        **scaled,
        "failed_share": sum(p.failed for p in passes) / attempted if attempted else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, measured, tail_at


def per_layer(passes: list[PassResult], cost: tuple[float, float]) -> dict[str, float]:
    """Per-pass layer metrics: self times, less the tracer's ``cost`` per
    span, are medians over the traced passes; counts come from the first
    traced pass (they repeat exactly)."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = traced[0].stats
    empty = spans.SpanStats()
    self_times = [spans.self_times(p.stats, cost) for p in traced]
    metrics: dict[str, float] = {}
    for name in [spans.ROOT, *spans.TARGETS]:
        metrics[f"{name}.self_s"] = statistics.median(times.get(name, 0.0) for times in self_times)
        metrics[f"{name}.calls"] = first.get(name, empty).calls
    for metric, (name, _) in spans.RESULT_COUNTS.items():
        metrics[metric] = first.get(name, empty).counts.get(metric, 0)
    metrics["solvers.budget_errors"] = sum(
        first.get(name, empty).errors.get("SolveBudgetError", 0)
        for name in ("solvers.longest_path", "solvers.longest_cycle")
    )
    metrics["trace.overhead_s"] = sum(
        sum(typical(traced, kind, True).values()) - sum(typical(untraced, kind, True).values())
        for kind in ("campaigns", "analyze")
    )
    return metrics


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "host": platform.node(),
        "nproc": nproc,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": _git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description="vinebound benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help=f"measuring time; BENCHMARK.json sets {RUN_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from this file's definitions and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} is missing; run from a vinebound source checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    setup_samples = setup_times(args.workload, args.seed)
    setup_s = statistics.median(setup_samples)
    program = load_program()
    campaigns = build_campaigns(args.workload, args.seed)

    tracer = spans.Tracer() if args.trace else None
    span_cost = spans.calibrate() if args.trace else None
    workdir = ROOT / SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)  # graph files are named relative to it, so reports repeat byte for byte
    try:
        passes = measure(program, campaigns, args.seconds, bool(args.trace), tracer)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    e2e, measured, tail_at = end_to_end(passes, setup_s)
    problems = [msg for p in passes for msg in p.problems]
    failures = [msg for p in passes for msg in p.failures]
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        problems.append(f"passes over the same inputs gave {len(digests)} different digests")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    units["failed_share"] = "share"
    metrics = {name: (value, units[name]) for name, value in e2e.items()}
    if args.trace:
        layer_units = dict(layer_metric_names())
        metrics.update((name, (value, layer_units[name])) for name, value in per_layer(passes, span_cost).items())
        out_dir = ROOT / SPANS_DIR
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        print(f"spans: {len(tracer.spans)} of the last traced pass written to {spans_file}"
              f" ({tracer.dropped} beyond the cap not kept)")

    record = {
        "environment": environment(args),
        "counts": {
            "campaigns_per_pass": len(campaigns),
            "instances_per_pass": sum(c.instances for c in campaigns),
            "graphs_per_pass": len(passes[0].analyze),
            "passes_untraced": sum(1 for p in passes if not p.traced),
            "passes_traced": sum(1 for p in passes if p.traced),
        },
        "tail": {"metric": "analyze_ms.tail", **tail_at},
        "digests": digests,
        "setup_samples_s": setup_samples,
        "measured": measured,
        "span_cost_s": span_cost and {"inside": span_cost[0], "outside": span_cost[1]},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in problems[:10]:
        print(f"problem: {msg}")
    for msg in failures[:10]:
        print(f"failed: {msg}")
    print("record " + json.dumps(record))
    reported = [name for name, _ in layer_metric_names()] if args.trace else list(END_TO_END)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
