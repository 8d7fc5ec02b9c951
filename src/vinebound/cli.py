"""Command-line front end.

Subcommands: ``analyze`` a graph file, ``extremal`` to emit a tight
family instance, ``fuzz`` for seeded random campaigns, and
``oracle-check`` to cross-validate the two solver implementations.

Exit codes: 0 all checks pass, 1 any violation (counterexample
candidate), 2 input error, 3 resource limit hit. JSON reports contain no
wall-clock values, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .bounds import (
    BoundReport,
    analyze,
    circumference_bound,
    verify_all_longest_paths,
    verify_all_vines,
)
from .errors import (
    GraphParseError,
    InternalInvariantError,
    PreconditionError,
    ResourceLimitError,
)
from .families import (
    ExtremalSpec,
    FuzzConfig,
    FuzzReport,
    extremal_cycle_length,
    extremal_graph,
    extremal_path_length,
    fuzz_campaign,
    random_two_connected,
)
from .graphs import parse_graph, serialize_graph
from .solvers import (
    ORACLE_MAX_VERTICES,
    SolveLimits,
    longest_cycle,
    longest_cycle_oracle,
    longest_path,
    longest_path_oracle,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

SCHEMA_VERSION = "1"


def _limits_from_args(args) -> SolveLimits:
    return SolveLimits(node_budget=args.node_budget, time_budget=args.time_budget)


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--node-budget", type=int, default=SolveLimits().node_budget,
                        help="search-tree node cap per solve")
    parser.add_argument("--time-budget", type=float, default=SolveLimits().time_budget,
                        help="wall-clock cap per solve, seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vinebound",
        description="Exact circumference-bound verification for 2-connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one graph file")
    p_analyze.add_argument("graph", help="path to a graph file")
    p_analyze.add_argument("--json", metavar="FILE", default=None,
                           help="write the structured report to FILE ('-' for stdout)")
    p_analyze.add_argument("--verbose", action="store_true", help="print the full verdict dump")
    p_analyze.add_argument("--all-vines", type=int, metavar="CAP", default=None,
                           help="additionally check every vine on the longest path, up to CAP")
    p_analyze.add_argument("--exhaustive-paths", action="store_true",
                           help="re-check every longest path (graphs with at most 10 vertices)")
    _add_limit_flags(p_analyze)

    p_extremal = sub.add_parser("extremal", help="emit a tight family instance")
    p_extremal.add_argument("--m", type=int, required=True, help="ear count, at least 2")
    p_extremal.add_argument("--slack", type=int, required=True, help="even non-negative slack")
    p_extremal.add_argument("--out", metavar="FILE", default=None,
                            help="write the graph file here instead of stdout")
    p_extremal.add_argument("--verify", action="store_true",
                            help="run the analyzer on the result and require tightness")
    _add_limit_flags(p_extremal)

    p_fuzz = sub.add_parser("fuzz", help="seeded random verification campaign")
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--nmin", type=int, required=True)
    p_fuzz.add_argument("--nmax", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--jobs", type=int, default=1)
    p_fuzz.add_argument("--extra-min", type=int, default=0, help="minimum extra chords")
    p_fuzz.add_argument("--extra-max", type=int, default=10, help="maximum extra chords")
    p_fuzz.add_argument("--vine-cap", type=int, default=200, help="vines checked per instance")
    p_fuzz.add_argument("--json", metavar="FILE", default=None)
    _add_limit_flags(p_fuzz)

    p_oracle = sub.add_parser("oracle-check", help="cross-check search against the subset DP")
    p_oracle.add_argument("--count", type=int, required=True)
    p_oracle.add_argument("--nmax", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, required=True)
    p_oracle.add_argument("--json", metavar="FILE", default=None)
    _add_limit_flags(p_oracle)

    return parser


def _ineq1_dict(report: BoundReport):
    if report.ineq1 is None:
        return None
    return {"lhs": report.ineq1.lhs, "rhs": report.ineq1.rhs, "ok": report.ineq1.ok}


def _ineq2_list(report: BoundReport):
    return [
        {
            "j": v.j,
            "lhs": v.lhs,
            "rhs": v.rhs,
            "weak_rhs": v.weak_rhs,
            "ok": v.ok,
            "weak_ok": v.weak_ok,
        }
        for v in report.ineq2
    ]


def analyze_document(report: BoundReport, source: str, command: dict) -> dict:
    """The pinned per-instance report schema."""
    results = {
        "l": report.l,
        "c": report.c,
        "m": report.m,
        "slack": report.slack,
        "parity": report.parity,
        "bound": report.bound,
        "bound_met": report.bound_met,
        "tight": report.tight,
        "ineq1": _ineq1_dict(report),
        "ineq2": _ineq2_list(report),
        "q0_len": report.q0_len,
        "qj_lens": list(report.qj_lens),
        "dirac": {
            "theorem_a": report.dirac.theorem_a,
            "conjecture_a": report.dirac.conjecture_a,
        },
    }
    if report.qstar_len is not None:
        results["qstar_len"] = report.qstar_len
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "instance": {"source": source, "n": report.n, "edge_count": report.edge_count},
        "results": results,
        "witnesses": {
            "longest_path": list(report.path.vertices),
            "longest_cycle": list(report.cycle.vertices),
            "vine": {"ears": [list(ear.vertices) for ear in report.vine.ears]},
        },
    }


def fuzz_document(report: FuzzReport, command: dict) -> dict:
    instances = []
    for r in report.records:
        record = {
            "index": r.index,
            "seed": r.seed,
            "n": r.n,
            "extra_requested": r.extra_requested,
            "extra_placed": r.extra_placed,
            "l": r.l,
            "c": r.c,
            "m": r.m,
            "slack": r.slack,
            "parity": r.parity,
            "bound": r.bound,
            "tight": r.tight,
            "oracle_checked": r.oracle_checked,
            "vines_checked": r.vines_checked,
            "vines_truncated": r.vines_truncated,
            "ok": r.ok,
            "violations": list(r.violations),
        }
        if r.graph_text is not None:
            record["graph"] = r.graph_text
        instances.append(record)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "instances": instances,
        "summary": {
            "count": len(report.records),
            "passed": report.passed,
            "failed": report.failed,
        },
    }


def _write_json(doc: dict, target: str) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _summary_line(report: BoundReport) -> str:
    status = "VIOLATION" if report.violations else ("TIGHT" if report.tight else "OK")
    return (
        f"l={report.l} c={report.c} m={report.m} y={report.slack} "
        f"bound={report.bound:.6f} {status}"
    )


def _verbose_dump(report: BoundReport) -> str:
    lines = [
        f"n={report.n} edges={report.edge_count} parity={report.parity}",
        f"path: {' '.join(map(str, report.path.vertices))}",
        f"cycle: {' '.join(map(str, report.cycle.vertices))}",
        "vine: " + " ".join("-".join(map(str, ear.vertices)) for ear in report.vine.ears),
    ]
    if report.ineq1 is not None:
        lines.append(f"ineq1: {report.ineq1.lhs} <= {report.ineq1.rhs} -> {report.ineq1.ok}")
    for v in report.ineq2:
        lines.append(f"ineq2[j={v.j}]: {v.lhs} <= {v.rhs} -> {v.ok} (weak {v.lhs} <= {v.weak_rhs})")
    qstar = "-" if report.qstar_len is None else str(report.qstar_len)
    lines.append(f"q0={report.q0_len} qj={list(report.qj_lens)} qstar={qstar}")
    lines.append(
        f"dirac: theorem_a={report.dirac.theorem_a} conjecture_a={report.dirac.conjecture_a}"
    )
    for violation in report.violations:
        lines.append(f"violation: {violation}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        text = fh.read()
    g = parse_graph(text)
    limits = _limits_from_args(args)
    report = analyze(g, limits)
    extra_violations: list[str] = []
    vines_checked = None
    if args.all_vines is not None:
        checked, truncated, more = verify_all_vines(
            g, report.path, report.l, report.c, args.all_vines
        )
        vines_checked = checked
        extra_violations.extend(more)
    if args.exhaustive_paths:
        _, more = verify_all_longest_paths(g, report.l, report.c)
        extra_violations.extend(more)
    command = {
        "name": "analyze",
        "source": args.graph,
        "all_vines": args.all_vines,
        "exhaustive_paths": args.exhaustive_paths,
    }
    doc = analyze_document(report, args.graph, command)
    if args.json is not None:
        _write_json(doc, args.json)
    if args.json != "-":
        print(_summary_line(report))
        if args.verbose:
            print(_verbose_dump(report))
            if vines_checked is not None:
                print(f"all-vines: checked {vines_checked}")
        for violation in extra_violations:
            print(f"violation: {violation}")
    return EXIT_VIOLATION if (report.violations or extra_violations) else EXIT_OK


def cmd_extremal(args) -> int:
    spec = ExtremalSpec(m=args.m, slack=args.slack)
    g, spine, vine = extremal_graph(spec)
    expected_l = extremal_path_length(spec)
    expected_c = extremal_cycle_length(spec)
    expected_bound = circumference_bound(expected_l, spec.slack, spec.m)
    lines = [
        f"# extremal family: m={spec.m} slack={spec.slack}",
        f"# spine: {' '.join(map(str, spine.vertices))}",
    ]
    lines.extend(f"# ear: {ear.x_attach} {ear.y_attach}" for ear in vine.ears)
    lines.append(
        f"# expected: l={expected_l} c={expected_c} bound={expected_bound:.6f} tight"
    )
    text = "\n".join(lines) + "\n" + serialize_graph(g)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.verify:
        report = analyze(g, _limits_from_args(args))
        ok = (
            report.ok
            and report.tight
            and report.l == expected_l
            and report.c == expected_c
            and report.m == spec.m
            and report.slack == spec.slack
        )
        print(f"verify: {_summary_line(report)}")
        if not ok:
            print(
                f"verify failed: expected l={expected_l} c={expected_c} "
                f"m={spec.m} slack={spec.slack} tight"
            )
            return EXIT_VIOLATION
    return EXIT_OK


def cmd_fuzz(args) -> int:
    cfg = FuzzConfig(
        count=args.count,
        n_min=args.nmin,
        n_max=args.nmax,
        seed=args.seed,
        extra_min=args.extra_min,
        extra_max=args.extra_max,
        vine_cap=args.vine_cap,
        jobs=args.jobs,
        limits=_limits_from_args(args),
    )
    report = fuzz_campaign(cfg)
    command = {
        "name": "fuzz",
        "count": cfg.count,
        "nmin": cfg.n_min,
        "nmax": cfg.n_max,
        "seed": cfg.seed,
        "extra_min": cfg.extra_min,
        "extra_max": cfg.extra_max,
        "vine_cap": cfg.vine_cap,
    }
    doc = fuzz_document(report, command)
    if args.json is not None:
        _write_json(doc, args.json)
    if args.json != "-":
        width = len(str(cfg.count))
        for r in report.records:
            status = "ok" if r.ok else "VIOLATION"
            print(
                f"[{r.index + 1:>{width}}/{cfg.count}] seed={r.seed} n={r.n} "
                f"extra={r.extra_placed} l={r.l} c={r.c} m={r.m} y={r.slack} "
                f"vines={r.vines_checked} {status}"
            )
            for violation in r.violations:
                print(f"    {violation}")
        print(
            f"summary: {report.passed}/{len(report.records)} passed, "
            f"{report.failed} violations, {report.elapsed:.2f}s"
        )
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_oracle_check(args) -> int:
    if args.count < 1:
        raise PreconditionError(f"count must be at least 1, got {args.count}")
    limits = _limits_from_args(args)
    if not 3 <= args.nmax <= ORACLE_MAX_VERTICES:
        raise PreconditionError(
            f"nmax must lie in [3, {ORACLE_MAX_VERTICES}] for the oracle, got {args.nmax}"
        )
    master = random.Random(args.seed)
    instances = []
    failures = 0
    start = time.monotonic()
    for index in range(args.count):
        n = master.randint(3, args.nmax)
        extra = master.randint(0, n)
        seed = master.getrandbits(63)
        g, _ = random_two_connected(n, extra, seed)
        l_search = longest_path(g, limits).length
        c_search = longest_cycle(g, limits).length
        l_oracle = longest_path_oracle(g)
        c_oracle = longest_cycle_oracle(g)
        ok = l_search == l_oracle and c_search == c_oracle
        if not ok:
            failures += 1
        instances.append(
            {
                "index": index,
                "seed": seed,
                "n": n,
                "l_search": l_search,
                "l_oracle": l_oracle,
                "c_search": c_search,
                "c_oracle": c_oracle,
                "ok": ok,
            }
        )
    elapsed = time.monotonic() - start
    command = {"name": "oracle-check", "count": args.count, "nmax": args.nmax, "seed": args.seed}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "instances": instances,
        "summary": {"count": args.count, "passed": args.count - failures, "failed": failures},
    }
    if args.json is not None:
        _write_json(doc, args.json)
    if args.json != "-":
        for record in instances:
            status = "ok" if record["ok"] else "MISMATCH"
            print(
                f"[{record['index'] + 1}/{args.count}] n={record['n']} "
                f"l={record['l_search']}/{record['l_oracle']} "
                f"c={record['c_search']}/{record['c_oracle']} {status}"
            )
        print(f"summary: {args.count - failures}/{args.count} agree, {elapsed:.2f}s")
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


_HANDLERS = {
    "analyze": cmd_analyze,
    "extremal": cmd_extremal,
    "fuzz": cmd_fuzz,
    "oracle-check": cmd_oracle_check,
}


def _describe(exc: BaseException) -> str:
    """The type and message of an exception on one line."""
    return " ".join(f"{type(exc).__name__}: {exc}".split())


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv=None) -> int:
    """Run one command and return its exit code. Safe to call repeatedly in
    one process: the parser is built once and parse_args leaves it as it was."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except (GraphParseError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RecursionError, MemoryError) as exc:
        # Python's stack or the heap ran out: a limit of this run, not a verdict.
        print(f"resource limit: {_describe(exc)}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInvariantError as exc:
        print(f"internal invariant failed (bug or counterexample candidate): {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except Exception as exc:
        # a crash is a fault of this run, never a counterexample candidate
        print(f"internal error: {_describe(exc)}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
