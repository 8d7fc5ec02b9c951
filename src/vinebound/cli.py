"""Command-line front end.

Subcommands: ``analyze`` a graph file, ``extremal`` to emit a tight
family instance, ``fuzz`` for seeded random campaigns, and
``oracle-check``, a fuzz campaign over n 3..nmax that reports each
instance as the search's and the subset-DP oracles' l and c. Both
campaign commands share one runner, which writes the report, prints the
instance and summary lines and picks the exit code.

Exit codes: 0 all checks pass, 1 any violation (counterexample
candidate), 2 input error, 3 resource limit hit. A fuzz or oracle-check
campaign whose failed instances all ran out of a budget exits 3; any
violation, mismatch or failed invariant among them makes it exit 1. JSON
reports contain no wall-clock values, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import (
    BoundReport,
    analyze,
    analyze_all_vines,
    circumference_bound,
    verify_all_longest_paths,
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
    extremal_cycle_length,
    extremal_graph,
    extremal_path_length,
    fuzz_campaign,
)
from .graphs import parse_graph, serialize_graph
from .solvers import ORACLE_MAX_VERTICES, SolveLimits

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
                           help="also check the minimum vine on every other longest path")
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
    p_fuzz.add_argument("--jobs", type=int, default=FuzzConfig.jobs)
    p_fuzz.add_argument("--extra-min", type=int, default=FuzzConfig.extra_min,
                        help="minimum extra chords")
    p_fuzz.add_argument("--extra-max", type=int, default=FuzzConfig.extra_max,
                        help="maximum extra chords")
    p_fuzz.add_argument("--vine-cap", type=int, default=FuzzConfig.vine_cap,
                        help="vines checked per instance")
    p_fuzz.add_argument("--json", metavar="FILE", default=None)
    _add_limit_flags(p_fuzz)

    p_oracle = sub.add_parser("oracle-check", help="cross-check search against the subset DP")
    p_oracle.add_argument("--count", type=int, required=True)
    p_oracle.add_argument("--nmax", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, required=True)
    p_oracle.add_argument("--json", metavar="FILE", default=None)
    _add_limit_flags(p_oracle)

    return parser


# The pinned key orders of an analyze report's results and of a fuzz record's check fields.
_RESULT_KEYS = (
    "l", "c", "m", "slack", "parity", "bound", "bound_met", "tight",
    "ineq1", "ineq2", "q0_len", "qj_lens", "dirac",
)
_RECORD_KEYS = (
    "l", "c", "m", "slack", "parity", "bound", "tight",
    "oracle_checked", "vines_checked", "vines_truncated", "ok", "violations",
)
# The fuzz flags in the order of FuzzConfig's leading fields; also the
# pinned keys of a fuzz report's command block after its name.
_FUZZ_KEYS = ("count", "nmin", "nmax", "seed", "extra_min", "extra_max", "vine_cap")
# The pinned check keys of an oracle-check record and the record fields they read.
_ORACLE_KEYS = {
    "l_search": "l", "l_oracle": "oracle_l", "c_search": "c", "c_oracle": "oracle_c", "ok": "ok",
}
# The record values that verification yields; an instance line prints "-"
# for each when verification raised.
_REACHED = ("l", "c", "m", "slack", "vines_checked", "oracle_l", "oracle_c")


def analyze_document(report: BoundReport, source: str, command: dict) -> dict:
    """The pinned per-instance report schema."""
    results = {key: getattr(report, key) for key in _RESULT_KEYS}
    results["ineq1"] = None if report.ineq1 is None else report.ineq1._asdict()
    results["ineq2"] = [v._asdict() for v in report.ineq2]
    results["dirac"] = report.dirac._asdict()
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


def _write_json(doc: dict, target: str) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _summary_line(report: BoundReport, violated: bool) -> str:
    status = "VIOLATION" if violated else ("TIGHT" if report.tight else "OK")
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
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"{args.graph}: {exc}") from None
    g = parse_graph(text)
    limits = _limits_from_args(args)
    if args.all_vines is None:
        report, vines_checked, truncated, extra_violations = analyze(g, limits), None, False, []
    else:
        report, vines_checked, truncated, extra_violations = analyze_all_vines(g, limits, args.all_vines)
    if args.exhaustive_paths:
        extra_violations += verify_all_longest_paths(g, report.path, report.l, report.c, limits)[1]
    violated = bool(report.violations or extra_violations)
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
        print(_summary_line(report, violated))
        if args.verbose:
            print(_verbose_dump(report))
            if vines_checked is not None:
                cap = f" (stopped at the cap of {args.all_vines})" if truncated else ""
                print(f"all-vines: checked {vines_checked}{cap}")
        # the verbose dump already lists the report's own violations
        shown = extra_violations if args.verbose else [*report.violations, *extra_violations]
        for violation in shown:
            print(f"violation: {violation}")
    return EXIT_VIOLATION if violated else EXIT_OK


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
        expected = (expected_l, expected_c, spec.m)
        ok = report.ok and report.tight and (report.l, report.c, report.m) == expected
        print(f"verify: {_summary_line(report, not report.ok)}")
        if not ok:
            print(
                f"verify failed: expected l={expected_l} c={expected_c} "
                f"m={spec.m} slack={spec.slack} tight"
            )
            return EXIT_VIOLATION
    return EXIT_OK


def _fuzz_record(r) -> dict:
    record = {"index": r.index, **r.provenance, **{key: getattr(r, key) for key in _RECORD_KEYS}}
    if r.graph_text is not None:
        record["graph"] = r.graph_text
    return record


def cmd_fuzz(args) -> int:
    if not 3 <= args.nmin <= args.nmax:
        raise PreconditionError(
            f"need 3 <= --nmin <= --nmax, got --nmin={args.nmin} --nmax={args.nmax}"
        )
    if not 0 <= args.extra_min <= args.extra_max:
        raise PreconditionError(
            f"need 0 <= --extra-min <= --extra-max, got --extra-min={args.extra_min} "
            f"--extra-max={args.extra_max}"
        )
    values = [getattr(args, key) for key in _FUZZ_KEYS]
    cfg = FuzzConfig(*values, jobs=args.jobs, limits=_limits_from_args(args))
    command = {"name": "fuzz", **dict(zip(_FUZZ_KEYS, values))}
    return _run_campaign(
        cfg, args.json, command, _fuzz_record,
        "[{i:>{width}}/{count}] seed={p[seed]} n={p[n]} extra={p[extra_placed]} "
        "l={l} c={c} m={m} y={slack} vines={vines_checked}",
        "VIOLATION", "{passed}/{count} passed, {violations} violations",
    )


def cmd_oracle_check(args) -> int:
    if not 3 <= args.nmax <= ORACLE_MAX_VERTICES:
        raise PreconditionError(
            f"--nmax must lie in [3, {ORACLE_MAX_VERTICES}] for the oracle, got {args.nmax}"
        )
    cfg = FuzzConfig(args.count, 3, args.nmax, args.seed, extra_max=None,
                     limits=_limits_from_args(args))
    command = {"name": "oracle-check", "count": args.count, "nmax": args.nmax, "seed": args.seed}
    return _run_campaign(
        cfg, args.json, command,
        lambda r: {"index": r.index, "seed": r.provenance["seed"], "n": r.provenance["n"],
                   **{key: getattr(r, name) for key, name in _ORACLE_KEYS.items()}},
        "[{i}/{count}] n={p[n]} l={l}/{oracle_l} c={c}/{oracle_c}",
        "MISMATCH", "{passed}/{count} agree",
    )


def _run_campaign(cfg: FuzzConfig, target: str | None, command: dict, to_json, line: str,
                  failure: str, summary: str) -> int:
    """Run one campaign and write its report, with to_json(record) per
    instance, to target. Unless that is stdout, print for each instance line
    formatted with its provenance p, its number i, count, width and the _REACHED
    values, then its status and its violations, indented; then summary
    formatted with passed, count and violations. Return 0 when every instance
    passed; raise ResourceLimitError when only budgets failed; else return 1."""
    report = fuzz_campaign(cfg)
    count, failed, budget = len(report.records), report.failed, report.out_of_budget
    if target is not None:
        _write_json({
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "instances": [to_json(r) for r in report.records],
            "summary": {"count": count, "passed": count - failed, "failed": failed},
        }, target)
    if target != "-":
        width = len(str(count))
        for r in report.records:
            status = "ok" if r.ok else "BUDGET" if r.resource_limited else failure
            reached = {name: getattr(r, name) if r.vines_checked else "-" for name in _REACHED}
            print(line.format(p=r.provenance, i=r.index + 1, count=count, width=width, **reached), status)
            for violation in r.violations:
                print(f"    {violation}")
        text = summary.format(passed=count - failed, count=count, violations=failed - budget)
        note = f", {budget} out of budget" if budget else ""
        print(f"summary: {text}{note}, {report.elapsed:.2f}s")
    if failed and budget == failed:
        raise ResourceLimitError(f"{failed} of {count} instances ran out of a budget")
    return EXIT_VIOLATION if failed else EXIT_OK


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
        for flag in ("--count", "--vine-cap", "--jobs", "--all-vines"):  # each at least 1
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value < 1:
                raise PreconditionError(f"{flag} must be at least 1, got {value}")
        for flag in ("--node-budget", "--time-budget"):
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and not value > 0:  # NaN is not positive either
                raise PreconditionError(f"{flag} must be positive, got {value}")
        return handler(args)
    except (GraphParseError, PreconditionError, OSError) as exc:
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
