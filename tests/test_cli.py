import json
import re
from pathlib import Path

import pytest

from vinebound import (
    Graph, bounds, cli, parse_graph, random_two_connected, serialize_graph, validate_cycle,
    validate_path,
)
from vinebound.errors import InternalInvariantError, ResourceLimitError
from vinebound.cli import main

from conftest import cycle_graph, non_vine, non_vine_graph, path_graph, x2_graph


def write_graph(tmp_path, g, name="g.txt"):
    target = tmp_path / name
    target.write_text(serialize_graph(g))
    return str(target)


# ------------------------------------------------------------------
# analyze
# ------------------------------------------------------------------

def test_analyze_x2_summary(tmp_path, capsys, x2):
    code = main(["analyze", write_graph(tmp_path, x2)])
    out = capsys.readouterr().out
    assert code == 0
    for token in ("l=6", "c=5", "m=3", "y=0", "bound=5", "TIGHT"):
        assert token in out


def test_analyze_triangle_summary(tmp_path, capsys, triangle):
    code = main(["analyze", write_graph(tmp_path, triangle)])
    out = capsys.readouterr().out
    assert code == 0
    for token in ("l=2", "c=3", "m=1", "y=0", "bound=3", "TIGHT"):
        assert token in out


def test_analyze_not_two_connected_names_vertex(tmp_path, capsys):
    code = main(["analyze", write_graph(tmp_path, path_graph(4))])
    err = capsys.readouterr().err
    assert code == 2
    assert "articulation vertex" in err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/graph.txt"]) == 2


def test_analyze_undecodable_file_is_an_input_error(tmp_path, capsys):
    # a UTF-16 byte-order mark: not UTF-8 text, so not a graph file
    target = tmp_path / "utf16.txt"
    target.write_bytes(b"\xff\xfe3\x00 \x001\x00\n\x00")
    assert main(["analyze", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "decode" in err[0]


def test_analyze_undecodable_file_error_names_the_file(tmp_path, capsys):
    target = tmp_path / "utf16.txt"
    target.write_bytes(b"\xff\xfe3\x00")
    assert main(["analyze", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {target}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte"]


def test_analyze_malformed_file(tmp_path, capsys):
    target = tmp_path / "bad.txt"
    target.write_text("3 1\n0 9\n")
    assert main(["analyze", str(target)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_analyze_budget_exit(tmp_path, capsys, x2):
    code = main(["analyze", write_graph(tmp_path, x2), "--node-budget", "3"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


def test_analyze_json_schema(tmp_path, capsys, x2):
    source = write_graph(tmp_path, x2)
    code = main(["analyze", source, "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    results = doc["results"]
    assert results["l"] == 6 and results["c"] == 5 and results["m"] == 3
    assert results["slack"] == 0 and results["parity"] == "odd"
    assert results["bound"] == 5.0 and results["bound_met"] and results["tight"]
    assert results["ineq1"] == {"lhs": 2, "rhs": 2, "ok": True}
    assert results["ineq2"] == [
        {"j": 1, "lhs": 4, "rhs": 4, "weak_rhs": 4, "ok": True, "weak_ok": True}
    ]
    assert results["q0_len"] == 5 and results["qj_lens"] == [5]
    assert "qstar_len" not in results  # odd m: key omitted
    assert results["dirac"] == {"theorem_a": True, "conjecture_a": True}
    # every witness re-validates against the instance graph
    g = parse_graph((tmp_path / "g.txt").read_text())
    validate_path(g, doc["witnesses"]["longest_path"])
    validate_cycle(g, doc["witnesses"]["longest_cycle"])
    for ear in doc["witnesses"]["vine"]["ears"]:
        validate_path(g, ear)


def test_analyze_json_even_m_has_qstar(tmp_path, capsys, x1):
    main(["analyze", write_graph(tmp_path, x1), "--json", "-"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["qstar_len"] == 4
    assert doc["results"]["ineq2"] == []


def test_analyze_json_byte_identical(tmp_path, capsys, x2):
    source = write_graph(tmp_path, x2)
    main(["analyze", source, "--json", "-"])
    first = capsys.readouterr().out
    main(["analyze", source, "--json", "-"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first) == json.loads(second)


def test_repeated_calls_leak_no_options(tmp_path, capsys, x2):
    source = write_graph(tmp_path, x2)
    assert main(["analyze", source, "--verbose"]) == 0
    assert "path:" in capsys.readouterr().out
    assert main(["analyze", source]) == 0
    assert capsys.readouterr().out == "l=6 c=5 m=3 y=0 bound=5.000000 TIGHT\n"
    assert main(["analyze", source, "--node-budget", "3"]) == 3
    assert main(["analyze", source]) == 0


def test_rejected_arguments_then_valid_call(tmp_path, capsys, x2):
    source = write_graph(tmp_path, x2)
    for bad in (["analyze", source, "--no-such-flag"], ["analyze", source, "--node-budget", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert main(["analyze", source]) == 0


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch, x2):
    builds = []
    original = cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    source = write_graph(tmp_path, x2)
    assert main(["analyze", source]) == 0
    assert main(["analyze", source, "--json", "-"]) == 0
    assert main(["extremal", "--m", "2", "--slack", "0"]) == 0
    assert len(builds) == 1


def test_analyze_json_to_file_and_verbose(tmp_path, capsys, x1):
    out_file = tmp_path / "report.json"
    code = main(["analyze", write_graph(tmp_path, x1), "--json", str(out_file), "--verbose"])
    assert code == 0
    human = capsys.readouterr().out
    assert "ineq1" in human and "dirac" in human
    doc = json.loads(out_file.read_text())
    assert doc["results"]["tight"]


def test_analyze_all_vines_and_exhaustive(tmp_path, capsys, x2):
    code = main([
        "analyze", write_graph(tmp_path, x2),
        "--all-vines", "50", "--exhaustive-paths", "--verbose",
    ])
    assert code == 0
    assert "all-vines: checked" in capsys.readouterr().out


def test_analyze_exhaustive_paths_out_of_node_budget_exits_3(tmp_path, capsys):
    # 100 nodes cover the 11-cycle's path and cycle searches (22 and 12
    # nodes) but not its listing of every longest path (231 nodes)
    code = main(["analyze", write_graph(tmp_path, cycle_graph(11)), "--exhaustive-paths",
                 "--node-budget", "100"])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert err == ["resource limit: all_longest_paths: node budget exhausted"]


def test_analyze_reads_the_ear_cap_at_call_time(tmp_path, capsys, x2, monkeypatch):
    from vinebound import vines

    monkeypatch.setattr(vines, "DEFAULT_EAR_CAP", 2)
    code = main(["analyze", write_graph(tmp_path, x2)])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert err == ["resource limit: ear cap 2 exceeded (2 ears found before stopping)"]


def test_analyze_all_vines_says_when_it_stopped_at_the_cap(tmp_path, capsys):
    # three vines on this graph's longest path
    source = write_graph(tmp_path, random_two_connected(12, 12, 5)[0])
    for cap, line in ((1, "all-vines: checked 1 (stopped at the cap of 1)"),
                      (2, "all-vines: checked 2 (stopped at the cap of 2)"),
                      (3, "all-vines: checked 3"),
                      (10, "all-vines: checked 3")):
        assert main(["analyze", source, "--all-vines", str(cap), "--verbose"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [text for text in out if text.startswith("all-vines:")] == [line]
    # the JSON report does not change with the cap's outcome beyond its own field
    main(["analyze", source, "--all-vines", "1", "--json", "-"])
    capped = json.loads(capsys.readouterr().out)
    main(["analyze", source, "--all-vines", "10", "--json", "-"])
    full = json.loads(capsys.readouterr().out)
    assert capped["command"]["all_vines"] == 1
    capped["command"]["all_vines"] = 10
    assert capped == full


def test_analyze_all_vines_cap_past_islice_stop(capsys):
    # 2^63 - 1 and above overflowed islice's stop: an unreached cap reads
    # as any other
    source = str(GOLDEN / "x2.txt")
    assert main(["analyze", source, "--all-vines", "99999999999999999999", "--json", "-"]) == 0
    huge = json.loads(capsys.readouterr().out)
    assert main(["analyze", source, "--all-vines", "200", "--json", "-"]) == 0
    capped = json.loads(capsys.readouterr().out)
    assert (huge["results"], huge["witnesses"]) == (capped["results"], capped["witnesses"])


def test_analyze_violation_exit_1(tmp_path, capsys, x2, monkeypatch):
    import dataclasses

    import vinebound.cli as cli_module
    from vinebound import analyze as real_analyze

    def doctored(g, limits):
        report = real_analyze(g, limits)
        return dataclasses.replace(report, violations=("forced test violation",))

    monkeypatch.setattr(cli_module, "analyze", doctored)
    code = main(["analyze", write_graph(tmp_path, x2)])
    assert code == 1
    assert "VIOLATION" in capsys.readouterr().out


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_stack_or_heap_exhaustion_exits_3(tmp_path, capsys, x2, monkeypatch, error):
    import vinebound.cli as cli_module

    def exhausted(args):
        raise error("simulated exhaustion")

    monkeypatch.setitem(cli_module._HANDLERS, "analyze", exhausted)
    code = main(["analyze", write_graph(tmp_path, x2)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource limit: ")
    assert error.__name__ in lines[0]


def test_unexpected_exception_exits_3_without_traceback(tmp_path, capsys, x2, monkeypatch):
    import vinebound.cli as cli_module

    def crashed(args):
        raise ValueError("simulated\ncrash")

    monkeypatch.setitem(cli_module._HANDLERS, "analyze", crashed)
    code = main(["analyze", write_graph(tmp_path, x2)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: ValueError: simulated crash"]


def test_failed_invariant_exits_1(tmp_path, capsys, x2, monkeypatch):
    def broken(g, limits):
        raise InternalInvariantError("simulated bug")

    monkeypatch.setattr(cli, "analyze", broken)
    code = main(["analyze", write_graph(tmp_path, x2)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("internal invariant failed")


def _middle_a_graph():
    # the graph of test_bounds.test_inequalities_subtract_the_middle_a_sums
    return Graph(10, [(i, i + 1) for i in range(9)] + [(0, 3), (2, 6), (5, 9)])


def test_analyze_met_but_not_tight_bound_prints_ok(tmp_path, capsys):
    code = main(["analyze", write_graph(tmp_path, _middle_a_graph())])
    assert code == 0
    assert capsys.readouterr().out == "l=9 c=10 m=3 y=5 bound=8.485281 OK\n"


def test_minimum_vine_with_negative_slack_fails_the_invariant(tmp_path, capsys, monkeypatch):
    # a circumference of 4, below m + 2 = 5 for the three-ear minimum vine
    monkeypatch.setattr(bounds, "longest_cycle", lambda g, limits: validate_cycle(g, [0, 1, 2, 3]))
    code = main(["analyze", write_graph(tmp_path, _middle_a_graph())])
    assert code == 1
    assert capsys.readouterr().err == (
        "internal invariant failed (bug or counterexample candidate): minimum vine has "
        "negative slack: c=4 m=3; contradicts c >= m+2\n"
    )


def test_analyze_time_budget_exit_3(tmp_path, capsys):
    code = main(["analyze", write_graph(tmp_path, cycle_graph(5000)), "--time-budget", "1e-9"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("resource limit: ")
    assert "time budget exhausted" in lines[0]


def test_analyze_nan_time_budget_exit_2(tmp_path, capsys, x2):
    code = main(["analyze", write_graph(tmp_path, x2), "--time-budget", "nan"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert lines == ["error: --time-budget must be positive, got nan"]


@pytest.mark.parametrize("command", ["analyze", "fuzz", "oracle-check"])
@pytest.mark.parametrize("flag, value, shown", [("--node-budget", "0", "0"), ("--node-budget", "-5", "-5"),
                                                ("--time-budget", "0", "0.0"), ("--time-budget", "-1.5", "-1.5")])
def test_limit_flag_errors_name_the_flag(tmp_path, capsys, x2, command, flag, value, shown):
    argv = {"analyze": ["analyze", write_graph(tmp_path, x2)],
            "fuzz": ["fuzz", "--count", "2", "--nmin", "4", "--nmax", "6", "--seed", "1"],
            "oracle-check": ["oracle-check", "--count", "2", "--nmax", "6", "--seed", "1"]}[command]
    code = main([*argv, flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} must be positive, got {shown}"]


def test_analyze_all_vines_below_one_is_rejected_before_solving(tmp_path, capsys, x2, monkeypatch):
    import vinebound.cli as cli_module

    def unreachable(*args):
        raise AssertionError("the graph was solved")

    monkeypatch.setattr(cli_module, "analyze_all_vines", unreachable)
    target = tmp_path / "report.json"
    for cap in ("0", "-3"):
        code = main(["analyze", write_graph(tmp_path, x2), "--all-vines", cap, "--json", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--all-vines" in lines[0]
        assert not target.exists()


# ------------------------------------------------------------------
# extremal
# ------------------------------------------------------------------

def test_extremal_m3_writes_x2_canonical(tmp_path, capsys):
    out_file = tmp_path / "fam.txt"
    code = main(["extremal", "--m", "3", "--slack", "0", "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert parse_graph(text) == x2_graph()
    assert text.endswith(serialize_graph(x2_graph()))
    assert "# expected: l=6 c=5" in text


def test_extremal_stdout_and_verify(capsys):
    code = main(["extremal", "--m", "4", "--slack", "2", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "l=14" in out and "c=8" in out and "TIGHT" in out


def test_extremal_odd_slack_exit_2(capsys):
    assert main(["extremal", "--m", "3", "--slack", "1"]) == 2
    assert "slack" in capsys.readouterr().err


def test_extremal_m_below_two_exit_2(capsys):
    assert main(["extremal", "--m", "1", "--slack", "0"]) == 2


def test_extremal_certificate_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "fam.txt"
    main(["extremal", "--m", "2", "--slack", "0", "--out", str(out_file)])
    code = main(["analyze", str(out_file)])
    assert code == 0
    assert "TIGHT" in capsys.readouterr().out


def test_extremal_verify_fails_on_a_wrong_report(capsys, monkeypatch):
    import dataclasses

    real_analyze = cli.analyze
    monkeypatch.setattr(
        cli, "analyze", lambda g, limits: dataclasses.replace(real_analyze(g, limits), tight=False)
    )
    code = main(["extremal", "--m", "3", "--slack", "0", "--verify"])
    assert code == 1
    assert "verify failed: expected l=6 c=5 m=3 slack=0 tight" in capsys.readouterr().out


# ------------------------------------------------------------------
# fuzz
# ------------------------------------------------------------------

def test_fuzz_single_instance(capsys):
    code = main(["fuzz", "--count", "1", "--nmin", "3", "--nmax", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "summary: 1/1 passed" in out


def test_fuzz_small_campaign(capsys):
    code = main(["fuzz", "--count", "12", "--nmin", "4", "--nmax", "9", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "summary: 12/12 passed, 0 violations" in out


def test_fuzz_nmin_too_small_exit_2(capsys):
    assert main(["fuzz", "--count", "10", "--nmin", "2", "--nmax", "2", "--seed", "1"]) == 2


def test_fuzz_json_deterministic(tmp_path, capsys):
    args = ["fuzz", "--count", "6", "--nmin", "4", "--nmax", "8", "--seed", "5", "--json", "-"]
    code = main(args)
    first = capsys.readouterr().out
    assert code == 0
    main(args)
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["summary"] == {"count": 6, "passed": 6, "failed": 0}
    assert len(doc["instances"]) == 6
    assert all("graph" not in rec for rec in doc["instances"])  # no violations


def test_fuzz_jobs_flag_same_report(capsys):
    base = ["fuzz", "--count", "6", "--nmin", "4", "--nmax", "8", "--seed", "9", "--json", "-"]
    main(base)
    seq = capsys.readouterr().out
    main(base + ["--jobs", "2"])
    par = capsys.readouterr().out
    assert seq == par


def test_cold_start_loads_no_process_pool():
    """A fresh interpreter that imports the CLI has loaded neither
    concurrent.futures nor multiprocessing; only --jobs > 1 needs them."""
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys, vinebound.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={"PYTHONPATH": src})
    assert done.stdout == "[]\n"


def test_fuzz_vine_cap_past_islice_stop(capsys):
    args = ["fuzz", "--count", "3", "--nmin", "4", "--nmax", "8", "--seed", "2"]
    assert main(args + ["--vine-cap", str(2**63)]) == 0
    assert "summary: 3/3 passed" in capsys.readouterr().out


@pytest.mark.parametrize("second, expected", [
    (ResourceLimitError("simulated budget"), 3),
    (InternalInvariantError("simulated bug"), 1),
    (None, 1),  # a theorem violation
])
def test_fuzz_exit_code_beside_a_budget_failure(capsys, monkeypatch, second, expected):
    """Instances out of budget alone exit 3; a violation or a failed
    invariant on another instance exits 1."""
    import dataclasses

    from vinebound import families
    from vinebound import analyze_all_vines as real_analyze

    outcomes = [ResourceLimitError("simulated budget"), second]

    def doctored(g, limits, max_vines):
        report, *rest = real_analyze(g, limits, max_vines)
        if not outcomes:
            return report, *rest
        outcome = outcomes.pop(0)
        if outcome is None:
            return dataclasses.replace(report, violations=("forced test violation",)), *rest
        raise outcome

    monkeypatch.setattr(families, "analyze_all_vines", doctored)
    code = main(["fuzz", "--count", "3", "--nmin", "4", "--nmax", "8", "--seed", "5"])
    assert code == expected
    violations = "0 violations, 2 out of budget" if expected == 3 else "1 violations, 1 out of budget"
    assert f"summary: 1/3 passed, {violations}, " in capsys.readouterr().out


def test_fuzz_budget_human_output(capsys):
    """Instances out of budget read BUDGET, not VIOLATION, and the exit 3
    comes with one resource-limit line on stderr."""
    code = main(["fuzz", "--count", "8", "--nmin", "4", "--nmax", "12", "--seed", "1",
                 "--node-budget", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out.count(" BUDGET\n") == 4 and "VIOLATION" not in captured.out
    assert captured.err == "resource limit: 4 of 8 instances ran out of a budget\n"


def test_fuzz_vine_state_cap_is_a_budget(capsys, monkeypatch):
    """Instances whose vine search outgrows the state cap read BUDGET, and
    the campaign exits 3, never 1."""
    from vinebound import vines

    monkeypatch.setattr(vines, "DEFAULT_STATE_CAP", 4)
    code = main(["fuzz", "--count", "4", "--nmin", "6", "--nmax", "9", "--seed", "1",
                 "--extra-min", "6"])
    out = capsys.readouterr().out
    assert code == 3
    assert out.count(" BUDGET\n") == 4 and "VIOLATION" not in out
    assert out.count("exception during verification: VineSearchCapError: ") == 4
    assert "summary: 0/4 passed, 0 violations, 4 out of budget, " in out


def _count_calls(monkeypatch, *targets):
    """Wrap each (module, name) function at every vinebound module attribute
    that refers to it; return the per-name call counts."""
    import sys

    calls = {}
    for module, name in targets:
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "vinebound"]:
            for attr in [a for a, v in vars(mod).items() if v is original]:
                monkeypatch.setattr(mod, attr, counted)
    return calls


GOLDEN = Path(__file__).parent / "golden"


def test_analyze_verbose_dump_of_an_even_vine(capsys, monkeypatch):
    """The whole --verbose output for x4, an even-m tight graph: the dump
    reads inequality (1), inequality (2) at j=1, q0, q_1 and qstar and both
    Dirac verdicts from the report."""
    monkeypatch.chdir(GOLDEN)
    assert main(["analyze", "x4.txt", "--verbose"]) == 0
    assert capsys.readouterr().out == (
        "l=14 c=8 m=4 y=2 bound=8.000000 TIGHT\n"
        "n=15 edges=18 parity=even\n"
        "path: 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14\n"
        "cycle: 0 1 2 9 8 7 6 5\n"
        "vine: 0-5 2-9 5-12 9-14\n"
        "ineq1: 4 <= 4 -> True\n"
        "ineq2[j=1]: 6 <= 6 -> True (weak 6 <= 6)\n"
        "q0=8 qj=[8] qstar=8\n"
        "dirac: theorem_a=True conjecture_a=True\n"
    )


def test_each_checked_graph_runs_one_vine_pass(capsys, monkeypatch):
    """One ear enumeration per fuzz instance and per analyze --all-vines run,
    one check of every enumerated vine, and one full verdict per graph."""
    from vinebound import bounds, vines

    calls = _count_calls(monkeypatch, (vines, "enumerate_ears"), (bounds, "_vine_checks"),
                         (bounds, "_vine_pass"))
    assert main(["fuzz", "--count", "20", "--nmin", "4", "--nmax", "12", "--seed", "7",
                 "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert calls == {
        "enumerate_ears": 20,
        "_vine_checks": sum(r["vines_checked"] for r in doc["instances"]),
        "_vine_pass": 20,
    }
    monkeypatch.chdir(GOLDEN)
    for name in calls:
        calls[name] = 0
    assert main(["analyze", "x2.txt", "--all-vines", "200", "--verbose"]) == 0
    assert "all-vines: checked 1" in capsys.readouterr().out
    assert calls == {"enumerate_ears": 1, "_vine_checks": 1, "_vine_pass": 1}


def test_exhaustive_paths_reuses_the_report(capsys, monkeypatch):
    """The listing is told the report's l and skips the report's path: one
    minimum vine per longest path, one full verdict, and no oracle call."""
    from vinebound import bounds, solvers, vines

    calls = _count_calls(monkeypatch, (vines, "find_min_vine"), (bounds, "_vine_pass"),
                         (solvers, "longest_path_oracle"))
    monkeypatch.chdir(GOLDEN)
    assert main(["analyze", "x2.txt", "--exhaustive-paths"]) == 0
    assert capsys.readouterr().out == "l=6 c=5 m=3 y=0 bound=5.000000 TIGHT\n"
    assert calls == {"find_min_vine": 4, "_vine_pass": 1, "longest_path_oracle": 0}


def test_one_vine_pass_walks_each_ladder_once(capsys, monkeypatch):
    """Vine #0 and the other vines of a pass share one ladder table, so no
    pass walks the same ear slice twice."""
    from vinebound import bounds

    walked: list[set] = []
    repeats = []
    vine_pass, ladder = bounds._vine_pass, bounds._ladder

    def one_pass(*args):
        walked.append(set())
        return vine_pass(*args)

    def walk(vine, s, t):
        ears = vine.ears[s : t + 1]
        if ears in walked[-1]:
            repeats.append(ears)
        walked[-1].add(ears)
        return ladder(vine, s, t)

    monkeypatch.setattr(bounds, "_vine_pass", one_pass)
    monkeypatch.setattr(bounds, "_ladder", walk)
    assert main(["fuzz", "--count", "20", "--nmin", "4", "--nmax", "12", "--seed", "7",
                 "--json", "-"]) == 0
    capsys.readouterr()
    assert len(walked) == 20 and sum(map(len, walked)) == 86
    assert repeats == []


def test_plain_analyze_says_why_it_exits_1(capsys, monkeypatch):
    """Without --verbose the report's own violation lines follow the
    summary, before the all-vines ones; --verbose prints them once."""
    from vinebound import bounds

    monkeypatch.setattr(bounds, "circumference_bound_squared",
                        lambda l, slack, m: (slack + m + 2) ** 2 + 1)
    monkeypatch.chdir(GOLDEN)
    summary = "l=6 c=5 m=3 y=0 bound=5.099020 VIOLATION"
    reason = "violation: bound violated: c^2=25 < 26 (l=6 slack=0 m=3)"
    assert main(["analyze", "x2.txt"]) == 1
    assert capsys.readouterr().out.splitlines() == [summary, reason]
    assert main(["analyze", "x2.txt", "--all-vines", "200"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        summary, reason, "violation: vine #0 (m=3): bound violated: c^2=25 < 26 (l=6 slack=0 m=3)",
    ]
    assert main(["analyze", "x2.txt", "--verbose"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == summary and out.count(reason) == 1


@pytest.fixture
def forced_violations(monkeypatch):
    """Every bound off by one and both Dirac checks failed."""
    from vinebound import bounds

    monkeypatch.setattr(bounds, "circumference_bound_squared",
                        lambda l, slack, m: (slack + m + 2) ** 2 + 1)
    monkeypatch.setattr(bounds, "dirac_check", lambda l, c: bounds.DiracVerdict(False, False))


def _enumerate_with_the_non_vine(monkeypatch, first):
    """Make the all-vines pass check the non-vine and the one vine on its
    spine, the non-vine first or second."""
    from vinebound import bounds, enumerate_vines

    g = non_vine_graph()
    bad = non_vine(g)
    (good,) = enumerate_vines(g, bad.base, 200).vines
    vines = (bad, good) if first else (good, bad)
    monkeypatch.setattr(bounds, "enumerate_vines", lambda g, p, max_count: (vines, False))
    return g


def test_all_vines_violation_lines_keep_their_order(
    tmp_path, capsys, monkeypatch, forced_violations
):
    """The report's lines, then each vine's lines by index, word for word;
    a vine's own lines in the order its checks run."""
    monkeypatch.chdir(GOLDEN)
    assert main(["analyze", "x2.txt", "--all-vines", "200", "--verbose"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith(("violation:", "all-vines:"))] == [
        "violation: bound violated: c^2=25 < 26 (l=6 slack=0 m=3)",
        "violation: Dirac bound violated: c^2=25 <= 2l=12",
        "violation: sharp Dirac bound violated: c^2=25 < 4l=24",
        "all-vines: checked 1",
        "violation: vine #0 (m=3): bound violated: c^2=25 < 26 (l=6 slack=0 m=3)",
    ]
    assert main(["fuzz", "--count", "20", "--nmin", "4", "--nmax", "12", "--seed", "7",
                 "--json", "-"]) == 1
    record = json.loads(capsys.readouterr().out)["instances"][11]
    assert record["vines_checked"] == 5
    assert record["violations"] == [
        "bound violated: c^2=144 < 145 (l=11 slack=9 m=1)",
        "Dirac bound violated: c^2=144 <= 2l=22",
        "sharp Dirac bound violated: c^2=144 < 4l=44",
        "vine #0 (m=1): bound violated: c^2=144 < 145 (l=11 slack=9 m=1)",
        "vine #1 (m=2): bound violated: c^2=144 < 145 (l=11 slack=8 m=2)",
        "vine #2 (m=2): bound violated: c^2=144 < 145 (l=11 slack=8 m=2)",
        "vine #3 (m=3): bound violated: c^2=144 < 145 (l=11 slack=7 m=3)",
        "vine #4 (m=4): bound violated: c^2=144 < 145 (l=11 slack=6 m=4)",
    ]
    source = write_graph(tmp_path, _enumerate_with_the_non_vine(monkeypatch, first=True))
    assert main(["analyze", source, "--all-vines", "200", "--verbose"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith(("violation:", "all-vines:"))] == [
        "violation: bound violated: c^2=121 < 122 (l=10 slack=7 m=2)",
        "violation: ear 2 interior vertex 4 lies on the base path",
        "violation: Dirac bound violated: c^2=121 <= 2l=20",
        "violation: sharp Dirac bound violated: c^2=121 < 4l=40",
        "all-vines: checked 2",
        "violation: vine #0 (m=2): bound violated: c^2=121 < 122 (l=10 slack=7 m=2)",
        "violation: vine #0 (m=2): ear 2 interior vertex 4 lies on the base path",
        "violation: vine #1 (m=2): bound violated: c^2=121 < 122 (l=10 slack=7 m=2)",
    ]


def test_analyze_status_reads_violation_whenever_it_exits_1(tmp_path, capsys, monkeypatch):
    """An all-vines or all-paths line alone makes analyze exit 1; its summary
    line must then read VIOLATION, not the report's own status."""
    from vinebound import bounds, longest_path

    g = _enumerate_with_the_non_vine(monkeypatch, first=False)
    source = write_graph(tmp_path, g)
    assert main(["analyze", source, "--all-vines", "200"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "l=10 c=11 m=2 y=7 bound=10.148892 VIOLATION",
        "violation: vine #1 (m=2): ear 2 interior vertex 4 lies on the base path",
    ]
    report_path = longest_path(g)
    real_min_vine = bounds.find_min_vine
    monkeypatch.setattr(bounds, "find_min_vine",
                        lambda g, p: real_min_vine(g, p) if p == report_path else non_vine(g))
    assert main(["analyze", source, "--exhaustive-paths"]) == 1
    summary, *lines = capsys.readouterr().out.splitlines()
    assert summary == "l=10 c=11 m=2 y=7 bound=10.148892 VIOLATION"
    line = r"violation: longest path #\d+: ear 2 interior vertex 4 lies on the base path"
    assert len(lines) == 14 and all(re.fullmatch(line, got) for got in lines)


# ------------------------------------------------------------------
# oracle-check
# ------------------------------------------------------------------

def test_oracle_check_small(capsys):
    code = main(["oracle-check", "--count", "10", "--nmax", "9", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "10/10 agree" in out


def test_oracle_check_nmax_over_cap(capsys):
    assert main(["oracle-check", "--count", "1", "--nmax", "20", "--seed", "3"]) == 2


def test_oracle_check_json(capsys):
    code = main(["oracle-check", "--count", "4", "--nmax", "8", "--seed", "11", "--json", "-"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["summary"]["failed"] == 0
    assert all(rec["ok"] for rec in doc["instances"])


def test_oracle_check_budget_human_output(capsys):
    """oracle-check runs every instance: those out of budget read BUDGET,
    and the exit 3 comes with one resource-limit line on stderr."""
    code = main(["oracle-check", "--count", "5", "--nmax", "12", "--seed", "3",
                 "--node-budget", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out.count(" BUDGET\n") == 2 and "MISMATCH" not in captured.out
    assert "summary: 3/5 agree" in captured.out
    assert captured.err == "resource limit: 2 of 5 instances ran out of a budget\n"


def test_campaign_budget_lines_print_dashes_for_unreached_values(capsys):
    """An instance whose verification raised prints "-" for each value it
    never reached, and oracle-check's summary counts the budget failures."""
    main(["oracle-check", "--count", "5", "--nmax", "12", "--seed", "3", "--node-budget", "20"])
    out = capsys.readouterr().out
    assert "None" not in out
    assert out.count(" l=-/- c=-/- BUDGET\n") == 2
    assert "summary: 3/5 agree, 2 out of budget, " in out
    main(["fuzz", "--count", "8", "--nmin", "4", "--nmax", "12", "--seed", "1",
          "--node-budget", "20"])
    out = capsys.readouterr().out
    assert sum(" l=- c=- m=- y=- vines=- BUDGET" in line for line in out.splitlines()) == 4


def test_oracle_check_mismatch_exit_1(capsys, monkeypatch):
    from vinebound import families

    monkeypatch.setattr(families, "longest_cycle_oracle", lambda g: g.n + 1)
    code = main(["oracle-check", "--count", "3", "--nmax", "8", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count(" MISMATCH\n") == 3
    assert "oracle disagrees on c" in out


def test_fuzz_oracle_mismatch_on_l_exit_1(capsys, monkeypatch):
    from vinebound import families

    monkeypatch.setattr(families, "longest_path_oracle", lambda g: g.n)
    code = main(["fuzz", "--count", "3", "--nmin", "4", "--nmax", "8", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "oracle disagrees on l" in out


def test_fuzz_cross_checks_up_to_the_oracle_cap(capsys):
    code = main(["fuzz", "--count", "6", "--nmin", "13", "--nmax", "16", "--seed", "2",
                 "--json", "-"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {rec["n"] for rec in doc["instances"]} <= set(range(13, 17))
    assert all(rec["oracle_checked"] for rec in doc["instances"])


@pytest.mark.parametrize("argv, flag", [
    (["fuzz", "--count", "0", "--nmin", "4", "--nmax", "8", "--seed", "1"], "--count"),
    (["fuzz", "--count", "2", "--nmin", "4", "--nmax", "8", "--seed", "1", "--vine-cap", "0"],
     "--vine-cap"),
    (["fuzz", "--count", "2", "--nmin", "4", "--nmax", "8", "--seed", "1", "--jobs", "0"],
     "--jobs"),
    (["oracle-check", "--count", "0", "--nmax", "8", "--seed", "1"], "--count"),
], ids=["fuzz-count", "fuzz-vine-cap", "fuzz-jobs", "oracle-check-count"])
def test_campaign_flag_below_one_names_the_flag(argv, flag, capsys, monkeypatch):
    """A campaign flag below 1 is an input error that names the flag, raised
    before any instance runs."""

    def unreachable(cfg):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "fuzz_campaign", unreachable)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} must be at least 1, got 0"]


@pytest.mark.parametrize("argv, message", [
    (["fuzz", "--nmin", "2", "--nmax", "2"],
     "need 3 <= --nmin <= --nmax, got --nmin=2 --nmax=2"),
    (["fuzz", "--nmin", "6", "--nmax", "5"],
     "need 3 <= --nmin <= --nmax, got --nmin=6 --nmax=5"),
    (["fuzz", "--nmin", "4", "--nmax", "8", "--extra-min", "5", "--extra-max", "3"],
     "need 0 <= --extra-min <= --extra-max, got --extra-min=5 --extra-max=3"),
    (["fuzz", "--nmin", "4", "--nmax", "8", "--extra-min", "-1"],
     "need 0 <= --extra-min <= --extra-max, got --extra-min=-1 --extra-max=10"),
    (["oracle-check", "--nmax", "17"], "--nmax must lie in [3, 16] for the oracle, got 17"),
    (["oracle-check", "--nmax", "2"], "--nmax must lie in [3, 16] for the oracle, got 2"),
], ids=["fuzz-nmin-low", "fuzz-nmin-above-nmax", "fuzz-extra-order", "fuzz-extra-negative",
        "oracle-check-nmax-high", "oracle-check-nmax-low"])
def test_campaign_range_error_names_the_flags(argv, message, capsys, monkeypatch):
    """A campaign flag out of its range is an input error that names the
    flags, raised before any instance runs."""

    def unreachable(cfg):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "fuzz_campaign", unreachable)
    assert main(argv[:1] + ["--count", "2", "--seed", "1"] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
