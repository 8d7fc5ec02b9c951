import json

import pytest

from vinebound import cli, parse_graph, serialize_graph, validate_cycle, validate_path
from vinebound.cli import main

from conftest import path_graph, x2_graph


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
