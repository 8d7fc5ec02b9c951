"""Frozen reports: each command must keep writing exactly these bytes.

The files under tests/golden/ were written by the command lines below;
regenerate one only when a change to its report is intended. The
budget-limited fuzz report was written by the command line in
BUDGET_FUZZ, and the campaigns' human output by those in HUMAN_CASES.
``analyze`` runs inside tests/golden/ so that the graph path the report
echoes is the bare file name. The graphs x1.txt, x2.txt and x4.txt are the
``extremal`` instances for m = 2, 3, 4 (slack 0, 0, 2) without their
comment lines; c7.txt is a 7-cycle.
"""

import re
from pathlib import Path

import pytest

from vinebound.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _ids(cases):
    """Each case's golden name, with -jobs2 when the case runs in two workers."""
    return [case[0] + ("-jobs2" if "--jobs" in case[-1] else "") for case in cases]


CASES = [
    ("analyze_x1.json", ["analyze", "x1.txt", "--json", "-"]),
    ("analyze_x2.json", ["analyze", "x2.txt", "--json", "-"]),
    # a 7-cycle: its minimum vine is one ear, so q0 is the base path plus that ear
    ("analyze_c7.json", ["analyze", "c7.txt", "--json", "-"]),
    # extremal --m 4 --slack 2: one q_j and the even-m qstar
    ("analyze_x4.json", ["analyze", "x4.txt", "--json", "-"]),
    ("analyze_x2_all_vines.json", ["analyze", "x2.txt", "--all-vines", "200", "--json", "-"]),
    ("fuzz_seed7.json",
     ["fuzz", "--count", "20", "--nmin", "4", "--nmax", "12", "--seed", "7", "--json", "-"]),
    # the same records sent back from two worker processes
    ("fuzz_seed7.json",
     ["fuzz", "--count", "20", "--nmin", "4", "--nmax", "12", "--seed", "7", "--json", "-",
      "--jobs", "2"]),
    # dense instances: 527 vines checked, two enumerations cut at the cap of 200
    ("fuzz_dense_seed11.json",
     ["fuzz", "--count", "10", "--nmin", "18", "--nmax", "22", "--extra-min", "30",
      "--extra-max", "40", "--seed", "11", "--json", "-"]),
    ("oracle_check_seed3.json",
     ["oracle-check", "--count", "20", "--nmax", "11", "--seed", "3", "--json", "-"]),
]


@pytest.mark.parametrize("golden, argv", CASES, ids=_ids(CASES))
def test_json_report_matches_golden_bytes(golden, argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


# Four of these eight instances run out of the node budget; the others pass.
BUDGET_FUZZ = ["fuzz", "--count", "8", "--nmin", "4", "--nmax", "12", "--seed", "1",
               "--node-budget", "20", "--json", "-"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_budget_limited_fuzz_exits_3_with_golden_bytes(jobs, capsys):
    assert main(BUDGET_FUZZ + ["--jobs", jobs]) == 3
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "fuzz_budget_seed1.json").read_bytes()


# The human output of four campaigns: stdout in NAME.out and stderr in
# NAME.err, written by the first four command lines below. Only the elapsed
# seconds at the end of the summary line differ between runs; the goldens
# read "<elapsed>s" there.
HUMAN_CASES = [
    ("fuzz_seed7", 0, ["fuzz", "--count", "20", "--nmin", "4", "--nmax", "12", "--seed", "7"]),
    ("fuzz_budget_seed1", 3, BUDGET_FUZZ[:-2]),
    ("oracle_check_seed3", 0, ["oracle-check", "--count", "20", "--nmax", "11", "--seed", "3"]),
    ("oracle_check_budget_seed3", 3,
     ["oracle-check", "--count", "5", "--nmax", "12", "--seed", "3", "--node-budget", "20"]),
    # the two fuzz campaigns again, their records sent back by two worker processes
    ("fuzz_seed7", 0,
     ["fuzz", "--count", "20", "--nmin", "4", "--nmax", "12", "--seed", "7", "--jobs", "2"]),
    ("fuzz_budget_seed1", 3, BUDGET_FUZZ[:-2] + ["--jobs", "2"]),
]
ELAPSED = re.compile(r"(?m)^(summary: .*, )\d+\.\d\ds$")


@pytest.mark.parametrize("name, code, argv", HUMAN_CASES, ids=_ids(HUMAN_CASES))
def test_campaign_human_output_matches_golden_text(name, code, argv, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    out = ELAPSED.sub(r"\1<elapsed>s", captured.out)
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    assert captured.err.splitlines() == (GOLDEN / f"{name}.err").read_text("utf-8").splitlines()
