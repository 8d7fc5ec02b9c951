"""Frozen JSON reports: each command must keep writing exactly these bytes.

The files under tests/golden/ were written by the command lines below;
regenerate one only when a change to its report is intended. ``analyze``
runs inside tests/golden/ so that the graph path the report echoes is
the bare file name.
"""

from pathlib import Path

import pytest

from vinebound.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("analyze_x1.json", ["analyze", "x1.txt", "--json", "-"]),
    ("analyze_x2.json", ["analyze", "x2.txt", "--json", "-"]),
    ("fuzz_seed7.json",
     ["fuzz", "--count", "20", "--nmin", "4", "--nmax", "12", "--seed", "7", "--json", "-"]),
    ("oracle_check_seed3.json",
     ["oracle-check", "--count", "20", "--nmax", "11", "--seed", "3", "--json", "-"]),
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_json_report_matches_golden_bytes(golden, argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()
