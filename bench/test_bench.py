"""Tests of the benchmark itself, on a tiny pass.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

# Every metric the benchmark's definition names, with its unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "inst_per_s": "1/s",
    "analyze_ms.p50": "ms",
    "analyze_ms.tail": "ms",
    "failed_share": "share",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "solvers.longest_cycle.self_s": "s",
    "solvers.longest_path.self_s": "s",
    "solvers.longest_path.calls": "count",
    "solvers.path_oracle.self_s": "s",
    "solvers.cycle_oracle.self_s": "s",
    "solvers.budget_errors": "count",
    "vines.enumerate_ears.self_s": "s",
    "vines.ears": "count",
    "vines.find_min_vine.self_s": "s",
    "vines.enumerate_vines.self_s": "s",
    "vines.vines": "count",
    "vines.truncated": "count",
    "bounds.verify_vine_against.self_s": "s",
    "bounds.verify_vine_against.calls": "count",
    "bounds.decompose.self_s": "s",
    "bounds.cycles.self_s": "s",
    "bounds.analyze.self_s": "s",
    "graphs.two_conn.calls": "count",
    "graphs.two_conn.self_s": "s",
    "graphs.validate.calls": "count",
    "graphs.validate.self_s": "s",
    "graphs.parse.self_s": "s",
    "families.generate.self_s": "s",
    "families.fuzz_campaign.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


TINY_PASS = {"small_batches": 2, "small_count": 8, "dense_batches": 1, "dense_count": 2, "m_max": 3}


@pytest.fixture(autouse=True)
def tiny_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "PASS", TINY_PASS)
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path / "scratch"))
    monkeypatch.setattr(run, "SPANS_DIR", str(tmp_path / "spans"))


def run_bench(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    record = json.loads(lines[-2].removeprefix("record "))
    return json.loads(lines[-1]), record


def test_benchmark_json_matches_definitions():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.spec()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(capsys, workload, trace):
    result, record = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = run.spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    expected = {**END_TO_END_UNITS, **(LAYER_UNITS if trace else {})}
    assert {name: record["metrics"][name]["unit"] for name in expected} == expected
    assert record["metrics"]["failed_share"]["value"] == 0
    assert len(record["digests"]) == 1
    env = record["environment"]
    assert env["seed"] == 3 and env["workload"] == workload and env["nproc"] >= 1
    assert {"host", "python", "commit"} <= set(env)
    assert record["counts"]["instances_per_pass"] >= 1
    assert {"percentile", "samples", "beyond"} <= set(record["tail"])


def test_failing_operations_are_counted_not_raised(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    program = run.load_program()
    graphs = sys.modules["vinebound.graphs"]
    real_generate = program.generate

    def path_instead(n, extra, seed):
        _, placed = real_generate(n, extra, seed)
        return graphs.Graph(n, [(v, v + 1) for v in range(n - 1)]), placed

    program.generate = path_instead
    rejected = run.Campaign(run._fuzz_argv({**run.FUZZ_SMALL, "nmin": 2}, 3, 1), 3)
    accepted = run.Campaign(run._fuzz_argv(run.FUZZ_SMALL, 3, 1), 3)
    result = run.run_pass(program, [rejected, accepted], None)
    # the fuzz with nmin 2 exits 2; each analyze of a path graph exits 2
    assert (result.attempted, result.failed) == (5, 4)
    assert result.problems == []
    assert all("exit 2" in msg for msg in result.failures)
    metrics, _, _ = run.end_to_end([result], 0.1)
    assert metrics["failed_share"] == pytest.approx(4 / 5)


def test_crash_is_counted_not_raised(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    program = run.load_program()

    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(sys.modules["vinebound.cli"], "analyze", crash)
    result = run.run_pass(program, [run.Campaign(run._fuzz_argv(run.FUZZ_SMALL, 2, 5), 2)], None)
    assert (result.attempted, result.failed) == (3, 2)
    assert all(msg.endswith("RecursionError: maximum recursion depth exceeded") for msg in result.failures)


def test_wrong_output_fails_the_gate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    program = run.load_program()
    campaign = run.Campaign(run._fuzz_argv(run.FUZZ_SMALL, 2, 5), 2)
    original = run.check_analyze
    monkeypatch.setattr(run, "check_analyze", lambda stdout, expected: original(
        stdout, {**expected, "l": expected["l"] + 1}))
    result = run.run_pass(program, [campaign], None)
    assert result.failed == 0 and len(result.problems) == 2


def test_traced_pass_reproduces_the_untraced_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    program = run.load_program()
    campaigns = run.build_campaigns("fuzz-small", 11)
    plain = run.run_pass(program, campaigns, None)
    tracer = spans.Tracer()
    restore = spans.install(tracer, run.PACKAGE, program.modules)
    try:
        traced = run.run_pass(program, campaigns, tracer)
    finally:
        restore()
    assert traced.digest == plain.digest
    # spans open wherever the pipeline calls the function from
    for name in ("solvers.path_oracle", "graphs.two_conn", "vines.enumerate_ears", "bounds.analyze"):
        assert tracer.stats[name].calls > 0
    assert tracer.stats[spans.ROOT].calls == plain.attempted
    solvers = sys.modules["vinebound.solvers"]
    assert sys.modules["vinebound.bounds"].longest_cycle is solvers.longest_cycle
    assert not hasattr(solvers.longest_cycle, "__wrapped__")


def test_tracer_cost_is_taken_out_of_self_times():
    inside, outside = spans.calibrate()
    assert inside > 0 and outside > 0
    tracer = spans.Tracer()
    traced = tracer.wrap("child", lambda: None)
    tracer.begin("parent")
    for _ in range(100):
        traced()
    tracer.end()
    assert tracer.stats["parent"].children == 100
    times = spans.self_times(tracer.stats, (inside, outside))
    assert times["parent"] < tracer.stats["parent"].self_s
    assert times["child"] < tracer.stats["child"].self_s


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, at = run.tail([float(v) for v in range(100, 0, -1)])
    assert value == 90.0
    assert at == {"percentile": 90.0, "beyond": 10, "samples": 100}


def test_same_seed_same_inputs_and_seed_changes_fuzz_inputs():
    for workload in run.WORKLOADS:
        assert run.build_campaigns(workload, 4) == run.build_campaigns(workload, 4)
    assert run.build_campaigns("fuzz-small", 4) != run.build_campaigns("fuzz-small", 5)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
