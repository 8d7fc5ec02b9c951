import concurrent.futures
import os
import random

import pytest

from vinebound import (
    ExtremalSpec,
    FuzzConfig,
    Graph,
    PreconditionError,
    SolveLimits,
    analyze,
    check_graph,
    extremal_cycle_length,
    extremal_graph,
    extremal_path_length,
    extremal_segment_lengths,
    fuzz_campaign,
    is_two_connected,
    longest_cycle,
    longest_path,
    random_two_connected,
    serialize_graph,
    verify_vine,
)
from vinebound.solvers import ORACLE_MAX_VERTICES

from bruteforce import reference_random_two_connected
from conftest import triangle_graph, x1_graph, x2_graph


# ------------------------------------------------------------------
# extremal construction
# ------------------------------------------------------------------

def test_extremal_m3_is_x2():
    g, spine, vine = extremal_graph(ExtremalSpec(3, 0))
    assert g == x2_graph()
    assert spine.vertices == tuple(range(7))
    assert [(e.x_attach, e.y_attach) for e in vine.ears] == [(0, 3), (1, 5), (3, 6)]


def test_extremal_m2_is_x1():
    g, spine, vine = extremal_graph(ExtremalSpec(2, 0))
    assert g == x1_graph()
    assert [(e.x_attach, e.y_attach) for e in vine.ears] == [(0, 3), (1, 4)]


def test_extremal_m5_values():
    spec = ExtremalSpec(5, 0)
    a, b = extremal_segment_lengths(spec)
    assert a == (1, 0, 0, 0, 1)
    assert b == (2, 3, 3, 2)
    g, spine, vine = extremal_graph(spec)
    assert spine.length == extremal_path_length(spec) == 12
    assert longest_cycle(g).length == extremal_cycle_length(spec) == 7
    assert 7 * 7 == 4 * 12 + 1  # bound attained exactly


def test_extremal_closed_forms_match_construction():
    for m in range(2, 7):
        for slack in (0, 2, 4, 6):
            spec = ExtremalSpec(m, slack)
            a, b = extremal_segment_lengths(spec)
            assert sum(a) + sum(b) == extremal_path_length(spec)


def test_extremal_vine_verifies():
    for m, slack in [(2, 0), (3, 2), (4, 0), (5, 4), (6, 2)]:
        g, spine, vine = extremal_graph(ExtremalSpec(m, slack))
        assert verify_vine(g, vine).ok
        assert is_two_connected(g)


def test_extremal_spine_is_longest_path():
    for m, slack in [(2, 2), (3, 0), (4, 2)]:
        g, spine, vine = extremal_graph(ExtremalSpec(m, slack))
        assert longest_path(g).vertices == spine.vertices


def test_extremal_tightness_exact_integer():
    for m, slack in [(2, 0), (2, 4), (3, 0), (3, 2), (4, 0), (5, 2)]:
        spec = ExtremalSpec(m, slack)
        l = extremal_path_length(spec)
        c = extremal_cycle_length(spec)
        expected = 4 * l + (slack + 1) ** 2 - (1 if m % 2 == 0 else 0)
        assert c * c == expected


def test_extremal_rejects_bad_specs():
    with pytest.raises(PreconditionError):
        ExtremalSpec(1, 0)
    with pytest.raises(PreconditionError):
        ExtremalSpec(3, 1)  # odd slack: construction halves it
    with pytest.raises(PreconditionError):
        ExtremalSpec(3, -2)


def test_extremal_analyze_reports_construction_parameters():
    for m, slack in [(2, 2), (3, 2), (4, 0)]:
        g, _, _ = extremal_graph(ExtremalSpec(m, slack))
        r = analyze(g)
        assert (r.m, r.slack) == (m, slack)
        assert r.tight and r.ok


# ------------------------------------------------------------------
# random generator
# ------------------------------------------------------------------

def test_random_triangle():
    g, placed = random_two_connected(3, 0, seed=123)
    assert g == triangle_graph()
    assert placed == 0


def test_random_pure_cycle_values():
    for n in (4, 6, 9):
        g, _ = random_two_connected(n, 0, seed=5)
        assert g.edge_count == n
        assert longest_path(g).length == n - 1
        assert longest_cycle(g).length == n


def test_random_generator_pinned_output():
    # frozen bytes: catches accidental RNG or canonicalization changes
    g, placed = random_two_connected(8, 4, 42)
    assert placed == 4 and g.edge_count == 12
    assert serialize_graph(g) == (
        "8 12\n0 1\n0 4\n0 5\n0 6\n1 3\n2 5\n2 7\n3 4\n3 5\n4 6\n4 7\n6 7\n"
    )
    g2, _ = random_two_connected(5, 2, 7)
    assert serialize_graph(g2) == "5 7\n0 1\n0 3\n0 4\n1 2\n1 3\n2 4\n3 4\n"


def test_random_generator_deterministic():
    a, _ = random_two_connected(10, 6, 999)
    b, _ = random_two_connected(10, 6, 999)
    assert a == b
    c, _ = random_two_connected(10, 6, 1000)
    assert a != c


def test_random_generator_always_two_connected():
    for seed in range(50):
        g, _ = random_two_connected(3 + seed % 10, seed % 7, seed)
        assert is_two_connected(g)


def test_random_generator_saturation():
    g, placed = random_two_connected(4, 100, seed=1)
    assert placed == 2  # K4 reached: only 2 chords exist beyond the 4-cycle
    assert g.edge_count == 6


def test_random_generator_matches_the_list_sampler():
    """Chords drawn as ranks among the non-edges are the chords drawn from
    the sorted list of them, seed for seed, up to saturation."""
    rng = random.Random(2026)
    for _ in range(1500):
        n = rng.randint(3, 40)
        extra, seed = rng.randint(0, n * (n - 1) // 2), rng.getrandbits(63)
        assert random_two_connected(n, extra, seed) == reference_random_two_connected(n, extra, seed)


def test_random_generator_preconditions():
    with pytest.raises(PreconditionError):
        random_two_connected(2, 0, seed=1)
    with pytest.raises(PreconditionError):
        random_two_connected(5, -1, seed=1)


# ------------------------------------------------------------------
# the per-graph check
# ------------------------------------------------------------------

X19 = ExtremalSpec(5, 2)  # 19 vertices, above the oracle cap


@pytest.mark.parametrize("g, limits", [
    (extremal_graph(X19)[0], SolveLimits()),
    (random_two_connected(12, 6, seed=3)[0], SolveLimits()),
    (random_two_connected(12, 6, seed=3)[0], SolveLimits(node_budget=20)),
], ids=["extremal-n19", "random-n12", "random-n12-budget"])
def test_check_graph(g, limits):
    """The record fields of one check: the oracles' lengths only up to their
    cap, and the graph text only beside a violation."""
    fields = check_graph(g, 200, limits)
    if limits.node_budget == 20:
        assert "l" not in fields and fields["resource_limited"]
        [line] = fields["violations"]
        assert line.startswith("exception during verification: SolveBudgetError: ")
        assert fields["graph_text"] == serialize_graph(g)
        return
    assert fields["violations"] == () and fields["graph_text"] is None
    assert fields["vines_checked"] >= 1 and not fields.get("resource_limited")
    if g.n > ORACLE_MAX_VERTICES:
        assert "oracle_l" not in fields and "oracle_c" not in fields
        assert fields["tight"]
        assert (fields["l"], fields["c"], fields["m"]) == (
            extremal_path_length(X19), extremal_cycle_length(X19), X19.m
        )
    else:
        assert (fields["oracle_l"], fields["oracle_c"]) == (fields["l"], fields["c"])


# ------------------------------------------------------------------
# fuzz campaign
# ------------------------------------------------------------------

def test_fuzz_single_triangle():
    report = fuzz_campaign(FuzzConfig(count=1, n_min=3, n_max=3, seed=1))
    assert report.passed == 1 and report.failed == 0
    record = report.records[0]
    assert record.provenance["n"] == 3 and record.l == 2 and record.c == 3 and record.m == 1


def test_fuzz_small_campaign_clean():
    report = fuzz_campaign(FuzzConfig(count=40, n_min=4, n_max=10, seed=7))
    assert report.ok
    assert all(r.ok and r.graph_text is None for r in report.records)
    assert all(r.oracle_checked for r in report.records)


def test_fuzz_campaign_deterministic():
    cfg = FuzzConfig(count=10, n_min=4, n_max=9, seed=77)
    a = fuzz_campaign(cfg)
    b = fuzz_campaign(cfg)
    assert [r.provenance for r in a.records] == [r.provenance for r in b.records]
    assert [(r.l, r.c, r.m, r.slack) for r in a.records] == [
        (r.l, r.c, r.m, r.slack) for r in b.records
    ]


def test_fuzz_parallel_matches_sequential():
    seq = fuzz_campaign(FuzzConfig(count=6, n_min=4, n_max=8, seed=13, jobs=1))
    par = fuzz_campaign(FuzzConfig(count=6, n_min=4, n_max=8, seed=13, jobs=2))
    strip = lambda rep: [(r.index, r.provenance, r.l, r.c, r.m, r.slack, r.violations) for r in rep.records]
    assert strip(seq) == strip(par)


def _fake_pool(monkeypatch, cpus):
    """Replace ProcessPoolExecutor with an in-process pool, on a machine with
    the given number of CPUs; no process is started. Returns the lists of
    the worker counts and the map chunk sizes the pool is given."""
    started, given = [], []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            given.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return started, given


def test_fuzz_pool_starts_no_more_workers_than_instances(monkeypatch):
    started, _ = _fake_pool(monkeypatch, 64)
    cfg = FuzzConfig(count=3, n_min=4, n_max=6, seed=13, jobs=64)
    rep = fuzz_campaign(cfg)
    assert started == [3]
    assert [r.index for r in rep.records] == [0, 1, 2]


@pytest.mark.parametrize("cpus, workers", [(4, [4]), (None, [])])
def test_fuzz_pool_starts_no_more_workers_than_cpus(monkeypatch, cpus, workers):
    # the pool forks all its workers on the first submit, so --jobs 5000
    # must not ask for 5000 of them; an unknown CPU count means one,
    # which runs the campaign in this process
    started, _ = _fake_pool(monkeypatch, cpus)
    seq = fuzz_campaign(FuzzConfig(count=12, n_min=4, n_max=6, seed=13))
    rep = fuzz_campaign(FuzzConfig(count=12, n_min=4, n_max=6, seed=13, jobs=5000))
    assert started == workers
    assert [(r.index, r.violations) for r in rep.records] == [
        (r.index, r.violations) for r in seq.records
    ]


@pytest.mark.parametrize("count, chunksize", [(8, 1), (500, 63)])
def test_fuzz_pool_chunks_spread_over_every_worker(monkeypatch, count, chunksize):
    # Pool.map's rule, ceil(count / (4 * workers)): 8 instances on 2 workers
    # go one at a time rather than all to the first worker
    from vinebound import families

    _, given = _fake_pool(monkeypatch, 2)
    # the records, not the instances: 500 of them would take seconds
    monkeypatch.setattr(families, "_run_instance",
                        lambda item, cfg: families.InstanceRecord(item[0], {}, (), None))
    rep = fuzz_campaign(FuzzConfig(count=count, n_min=4, n_max=6, seed=13, jobs=2))
    assert given == [chunksize]
    assert [r.index for r in rep.records] == list(range(count))


def test_fuzz_pure_cycles_tight_for_single_ear():
    # on pure cycles the single-ear bound is attained exactly: c = n
    report = fuzz_campaign(FuzzConfig(count=10, n_min=3, n_max=12, seed=3, extra_min=0, extra_max=0))
    assert report.ok
    for r in report.records:
        assert r.m == 1 and r.tight
        n = r.provenance["n"]
        assert r.c == n and r.l == n - 1
        assert r.c * r.c == 4 * r.l + (r.slack + 1) ** 2


def test_fuzz_config_validation():
    with pytest.raises(PreconditionError):
        FuzzConfig(count=0, n_min=3, n_max=5, seed=1)
    with pytest.raises(PreconditionError):
        FuzzConfig(count=1, n_min=2, n_max=5, seed=1)
    with pytest.raises(PreconditionError):
        FuzzConfig(count=1, n_min=5, n_max=3, seed=1)
    with pytest.raises(PreconditionError):
        FuzzConfig(count=1, n_min=3, n_max=5, seed=1, extra_min=4, extra_max=2)
    with pytest.raises(PreconditionError):
        FuzzConfig(count=1, n_min=3, n_max=3, seed=1, extra_min=5, extra_max=None)
    with pytest.raises(PreconditionError):
        FuzzConfig(count=1, n_min=3, n_max=5, seed=1, vine_cap=0)
    with pytest.raises(PreconditionError):
        FuzzConfig(count=1, n_min=3, n_max=5, seed=1, jobs=0)
