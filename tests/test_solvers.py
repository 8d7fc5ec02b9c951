import pytest

from vinebound import (
    ExtremalSpec,
    FuzzConfig,
    Graph,
    PreconditionError,
    SolveBudgetError,
    SolveLimits,
    all_longest_paths,
    extremal_graph,
    is_connected,
    is_two_connected,
    longest_cycle,
    longest_cycle_oracle,
    longest_path,
    longest_path_oracle,
    random_two_connected,
    solvers,
    validate_cycle,
    validate_path,
)
from vinebound.families import chord_graph, chord_instances

from bruteforce import (
    brute_all_longest_paths,
    brute_longest_cycle_length,
    brute_longest_cycle_witness,
    brute_longest_path_length,
    brute_longest_path_witness,
    canonical_cycle,
)
from conftest import complete_graph, cycle_graph, path_graph


def test_longest_path_k4(k4):
    p = longest_path(k4)
    assert p.length == 3
    # tie-break recomputed by brute force over all 4!/2 optimal sequences
    assert p.vertices == brute_longest_path_witness(k4) == (0, 1, 2, 3)


def test_longest_path_c5(c5):
    p = longest_path(c5)
    assert p.length == 4
    assert p.vertices == (0, 1, 2, 3, 4)


def test_longest_path_x2(x2):
    p = longest_path(x2)
    assert p.length == brute_longest_path_length(x2) == 6
    assert p.vertices == (0, 1, 2, 3, 4, 5, 6)


def test_longest_path_two_vertices():
    p = longest_path(Graph(2, [(0, 1)]))
    assert p.vertices == (0, 1)


def test_longest_path_preconditions():
    with pytest.raises(PreconditionError):
        longest_path(Graph(1))
    with pytest.raises(PreconditionError):
        longest_path(Graph(4, [(0, 1), (2, 3)]))


def test_longest_cycle_fixtures(triangle, x1, x2):
    assert longest_cycle(triangle).length == 3
    assert longest_cycle(x1).length == brute_longest_cycle_length(x1) == 4
    assert longest_cycle(x2).length == brute_longest_cycle_length(x2) == 5


def test_longest_cycle_canonical_tie_break(x1, x2, theta):
    for g in (x1, x2, theta):
        cyc = longest_cycle(g)
        assert cyc.vertices == canonical_cycle(cyc.vertices)
        assert cyc.vertices == brute_longest_cycle_witness(g)


def test_longest_cycle_requires_two_connected():
    with pytest.raises(PreconditionError):
        longest_cycle(path_graph(4))


def test_oracles_on_fixtures(k4, c5, theta):
    assert longest_path_oracle(k4) == 3
    assert longest_cycle_oracle(k4) == 4
    assert longest_path_oracle(theta) == 4
    assert longest_cycle_oracle(theta) == 4
    assert longest_path_oracle(c5) == 4
    assert longest_cycle_oracle(c5) == 5


def test_oracle_cap(monkeypatch):
    g = cycle_graph(17)
    with pytest.raises(PreconditionError):
        longest_path_oracle(g)
    monkeypatch.setattr(solvers, "ORACLE_MAX_VERTICES", 17)
    assert longest_path_oracle(g) == 16
    for oracle in (longest_path_oracle, longest_cycle_oracle):
        with pytest.raises(PreconditionError, match="^oracle needs at least one vertex$"):
            oracle(Graph(0))


def test_oracle_no_cycle_returns_zero():
    assert longest_cycle_oracle(path_graph(5)) == 0


def test_solvers_match_brute_force_on_seeded_graphs():
    import random

    rng = random.Random(981)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 8)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in possible if rng.random() < 0.5]
        g = Graph(n, edges)
        if not g.edges:
            continue
        assert longest_path_oracle(g) == brute_longest_path_length(g)
        assert longest_cycle_oracle(g) == brute_longest_cycle_length(g)
        if is_connected(g) and g.n >= 2:
            p = longest_path(g)
            assert p.length == brute_longest_path_length(g)
            assert p.vertices == brute_longest_path_witness(g)
        if is_two_connected(g):
            cyc = longest_cycle(g)
            assert cyc.length == brute_longest_cycle_length(g)
            assert cyc.vertices == brute_longest_cycle_witness(g)
        checked += 1
    assert checked >= 40


def random_ear_graph(rng, n):
    """A cycle grown by open ears to n vertices, then at most one chord.
    2-connected by Whitney's theorem; over a third of them have no
    Hamiltonian cycle."""
    k = rng.randint(3, n - 1)
    edges = [(i, (i + 1) % k) for i in range(k)]
    size = k
    while size < n:
        a, b = rng.sample(range(size), 2)
        interior = list(range(size, size + rng.randint(1, min(3, n - size))))
        chain = [a, *interior, b]
        edges += zip(chain, chain[1:])
        size += len(interior)
    if rng.random() < 0.5:
        edges.append(tuple(rng.sample(range(n), 2)))
    return Graph(n, edges)


def test_solvers_match_brute_force_on_ear_decompositions():
    import random

    rng = random.Random(4417)
    non_hamiltonian = 0
    for _ in range(200):
        g = random_ear_graph(rng, rng.randint(4, 10))
        assert is_two_connected(g)
        p = longest_path(g)
        cyc = longest_cycle(g)
        assert p.vertices == brute_longest_path_witness(g)
        assert cyc.vertices == brute_longest_cycle_witness(g)
        non_hamiltonian += cyc.length < g.n
    assert non_hamiltonian >= 60, non_hamiltonian


def theta_chains(lengths, labels=None):
    """Poles 0 and 1 joined by internally disjoint chains of the given
    lengths, relabelled by labels[v] when given."""
    edges = []
    n = 2
    for length in lengths:
        chain = [0, *range(n, n + length - 1), 1]
        edges += zip(chain, chain[1:])
        n += length - 1
    if labels is not None:
        edges = [(labels[u], labels[v]) for u, v in edges]
    return Graph(n, edges)


def subdivided_thetas(max_n):
    """Every theta with three or four chains (at most one of them a single
    edge) and at most max_n vertices, chain lengths in non-decreasing order."""
    def chains(k, shortest, room):
        if k == 0:
            yield ()
            return
        for length in range(max(shortest, 1), room + 2):
            for rest in chains(k - 1, max(length, 2), room - (length - 1)):
                yield (length, *rest)

    for k in (3, 4):
        yield from chains(k, 1, max_n - 2)


def test_witnesses_pinned_on_extremal_family():
    checked = 0
    for m in range(2, 6):
        for slack in range(0, 8, 2):
            g = extremal_graph(ExtremalSpec(m, slack))[0]
            if g.n > 11:
                continue
            p = longest_path(g)
            assert p.vertices == brute_longest_path_witness(g)
            assert longest_cycle(g).vertices == brute_longest_cycle_witness(g)
            if g.n <= 10:
                assert [q.vertices for q in all_longest_paths(g, p.length)] == brute_all_longest_paths(g)
            checked += 1
    assert checked == 6


def test_witnesses_pinned_on_subdivided_thetas():
    # long degree-2 chains: most search steps are some vertex's only way on
    import random

    rng = random.Random(3061)
    checked = 0
    for lengths in subdivided_thetas(11):
        plain = theta_chains(lengths)
        labels = list(range(plain.n))
        rng.shuffle(labels)
        for g in (plain, theta_chains(lengths, labels)):
            assert is_two_connected(g)
            p = longest_path(g)
            assert p.vertices == brute_longest_path_witness(g)
            assert longest_cycle(g).vertices == brute_longest_cycle_witness(g)
            if g.n <= 10:
                assert [q.vertices for q in all_longest_paths(g, p.length)] == brute_all_longest_paths(g)
        checked += 1
    assert checked >= 50, checked


def test_dense_cycle_certified_within_small_node_budget():
    # the two-neighbour bound closes this search in a few hundred nodes;
    # a bound counting every reachable vertex needs over 200,000
    g = random_two_connected(21, 40, 5677563859266279251)[0]
    cyc = longest_cycle(g, SolveLimits(node_budget=5_000))
    assert cyc.length == 21
    assert validate_cycle(g, cyc.vertices).vertices == cyc.vertices


def test_extremal_cycle_certified_within_small_node_budget():
    # each cycle is searched in one direction only; searching both needs
    # 7,491 nodes here
    g = extremal_graph(ExtremalSpec(20, 2))[0]
    cyc = longest_cycle(g, SolveLimits(node_budget=5_000))
    assert cyc.length == 24
    assert validate_cycle(g, cyc.vertices).vertices == cyc.vertices


def test_extremal_cycle_certified_within_smaller_node_budget():
    # the dominance table cuts this search from 3,434 nodes to 2,384
    g = extremal_graph(ExtremalSpec(20, 2))[0]
    cyc = longest_cycle(g, SolveLimits(node_budget=3_000))
    assert cyc.length == 24
    assert cyc.vertices == longest_cycle(g).vertices


@pytest.mark.parametrize("solve, nodes", [(longest_cycle, 2384), (longest_path, 305)])
def test_extremal_node_counts_are_pinned(solve, nodes):
    # the exact search size on the m = 20 grid graph (n = 143): a prune
    # that moves changes it, a faster reach step does not
    g = extremal_graph(ExtremalSpec(20, 2))[0]
    assert solve(g, SolveLimits(node_budget=nodes)).vertices == solve(g).vertices
    with pytest.raises(SolveBudgetError):
        solve(g, SolveLimits(node_budget=nodes - 1))


def test_extremal_listing_node_count_is_pinned():
    # the listing of the m = 20 grid graph's four Hamiltonian paths takes
    # exactly 5,839 nodes: a prune that moves changes it
    g = extremal_graph(ExtremalSpec(20, 2))[0]
    assert len(list(all_longest_paths(g, 142, SolveLimits(node_budget=5839)))) == 4
    with pytest.raises(SolveBudgetError, match=r"^all_longest_paths: node budget exhausted$"):
        list(all_longest_paths(g, 142, SolveLimits(node_budget=5838)))


def _extremal_grid(slacks=(0, 2)):
    return [extremal_graph(ExtremalSpec(m, slack))[0] for m in range(2, 21) for slack in slacks]


def _counted_budgets(monkeypatch) -> list:
    """The list every solve's _Budget joins from now on, to sum its nodes."""
    budgets = []

    class CountingBudget(solvers._Budget):
        def __init__(self, limits):
            super().__init__(limits)
            budgets.append(self)

    monkeypatch.setattr(solvers, "_Budget", CountingBudget)
    return budgets


def test_dominance_table_cuts_grid_cycle_nodes(monkeypatch):
    budgets = _counted_budgets(monkeypatch)
    for g in _extremal_grid():
        longest_cycle(g)
    # 37,692 nodes without the table
    assert sum(b.nodes for b in budgets) <= 28_000


def test_pool_node_totals_are_pinned(monkeypatch):
    # the exact search size summed over each benchmark pool: fuzz seed 7
    # (500 instances, n 4..12), the dense pool (seeds 7..12, 10 instances
    # each, n 18..22, 30..40 chords) and the extremal grid; a prune that
    # moves changes it, a faster reach step does not
    budgets = _counted_budgets(monkeypatch)
    dense = [FuzzConfig(10, 18, 22, seed, extra_min=30, extra_max=40) for seed in range(7, 13)]
    pools = {
        "fuzz7": [chord_graph(i)[0] for i in chord_instances(FuzzConfig(500, 4, 12, 7))],
        "dense": [chord_graph(i)[0] for cfg in dense for i in chord_instances(cfg)],
        "grid": _extremal_grid(),
    }
    totals = {}
    for name, graphs in pools.items():
        for solve in (longest_path, longest_cycle):
            budgets.clear()
            for g in graphs:
                solve(g)
            totals[name, solve.__name__] = sum(b.nodes for b in budgets)
    assert totals == {
        ("fuzz7", "longest_path"): 12_124, ("fuzz7", "longest_cycle"): 8_995,
        ("dense", "longest_path"): 10_015, ("dense", "longest_cycle"): 10_349,
        ("grid", "longest_path"): 4_684, ("grid", "longest_cycle"): 27_948,
    }


def test_pool_reach_calls_are_pinned(monkeypatch):
    # the reach searches the solvers run over the pools above and the m = 20
    # grid listing: a node whose component a sibling already searched, or
    # that is its parent's only way on, runs none, so a lost share raises one
    calls = []
    reach = solvers._reach

    def counted(*args):
        calls.append(None)
        return reach(*args)

    monkeypatch.setattr(solvers, "_reach", counted)
    dense = [FuzzConfig(10, 18, 22, seed, extra_min=30, extra_max=40) for seed in range(7, 13)]
    pools = {
        "fuzz7": [chord_graph(i)[0] for i in chord_instances(FuzzConfig(500, 4, 12, 7))],
        "dense": [chord_graph(i)[0] for cfg in dense for i in chord_instances(cfg)],
        "grid": _extremal_grid(),
    }
    totals = {}
    for name, graphs in pools.items():
        for solve in (longest_path, longest_cycle):
            calls.clear()
            for g in graphs:
                solve(g)
            totals[name, solve.__name__] = len(calls)
    calls.clear()
    assert len(list(all_longest_paths(extremal_graph(ExtremalSpec(20, 2))[0], 142))) == 4
    totals["listing"] = len(calls)
    assert totals == {
        ("fuzz7", "longest_path"): 3_134, ("fuzz7", "longest_cycle"): 4_430,
        ("dense", "longest_path"): 3_278, ("dense", "longest_cycle"): 4_181,
        ("grid", "longest_path"): 456, ("grid", "longest_cycle"): 10_641,
        "listing": 1_150,
    }


@pytest.mark.parametrize("cap", [1, 2])
def test_dominance_table_cap_only_loses_prunes(monkeypatch, cap):
    graphs = _extremal_grid((0, 2, 4))
    graphs += [random_two_connected(18 + seed % 5, 30 + seed % 11, seed)[0] for seed in range(12)]
    expected = [longest_cycle(g).vertices for g in graphs]
    monkeypatch.setattr(solvers, "DOMINANCE_CAP", cap)
    assert [longest_cycle(g).vertices for g in graphs] == expected


def test_cycle_witnesses_pinned_on_hub_graphs():
    # a hub root has many neighbours above it to close through
    import random

    rng = random.Random(5923)
    hubs = [Graph(3 + k, [(i, j) for i in range(3) for j in range(3, 3 + k)]) for k in range(3, 9)]
    hubs += [Graph(n, [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)])
             for n in range(4, 12)]
    for plain in hubs:
        graphs = [plain]
        for _ in range(2):
            labels = list(range(plain.n))
            rng.shuffle(labels)
            graphs.append(Graph(plain.n, [(labels[u], labels[v]) for u, v in sorted(plain.edges)]))
        for g in graphs:
            assert is_two_connected(g)
            assert longest_cycle(g).vertices == brute_longest_cycle_witness(g)


def test_witnesses_revalidate(x2):
    p = longest_path(x2)
    cyc = longest_cycle(x2)
    assert validate_path(x2, p.vertices).vertices == p.vertices
    assert validate_cycle(x2, cyc.vertices).vertices == cyc.vertices


def test_budget_exhaustion_carries_incumbent():
    g = complete_graph(9)
    with pytest.raises(SolveBudgetError) as err:
        longest_path(g, SolveLimits(node_budget=25, time_budget=60.0))
    incumbent = err.value.incumbent
    assert incumbent is not None
    # best-so-far is a real path of g but carries no optimality claim
    assert validate_path(g, incumbent.vertices).length <= 8
    with pytest.raises(SolveBudgetError):
        longest_cycle(g, SolveLimits(node_budget=25, time_budget=60.0))


def test_big_budget_matches_oracle():
    # with room to complete, the search returns exactly the oracle value
    g = complete_graph(7)
    limits = SolveLimits(node_budget=10_000_000, time_budget=60.0)
    assert longest_path(g, limits).length == longest_path_oracle(g) == 6
    assert longest_cycle(g, limits).length == longest_cycle_oracle(g) == 7


def test_determinism_repeated_solves(x2):
    runs = [longest_path(x2).vertices for _ in range(3)]
    assert len(set(runs)) == 1
    runs_c = [longest_cycle(x2).vertices for _ in range(3)]
    assert len(set(runs_c)) == 1


def test_all_longest_paths_counts(c5, x2):
    paths = list(all_longest_paths(c5, 4))
    assert len(paths) == 5  # one per removed edge of the 5-cycle
    assert all(p.length == 4 for p in paths)
    spine_list = list(all_longest_paths(x2, 6))
    assert any(p.vertices == (0, 1, 2, 3, 4, 5, 6) for p in spine_list)


def test_all_longest_paths_cap():
    # the 11-cycle's listing takes 231 nodes: 21 from each start
    with pytest.raises(SolveBudgetError, match=r"^all_longest_paths: node budget exhausted$"):
        list(all_longest_paths(cycle_graph(11), 10, SolveLimits(node_budget=100)))


def test_limits_validation():
    with pytest.raises(PreconditionError):
        SolveLimits(node_budget=0)
    with pytest.raises(PreconditionError):
        SolveLimits(time_budget=-1)


@pytest.mark.parametrize("field", ["node_budget", "time_budget"])
def test_limits_reject_nan(field):
    with pytest.raises(PreconditionError, match="all solve limits must be positive"):
        SolveLimits(**{field: float("nan")})


def test_time_budget_stops_the_search():
    # the clock is read every 4096 nodes, so the first read already stops it
    with pytest.raises(SolveBudgetError) as err:
        longest_path(cycle_graph(5000), SolveLimits(time_budget=1e-9))
    assert str(err.value) == (
        "longest_path: time budget exhausted; best non-optimal path has length 4094"
    )
