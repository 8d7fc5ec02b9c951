"""Property suites over seeded random instances."""

import ast
import math
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vinebound import (
    CycleValidationError,
    Ear,
    Graph,
    InternalInvariantError,
    PathValidationError,
    Vine,
    VineboundError,
    all_longest_paths,
    analyze,
    build_q0,
    build_qj,
    build_qstar,
    circumference_bound_squared,
    decompose,
    enumerate_ears,
    enumerate_vines,
    find_min_vine,
    is_connected,
    is_two_connected,
    longest_cycle,
    longest_cycle_oracle,
    longest_path,
    longest_path_oracle,
    parse_graph,
    random_two_connected,
    serialize_graph,
    solvers,
    validate_cycle,
    validate_path,
    verify_all_vines,
    verify_vine,
    verify_vine_against,
)

from vinebound.families import ExtremalSpec, extremal_graph
from vinebound.solvers import _reach, _runs

from bruteforce import (
    _reference_segments,
    brute_all_longest_paths,
    brute_two_connected,
    canonical_cycle,
    reference_build_q0,
    reference_build_qj,
    reference_build_qstar,
    reference_longest_cycle,
    reference_longest_cycle_oracle,
    reference_longest_path_oracle,
    reference_reach,
    reference_validate_cycle,
    reference_validate_path,
    reference_verify_vine,
    reference_verify_vine_against,
)
from conftest import complete_graph, cycle_graph, path_graph


edge_sets = st.integers(3, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=n * 3,
        ),
    )
)

two_connected_params = st.tuples(
    st.integers(3, 11), st.integers(0, 12), st.integers(0, 2**32)
)


@given(edge_sets)
@settings(max_examples=60, deadline=None)
def test_serialize_parse_round_trip(params):
    n, edges = params
    g = Graph(n, edges)
    assert parse_graph(serialize_graph(g)) == g
    # canonical form is a fixed point
    assert serialize_graph(parse_graph(serialize_graph(g))) == serialize_graph(g)


@given(edge_sets)
@settings(max_examples=60, deadline=None)
def test_two_connectivity_matches_definition(params):
    n, edges = params
    g = Graph(n, edges)
    assert is_two_connected(g) == brute_two_connected(g)


@given(edge_sets)
@settings(max_examples=40, deadline=None)
def test_search_matches_oracle(params):
    n, edges = params
    g = Graph(n, edges)
    if is_connected(g) and g.n >= 2 and g.edges:
        p = longest_path(g)
        assert p.length == longest_path_oracle(g)
        assert p.length <= g.n - 1
        validate_path(g, p.vertices)
    if is_two_connected(g):
        cyc = longest_cycle(g)
        assert cyc.length == longest_cycle_oracle(g)
        assert cyc.length <= g.n
        validate_cycle(g, cyc.vertices)


@st.composite
def non_hamiltonian_blocks(draw):
    """A 2-connected graph with c < n: s >= 2 hubs joined by s + 1 or more
    chains with interior vertices, the first s around a ring of the hubs
    and the rest as ears, plus chords inside a chain or between hubs, then
    relabelled. Deleting the hubs leaves more components than hubs, which
    no Hamiltonian graph allows."""
    s = draw(st.integers(2, 4))
    lengths = draw(st.lists(st.integers(1, 4), min_size=s + 1, max_size=s + 3))
    edges, chains, n = [], [], s
    for i, k in enumerate(lengths):
        a, b = (i % s, (i + 1) % s) if i < s else draw(st.permutations(range(s)))[:2]
        chain = [a, *range(n, n + k), b]
        edges += zip(chain, chain[1:])
        chains.append(chain[1:-1])
        n += k
    for _ in range(draw(st.integers(0, 4))):
        pool = draw(st.sampled_from(chains + [list(range(s))]))
        if len(pool) >= 2:
            edges.append(tuple(draw(st.permutations(pool))[:2]))
    labels = draw(st.permutations(range(n)))
    return Graph(n, [(labels[u], labels[v]) for u, v in edges])


@given(st.tuples(st.integers(3, 22), st.integers(0, 40), st.integers(0, 2**32)))
@settings(max_examples=80, deadline=None)
def test_longest_cycle_matches_reference_on_random_graphs(params):
    g, _ = random_two_connected(*params)
    assert longest_cycle(g).vertices == reference_longest_cycle(g).vertices


@given(non_hamiltonian_blocks())
@settings(max_examples=120, deadline=None)
def test_longest_cycle_matches_reference_below_n(g):
    assert is_two_connected(g)
    cyc = longest_cycle(g)
    assert cyc.length < g.n
    assert cyc.vertices == reference_longest_cycle(g).vertices


@given(st.one_of(
    st.tuples(st.integers(3, 10), st.integers(0, 8), st.integers(0, 2**32)).map(
        lambda params: random_two_connected(*params)[0]),
    non_hamiltonian_blocks().filter(lambda g: g.n <= 10),
))
@settings(max_examples=80, deadline=None)
def test_all_longest_paths_lists_every_longest_path(g):
    """Told the solved l, the listing is the brute-force list and starts with
    longest_path's witness, the path the exhaustive check skips; told l - 1,
    it raises on a path that goes on."""
    p = longest_path(g)
    assert [q.vertices for q in all_longest_paths(g, p.length)] == brute_all_longest_paths(g)
    assert next(all_longest_paths(g, p.length)) == p
    with pytest.raises(InternalInvariantError, match=f"extends past l={p.length - 1}$"):
        list(all_longest_paths(g, p.length - 1))


def test_longest_cycle_matches_reference_on_extremal_sweep():
    for m in range(2, 21):
        for slack in (0, 2, 4):
            g = extremal_graph(ExtremalSpec(m, slack))[0]
            assert longest_cycle(g).vertices == reference_longest_cycle(g).vertices


@st.composite
def reach_calls(draw):
    """A graph with long runs of degree-2 vertices and one reach call on it.
    The graph is a 2-connected graph with every edge subdivided, a plain
    cycle (one run, which holds v) or a 2-connected graph with pendant
    paths (connected, not 2-connected); the call draws v, a blocked mask
    that may hold v, and ones / twos seeds."""
    kind = draw(st.sampled_from(("subdivided", "cycle", "pendant")))
    if kind == "cycle":
        n = draw(st.integers(3, 40))
        edges = [(i, (i + 1) % n) for i in range(n)]
    else:
        base, _ = random_two_connected(draw(st.integers(3, 8)), draw(st.integers(0, 6)),
                                       draw(st.integers(0, 2**32)))
        n, edges = base.n, sorted(base.edges)
        if kind == "subdivided":
            chains = []
            for u, w in edges:
                chain = [u, *range(n, n := n + draw(st.integers(0, 5))), w]
                chains += zip(chain, chain[1:])
            edges = chains
        else:
            for _ in range(draw(st.integers(1, 3))):
                chain = [draw(st.integers(0, n - 1)), *range(n, n := n + draw(st.integers(1, 6)))]
                edges += zip(chain, chain[1:])
    labels = draw(st.permutations(range(n)))
    g = Graph(n, [(labels[u], labels[w]) for u, w in edges])
    v = draw(st.integers(0, n - 1))
    blocked = sum({1 << u for u in draw(st.lists(st.integers(0, n - 1), max_size=n // 2))})
    if draw(st.booleans()):
        blocked |= 1 << v
    ones = draw(st.integers(0, (1 << n) - 1))
    return g, v, blocked, ones, ones & draw(st.integers(0, (1 << n) - 1))


@given(reach_calls())
@settings(max_examples=300, deadline=None)
def test_reach_by_runs_matches_plain_bfs(params):
    g, v, blocked, ones, twos = params
    adj = g.adjacency_bits
    assert _reach(adj, _runs(adj), v, blocked, ones, twos) == reference_reach(adj, v, blocked, ones, twos)


def test_reach_by_runs_matches_plain_bfs_in_both_searches(monkeypatch):
    # every call the two solvers make on the m = 20 grid graph
    calls = []

    def recorded(adj, runs, v, blocked, ones, twos):
        got = _reach(adj, runs, v, blocked, ones, twos)
        calls.append(got == reference_reach(adj, v, blocked, ones, twos))
        return got

    monkeypatch.setattr(solvers, "_reach", recorded)
    g = extremal_graph(ExtremalSpec(20, 2))[0]
    longest_path(g)
    longest_cycle(g)
    assert len(calls) > 100 and all(calls)


@st.composite
def oracle_graphs(draw):
    """Any graph with 1..13 vertices: an arbitrary edge set (often
    disconnected or non-Hamiltonian), a forest (no cycle, disconnected when
    a vertex gets no parent) or two cycles sharing one vertex (c < n)."""
    n = draw(st.integers(1, 13))
    kind = draw(st.sampled_from(("edges", "forest", "bowtie")))
    if kind == "forest":
        parents = [draw(st.one_of(st.none(), st.integers(0, v - 1))) for v in range(1, n)]
        return Graph(n, [(p, v) for v, p in enumerate(parents, 1) if p is not None])
    if kind == "bowtie" and n >= 5:
        order = draw(st.permutations(range(n)))
        cut = draw(st.integers(2, n - 3))
        left, right = order[: cut + 1], order[cut:]
        return Graph(n, [(left[i - 1], left[i]) for i in range(len(left))]
                     + [(right[i - 1], right[i]) for i in range(len(right))])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph(n, draw(st.sets(pairs, max_size=n * 3)))


def _assert_oracles_match_reference(g):
    cap = solvers.ORACLE_MAX_VERTICES
    assert longest_path_oracle(g) == reference_longest_path_oracle(g, cap)
    assert longest_cycle_oracle(g) == reference_longest_cycle_oracle(g, cap)


@given(oracle_graphs())
@settings(max_examples=150, deadline=None)
def test_oracles_match_per_subset_reference(g):
    _assert_oracles_match_reference(g)


@pytest.mark.parametrize(
    "g, l, c",
    [
        (Graph(1, []), 0, 0),
        (Graph(2, []), 0, 0),
        (Graph(2, [(0, 1)]), 1, 0),
        (path_graph(5), 4, 0),
        (Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), 2, 3),
    ]
    + [(complete_graph(n), n - 1, n if n >= 3 else 0) for n in range(1, 9)],
)
def test_oracles_match_per_subset_reference_cases(g, l, c):
    _assert_oracles_match_reference(g)
    assert (longest_path_oracle(g), longest_cycle_oracle(g)) == (l, c)


def test_oracles_match_per_subset_reference_at_17_vertices(monkeypatch):
    # the path 0..16 with the chord 0-8: one path through all 17 vertices,
    # and the only cycle is 0..8
    g = Graph(17, [(i, i + 1) for i in range(16)] + [(0, 8)])
    monkeypatch.setattr(solvers, "ORACLE_MAX_VERTICES", 17)
    _assert_oracles_match_reference(g)
    assert longest_path_oracle(g) == 16
    assert longest_cycle_oracle(g) == 9


def _certify_outcome(certify, g, vs):
    """The certified object, or the error's type and message."""
    try:
        return certify(g, vs)
    except (PathValidationError, CycleValidationError) as exc:
        return type(exc), str(exc)


def _assert_certifiers_agree(g, vs):
    for certify, reference in (
        (validate_path, reference_validate_path),
        (validate_cycle, reference_validate_cycle),
    ):
        got = _certify_outcome(certify, g, vs)
        assert got == _certify_outcome(reference, g, vs)
        if not isinstance(got, tuple):
            assert type(got.vertices) is tuple


@st.composite
def graphs_and_walks(draw):
    """A graph with a vertex sequence that may stray out of range, repeat,
    skip an edge or miss the closing edge, as a list, tuple or range."""
    n, edges = draw(edge_sets)
    kind = draw(st.sampled_from(("ring", "walk", "ints", "range")))
    if kind == "ring":
        # a planted cycle, walked whole or up to some vertex
        ring = tuple(draw(st.permutations(range(n))))[: draw(st.integers(3, n))]
        edges = edges | {(ring[i - 1], ring[i]) for i in range(len(ring))}
        vs = list(ring[: draw(st.integers(1, len(ring)))])
    g = Graph(n, edges)
    if kind == "walk":
        vs = [draw(st.integers(0, n - 1))]
        for _ in range(draw(st.integers(2, n))):
            if not g.neighbors[vs[-1]]:
                break
            vs.append(draw(st.sampled_from(g.neighbors[vs[-1]])))
    if kind in ("ring", "walk"):
        # maybe overwrite one vertex with any id
        if draw(st.booleans()):
            vs[draw(st.integers(0, len(vs) - 1))] = draw(st.integers(-3, n + 2))
        vs = tuple(vs)
    elif kind == "ints":
        vs = draw(st.lists(st.integers(-3, n + 2), min_size=1, max_size=n + 2))
    else:
        start = draw(st.integers(-2, n))
        vs = range(start, draw(st.integers(start, n + 2)))
    return g, vs


@given(graphs_and_walks())
@settings(max_examples=300, deadline=None)
def test_certifiers_match_set_based_reference(params):
    _assert_certifiers_agree(*params)


@pytest.mark.parametrize(
    "g, vs",
    [
        (cycle_graph(4), [-1, 0]),  # adjacency_bits[-1] is vertex 3, a neighbour of 0
        (cycle_graph(4), [-1, 0, 1]),
        (cycle_graph(4), [0, 1, 2, -4]),
        (cycle_graph(4), [3, 0, 4]),
        (cycle_graph(4), [0, 2, 5]),  # range fault found before the earlier adjacency fault
        (cycle_graph(4), [0, 2, 0]),  # repeat found before the adjacency fault
        (cycle_graph(5), [0, 1, 2]),  # missing closing edge
        (cycle_graph(5), range(5)),
        (cycle_graph(5), range(1, 4)),
        (cycle_graph(5), range(3, 6)),
        (cycle_graph(5), range(0)),
        (complete_graph(4), []),
        (complete_graph(4), [2]),
        (complete_graph(4), (3, 1)),
        (complete_graph(4), (3, 1, 0, 2)),
    ],
)
def test_certifiers_match_set_based_reference_cases(g, vs):
    _assert_certifiers_agree(g, vs)


@given(two_connected_params)
@settings(max_examples=50, deadline=None)
def test_vines_verify_and_min_is_first(params):
    n, extra, seed = params
    g, _ = random_two_connected(n, extra, seed)
    p = longest_path(g)
    vine = find_min_vine(g, p)
    assert verify_vine(g, vine).ok
    enum = enumerate_vines(g, p, max_count=100)
    assert enum.vines, "at least one vine exists on any path of a 2-connected graph"
    assert enum.vines[0].m == vine.m
    for v in enum.vines:
        assert verify_vine(g, v).ok


@given(two_connected_params)
@settings(max_examples=50, deadline=None)
def test_bound_invariants_on_random_instances(params):
    n, extra, seed = params
    g, _ = random_two_connected(n, extra, seed)
    r = analyze(g)
    assert r.ok, r.violations
    assert r.slack >= 0 and r.c >= r.m + 2
    assert r.c * r.c >= circumference_bound_squared(r.l, r.slack, r.m)
    assert r.q0_len <= r.c
    assert all(q <= r.c for q in r.qj_lens)
    if r.qstar_len is not None:
        assert r.qstar_len <= r.c
    # corollary chain: main bound -> sharp Dirac form -> Dirac bound
    assert not r.bound_met or r.dirac.conjecture_a
    assert not r.dirac.conjecture_a or r.dirac.theorem_a


@given(st.tuples(st.integers(3, 12), st.integers(0, 12), st.integers(0, 2**32)))
@settings(max_examples=60, deadline=None)
def test_all_vines_lines_match_a_fresh_verdict_per_vine(params):
    """The all-vines pass shares one ladder table over its vines; its lines
    must be those of a fresh verify_vine_against on each enumerated vine,
    under the true (l, c) and under falsified pairs."""
    g, _ = random_two_connected(*params)
    p = longest_path(g)
    l, c = p.length, longest_cycle(g).length
    vines, truncated = enumerate_vines(g, p, max_count=200)
    for claim in [(l, c), (3 * l, c), (l, c - 2), (l + 5, c + 1)]:
        expected = [
            f"vine #{idx} (m={vine.m}): {line}"
            for idx, vine in enumerate(vines)
            for line in verify_vine_against(g, *claim, vine).violations
        ]
        assert verify_all_vines(g, p, *claim, 200) == (len(vines), truncated, expected), claim


@given(two_connected_params)
@settings(max_examples=40, deadline=None)
def test_every_vine_satisfies_bound_and_tiling(params):
    n, extra, seed = params
    g, _ = random_two_connected(n, extra, seed)
    p = longest_path(g)
    l = p.length
    c = longest_cycle(g).length
    for vine in enumerate_vines(g, p, max_count=60).vines:
        slack = c - vine.m - 2
        assert slack >= 0
        assert c * c >= circumference_bound_squared(l, slack, vine.m)
        if vine.m >= 2:
            d = decompose(vine)
            assert sum(d.a) + sum(d.b) == l


@given(two_connected_params)
@settings(max_examples=25, deadline=None)
def test_analyze_is_deterministic(params):
    n, extra, seed = params
    g, _ = random_two_connected(n, extra, seed)
    a = analyze(g)
    b = analyze(g)
    assert a.path.vertices == b.path.vertices
    assert a.cycle.vertices == b.cycle.vertices
    assert [e.vertices for e in a.vine.ears] == [e.vertices for e in b.vine.ears]
    assert (a.l, a.c, a.m, a.slack, a.bound) == (b.l, b.c, b.m, b.slack, b.bound)


def _assert_constructions_match_reference(g, vine):
    """q0 in the stitched vertex order; q_j and qstar up to rotation and reflection."""
    d = decompose(vine)
    q0 = build_q0(g, d)
    assert q0.vertices == reference_build_q0(vine)
    for j in range(1, (d.m - 1) // 2 + 1):
        qj, ref = build_qj(g, d, j), reference_build_qj(vine, j)
        assert canonical_cycle(qj.vertices) == canonical_cycle(ref)
        assert qj.length == len(ref)
    if d.m % 2 == 0:
        qstar, ref = build_qstar(g, d), reference_build_qstar(vine)
        assert canonical_cycle(qstar.vertices) == canonical_cycle(ref)
        assert qstar.length == len(ref)


@st.composite
def graphs_and_base_paths(draw):
    """A seeded 2-connected graph with a prefix of its longest path as the
    base path, so that off-path vertices give ears with interiors."""
    n, extra, seed = draw(st.tuples(st.integers(3, 10), st.integers(0, 8), st.integers(0, 2**32)))
    g, _ = random_two_connected(n, extra, seed)
    vertices = longest_path(g).vertices
    return g, validate_path(g, vertices[: draw(st.integers(2, len(vertices)))])


@given(graphs_and_base_paths())
@settings(max_examples=100, deadline=None)
def test_cycle_constructions_match_stitched_reference(params):
    g, p = params
    for vine in enumerate_vines(g, p, max_count=40).vines:
        if vine.m >= 2:
            _assert_constructions_match_reference(g, vine)


def test_cycle_constructions_match_stitched_reference_on_extremal_grid():
    for m in range(2, 21):
        for slack in (0, 2, 4):
            g, spine, planted = extremal_graph(ExtremalSpec(m, slack))
            for vine in (planted,) + enumerate_vines(g, spine, max_count=20).vines:
                if vine.m >= 2:
                    _assert_constructions_match_reference(g, vine)


def _with_one_fault(data, g, vine, ears):
    """vine with one fault drawn from: an ear swapped for another enumerated
    ear, two ears reordered, an interior vertex overwritten, a base-path
    edge used as an ear, an attachment moved off the path, an ear repeated.
    A vine with an ear that can detour through a base-path vertex strictly
    inside a B segment, where no ladder passes, takes that fault instead:
    it is the rarest (about one vine in fifty) and the one only the
    interior check sees."""
    base = vine.base.vertices
    out = list(vine.ears)
    pos = vine.base.positions
    spans = zip((pos[e.x_attach] for e in out[1:]), (pos[e.y_attach] for e in out))
    inside_b = [base[q] for x, y in spans for q in range(x + 1, y)]
    detours = [
        (k, slot, v)
        for k, ear in enumerate(out) for slot in range(1, ear.length) for v in inside_b
        if v not in ear.vertices
        and v in g.neighbors[ear.vertices[slot - 1]] and v in g.neighbors[ear.vertices[slot + 1]]
    ]
    if detours:
        k, slot, v = data.draw(st.sampled_from(detours))
        vs = list(out[k].vertices)
        vs[slot] = v
        out[k] = Ear(vs)
        return Vine(vine.base, out)
    k = data.draw(st.integers(0, len(out) - 1))
    kind = data.draw(st.sampled_from(
        ("swap", "reorder", "interior", "base-edge", "off-path", "repeat")
    ))
    if kind == "swap":
        out[k] = data.draw(st.sampled_from(ears))
    elif kind == "reorder":
        other = data.draw(st.integers(0, len(out) - 1))
        out[k], out[other] = out[other], out[k]
    elif kind == "repeat":
        out.insert(data.draw(st.integers(0, len(out))), out[k])
    elif kind == "base-edge":
        i = data.draw(st.integers(0, len(base) - 2))
        out[k] = Ear(base[i : i + 2])
    else:
        vs = list(out[k].vertices)
        if kind == "interior":
            slots = range(1, len(vs) - 1)
            pool = set(base).union(*(e.interior for e in out))
        else:
            slots = (0, len(vs) - 1)
            pool = set(range(g.n)) - set(base)
        pool -= set(vs)
        if slots and pool:
            slot = data.draw(st.sampled_from(slots))
            # prefer a vertex that keeps the ear a path, so later clauses are reached
            kept = {v for v in pool if all(v in g.neighbors[vs[i]] for i in (slot - 1, slot + 1)
                                           if 0 <= i < len(vs))}
            vs[slot] = data.draw(st.sampled_from(sorted(kept or pool)))
            out[k] = Ear(vs)
    return Vine(vine.base, out)


@given(graphs_and_base_paths(), st.data())
@settings(max_examples=200, deadline=None)
def test_vine_verdicts_match_reference_under_one_fault(params, data):
    """verify_vine agrees with the reference, and a vine it rejects cannot
    pass the bound checks under the graph's true (l, c) either: they raise
    or report a violation."""
    g, p = params
    l, c = longest_path(g).length, longest_cycle(g).length
    ears = enumerate_ears(g, p)
    for vine in enumerate_vines(g, p, max_count=8).vines:
        broken = _with_one_fault(data, g, vine, ears)
        expected = reference_verify_vine(g, broken)
        assert verify_vine(g, broken) == expected
        if not expected.ok:
            try:
                assert verify_vine_against(g, l, c, broken).violations, (broken, expected)
            except VineboundError:
                pass


def _verification_fields(v):
    """A VineVerification as a dict, the NaN bound of a c < m+2 return as None."""
    fields = dict(vars(v))
    if math.isnan(fields["bound"]):
        fields["bound"] = None
    return fields


def _claims(l, c, shifts):
    """The true (l, c) and each shifted pair, kept within l >= 1."""
    return [(l, c)] + [(max(1, l + dl), c + dc) for dl, dc in shifts]


def _verifications_match_reference(g, p, claims, max_vines):
    """Compare verify_vine_against with the reference on every enumerated
    vine on p and every claimed (l, c), and check that the faults of the two
    retired checks still surface: c < l + 1 for one ear as a bound violation,
    and b_h + b_{h-1} > c - 1 for m = 2h as a qstar longer than c. Returns
    the violations seen and how often each of those premises held."""
    seen, premises = [], Counter()
    for vine in enumerate_vines(g, p, max_count=max_vines).vines:
        m, h = vine.m, vine.m // 2
        b = [0] + [len(run) - 1 for run in _reference_segments(vine)[1]]
        for l, c in claims:
            got = verify_vine_against(g, l, c, vine)
            expected = reference_verify_vine_against(g, l, c, vine)
            assert _verification_fields(got) == _verification_fields(expected), (vine, l, c)
            seen += got.violations
            if c < m + 2:
                continue
            if m == 1 and c < l + 1:
                premises["c < l+1"] += 1
                assert any(v.startswith("bound violated") for v in got.violations), (vine, l, c)
            if m % 2 == 0 and b[h] + b[h - 1] > c - 1:
                premises["b_h+b_{h-1} > c-1"] += 1
                assert any(
                    v.startswith("qstar cycle longer than the circumference") for v in got.violations
                ), (vine, l, c)
    return seen, premises


claim_shifts = st.lists(st.tuples(st.integers(-2, 12), st.integers(-12, 1)), min_size=1, max_size=4)


@given(graphs_and_base_paths(), claim_shifts)
@settings(max_examples=100, deadline=None)
def test_vine_verification_matches_reference(params, drawn):
    """Vines on the longest path and on a prefix of it, which is a certified
    path that is usually not longest: only there can a single ear have an
    interior, since on a longest path the lone ear joins its two ends."""
    g, p = params
    whole = longest_path(g)
    claims = _claims(whole.length, longest_cycle(g).length, drawn)
    for base in {p, whole}:
        _verifications_match_reference(g, base, claims, max_vines=20)


def test_vine_verification_reference_cases_reach_every_violation():
    """Seeded graphs, some extremal ones for m >= 3, and fixed shifts on
    which the comparison above meets every violation verify_vine_against
    can write."""
    shifted = [(0, -k) for k in range(1, 9)] + [(8, 0), (8, -2)]
    seen, premises = [], Counter()
    for seed in range(12):
        g, _ = random_two_connected(6 + seed % 5, seed % 7, seed)
        whole = longest_path(g)
        claims = _claims(whole.length, longest_cycle(g).length, shifted)
        prefix = validate_path(g, whole.vertices[: 2 + seed % (len(whole.vertices) - 1)])
        for base in (whole, prefix):
            found, held = _verifications_match_reference(g, base, claims, max_vines=20)
            seen += found
            premises += held
    for m in (3, 4, 5, 6):
        g, spine, _ = extremal_graph(ExtremalSpec(m, 2))
        claims = _claims(spine.length, longest_cycle(g).length, shifted)
        found, held = _verifications_match_reference(g, spine, claims, max_vines=20)
        seen += found
        premises += held
    kinds = {re.sub(r" cycle longer.*| at j=.*|:.*", "", v) for v in seen}
    assert kinds == {
        "c >= m+2 violated", "bound violated", "inequality (1) violated",
        "inequality (2) violated", "q0", "q1", "q2", "qstar", "base-plus-ear",
    }, kinds
    assert set(premises) == {"c < l+1", "b_h+b_{h-1} > c-1"}, premises


def test_references_import_no_private_package_code():
    """The references mirror the solvers' budget accounting, but import no
    other private package name, nor the package's path and cycle certifiers,
    nor the bounds arithmetic the per-vine reference must recompute."""
    tree = ast.parse(Path(__file__).with_name("bruteforce.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vinebound")
        for alias in node.names
    }
    assert {name for name in imported if name.startswith("_")} <= {"_Budget", "_BudgetHit"}
    assert not imported & {"validate_path", "validate_cycle"}
    assert not imported & {
        "decompose", "build_q0", "build_qj", "build_qstar",
        "check_inequality_1", "check_inequality_2", "circumference_bound_squared",
    }
