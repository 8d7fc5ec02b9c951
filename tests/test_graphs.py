import pickle

import pytest

from vinebound import (
    Cycle,
    CycleValidationError,
    Ear,
    Graph,
    GraphParseError,
    NotTwoConnectedError,
    Path,
    PathValidationError,
    PreconditionError,
    analyze,
    articulation_points,
    enumerate_vines,
    find_min_vine,
    is_connected,
    is_two_connected,
    parse_graph,
    require_two_connected,
    serialize_graph,
    longest_cycle,
    two_connectivity_failure,
    validate_cycle,
    validate_path,
)
from vinebound import graphs
from vinebound.cli import main

from bruteforce import brute_two_connected, canonical_cycle
from conftest import complete_graph, cycle_graph, path_graph, x1_graph


# ------------------------------------------------------------------
# parsing
# ------------------------------------------------------------------

def test_parse_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_parse_x1(x1):
    g = parse_graph("5 6\n0 1\n1 2\n2 3\n3 4\n0 3\n1 4")
    assert g == x1


def test_parse_out_of_range_names_line():
    with pytest.raises(GraphParseError) as err:
        parse_graph("3 1\n0 3")
    assert err.value.line_no == 2
    assert "out of range" in str(err.value)


def test_parse_loop_rejected():
    with pytest.raises(GraphParseError) as err:
        parse_graph("3 2\n0 1\n2 2")
    assert err.value.line_no == 3
    assert "loop" in str(err.value)


def test_parse_comments_and_blanks_ignored():
    text = "# a comment\n\n3 3\n0 1\n# chatter\n1 2\n\n2 0\n"
    g = parse_graph(text)
    assert g.edge_count == 3


def test_parse_duplicate_edges_collapse():
    g = parse_graph("3 4\n0 1\n1 0\n1 2\n2 0")
    assert g.edge_count == 3


def test_parse_malformed_header():
    with pytest.raises(GraphParseError) as err:
        parse_graph("3\n0 1")
    assert err.value.line_no == 1


def test_parse_wrong_edge_count():
    with pytest.raises(GraphParseError):
        parse_graph("3 5\n0 1\n1 2")
    with pytest.raises(GraphParseError) as err:
        parse_graph("3 1\n0 1\n1 2")
    assert err.value.line_no == 3


def test_parse_empty_input():
    with pytest.raises(GraphParseError):
        parse_graph("")


def test_parse_non_integer_tokens():
    with pytest.raises(GraphParseError):
        parse_graph("3 1\n0 x")


# ------------------------------------------------------------------
# serialization
# ------------------------------------------------------------------

def test_serialize_canonical(triangle):
    assert serialize_graph(triangle) == "3 3\n0 1\n0 2\n1 2\n"


def test_serialize_empty_graph():
    assert serialize_graph(Graph(0)) == "0 0\n"


def test_serialize_x2_header(x2):
    text = serialize_graph(x2)
    lines = text.splitlines()
    assert lines[0] == "7 9"
    assert len(lines) == 10


@pytest.mark.parametrize("builder", [x1_graph, lambda: cycle_graph(6), lambda: complete_graph(5)])
def test_round_trip(builder):
    g = builder()
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_of_parse_is_canonical():
    messy = "# hi\n3 4\n2 0\n1 0\n\n1 2\n0 2\n"
    assert serialize_graph(parse_graph(messy)) == "3 3\n0 1\n0 2\n1 2\n"


# ------------------------------------------------------------------
# graph construction
# ------------------------------------------------------------------

def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(-1)


@pytest.mark.parametrize("make, vertices, message", [
    (Path, (), "a path needs at least one vertex"),
    (Path, (0, 0), "path vertices must be distinct"),
    (Cycle, (0, 1), "a cycle needs at least three vertices"),
    (Cycle, (0, 1, 0), "cycle vertices must be distinct"),
    (Ear, (0,), "an ear needs at least two vertices"),
    (Ear, (0, 1, 0), "ear vertices must be distinct"),
])
def test_vertex_sequences_reject_short_or_repeated_input(make, vertices, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(vertices)


def test_graph_normalizes_edges():
    g = Graph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges == frozenset({(0, 2), (0, 1)})
    assert g.neighbors[0] == (1, 2)


# ------------------------------------------------------------------
# connectivity
# ------------------------------------------------------------------

def test_two_connected_fixtures(triangle, k4, c5, x1, x2, theta):
    for g in (triangle, k4, c5, x1, x2, theta):
        assert is_two_connected(g)


def test_path_graph_not_two_connected():
    g = path_graph(3)
    assert not is_two_connected(g)
    assert articulation_points(g) == [1]
    assert "articulation vertex 1" in two_connectivity_failure(g)


def test_small_and_disconnected_not_two_connected():
    assert not is_two_connected(Graph(2, [(0, 1)]))
    assert not is_two_connected(Graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    # vacuously connected: no vertex, or one
    assert is_connected(Graph(0)) and is_connected(Graph(1))


def test_require_two_connected_names_vertex():
    with pytest.raises(NotTwoConnectedError) as err:
        require_two_connected(path_graph(4))
    assert err.value.articulation_vertex in (1, 2)


def test_two_connected_matches_brute_force_on_seeded_graphs():
    import random

    rng = random.Random(20250810)
    for _ in range(120):
        n = rng.randint(3, 9)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in possible if rng.random() < 0.45]
        g = Graph(n, edges)
        assert is_two_connected(g) == brute_two_connected(g)


@pytest.fixture
def sweeps(monkeypatch):
    """Every graph the module-level two_connectivity_failure is called on."""
    seen = []
    original = graphs.two_connectivity_failure

    def counting(g):
        seen.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "two_connectivity_failure", counting)
    return seen


def test_analyze_certifies_two_connectivity_once(sweeps, x2):
    analyze(x2)
    assert sweeps == [x2]


def test_fuzz_instance_certifies_two_connectivity_once(sweeps, capsys):
    assert main(["fuzz", "--count", "1", "--nmin", "8", "--nmax", "8", "--seed", "5"]) == 0
    assert len(sweeps) == 1


# (graph, failure reason, articulation_vertex of NotTwoConnectedError)
NOT_TWO_CONNECTED = [
    (Graph(2, [(0, 1)]), "needs at least 3 vertices, has 2", None),
    (path_graph(4), "articulation vertex 1", 1),
    (Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]), "articulation vertex 2", 2),
    (Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), "graph is disconnected", None),
    (Graph(4, [(0, 1), (1, 2)]), "graph is disconnected", 1),
]


@pytest.mark.parametrize("g, reason, vertex", NOT_TWO_CONNECTED)
def test_every_entry_point_rejects_with_the_same_error(g, reason, vertex):
    # the same Graph object throughout: only the first call sweeps
    p = Path([0, 1])
    for _ in range(2):
        for call in (
            lambda: analyze(g),
            lambda: find_min_vine(g, p),
            lambda: enumerate_vines(g, p, 1),
            lambda: require_two_connected(g),
        ):
            with pytest.raises(NotTwoConnectedError) as err:
                call()
            assert str(err.value) == f"graph is not 2-connected: {reason}"
            assert err.value.articulation_vertex == vertex
        with pytest.raises(PreconditionError) as err:
            longest_cycle(g)
        assert type(err.value) is PreconditionError
        assert str(err.value) == f"longest_cycle requires a 2-connected graph: {reason}"
        assert two_connectivity_failure(g) == g.two_connectivity_failure == reason


def test_too_few_edges_reject_without_n_sized_tables():
    # two edges cannot connect a million vertices: the check answers at a
    # glance and the cut sweep visits only the three vertices with an edge
    g = Graph(10**6, [(0, 1), (1, 2)])
    with pytest.raises(NotTwoConnectedError) as err:
        require_two_connected(g)
    assert str(err.value) == "graph is not 2-connected: graph is disconnected"
    assert err.value.articulation_vertex == 1
    assert "neighbors" not in vars(g) and "adjacency_bits" not in vars(g)


# ------------------------------------------------------------------
# path / cycle validation
# ------------------------------------------------------------------

def test_validate_path_triangle(triangle):
    p = validate_path(triangle, [0, 1, 2])
    assert p.length == 2
    assert (p.vertices[0], p.vertices[-1]) == (0, 2)


def test_validate_path_repeated_vertex(triangle):
    with pytest.raises(PathValidationError, match="repeated"):
        validate_path(triangle, [0, 1, 0])


def test_validate_path_uses_chords(x1):
    # 0-3 and 1-4 are edges of X1, so this is a real path
    p = validate_path(x1, [0, 3, 4, 1])
    assert p.length == 3


def test_validate_path_non_adjacent(x1):
    with pytest.raises(PathValidationError, match="not adjacent"):
        validate_path(x1, [0, 2])


def test_validate_path_out_of_range(triangle):
    with pytest.raises(PathValidationError, match="range"):
        validate_path(triangle, [0, 3])


def test_path_positions_leave_equality_hash_and_pickle_alone(x1):
    p = validate_path(x1, [0, 3, 4, 1])
    assert p.positions == {0: 0, 3: 1, 4: 2, 1: 3}
    assert p.positions is p.positions
    fresh = Path([0, 3, 4, 1])
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    # worker processes send paths back pickled, cached map included
    back = pickle.loads(pickle.dumps(p))
    assert back == fresh and hash(back) == hash(fresh)
    assert back.positions == p.positions


def test_validate_cycle_triangle(triangle):
    assert validate_cycle(triangle, [0, 1, 2]).length == 3


def test_validate_cycle_with_chords(x1):
    assert validate_cycle(x1, [0, 1, 4, 3]).length == 4


def test_validate_cycle_missing_closing_edge(c5):
    with pytest.raises(CycleValidationError, match="closing edge"):
        validate_cycle(c5, [0, 1, 2])


def test_validate_cycle_too_short(triangle):
    with pytest.raises(CycleValidationError):
        validate_cycle(triangle, [0, 1])


def test_canonical_cycle():
    assert canonical_cycle([2, 1, 0, 3]) == (0, 1, 2, 3)
    assert canonical_cycle([3, 0, 1, 2]) == (0, 1, 2, 3)
    assert canonical_cycle([1, 0, 4, 3]) == (0, 1, 3, 4)


@pytest.mark.parametrize("text, line_no", [
    ("a b\n0 1", 1),
    ("3 -1", 1),
    ("3 1\n0 1 2", 2),
])
def test_parse_errors_name_the_line(text, line_no):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")
