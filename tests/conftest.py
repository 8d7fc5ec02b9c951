import pytest

from vinebound import Ear, Graph, Vine, validate_path


def triangle_graph() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def x1_graph() -> Graph:
    """Path 0-1-2-3-4 plus chords 0-3 and 1-4 (even-m tight instance)."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 4)])


def x2_graph() -> Graph:
    """Path 0..6 plus chords 0-3, 1-5, 3-6 (odd-m tight instance)."""
    return Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (1, 5), (3, 6)])


def non_vine_graph() -> Graph:
    """Path 0..8 plus the chord 0-5 and the path 3-9-4-10-8 through vertex 4."""
    return Graph(11, [(i, i + 1) for i in range(8)] + [(0, 5), (3, 9), (9, 4), (4, 10), (10, 8)])


def non_vine(g: Graph) -> Vine:
    """Ears 0-5 and 3-9-4-10-8 on the path 0..8 of non_vine_graph: not a vine,
    as ear 2's interior vertex 4 lies on the path, strictly inside B_1 = 3..5.
    Every ladder is still a simple cycle, the q0 one of length 11."""
    return Vine(validate_path(g, range(9)), [Ear((0, 5)), Ear((3, 9, 4, 10, 8))])


def theta_graph() -> Graph:
    """Three internally disjoint length-2 paths between vertices 0 and 1."""
    return Graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])


@pytest.fixture
def triangle() -> Graph:
    return triangle_graph()


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)


@pytest.fixture
def x1() -> Graph:
    return x1_graph()


@pytest.fixture
def x2() -> Graph:
    return x2_graph()


@pytest.fixture
def theta() -> Graph:
    return theta_graph()
