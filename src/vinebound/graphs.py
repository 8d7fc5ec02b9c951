"""Simple-graph data model: parsing, canonical serialization, connectivity
certification, and path/cycle validation.

Vertices are dense 0-based integers. All types are immutable after
construction and every operation is a pure function, so shared instances
are safe to use concurrently.

A Graph certifies its 2-connectivity once. ``Graph.two_connectivity_failure``
caches what the function of that name returns, and ``is_two_connected``,
``require_two_connected`` and ``solvers.longest_cycle`` read it; the cut
vertices are cached too, so ``NotTwoConnectedError`` names one without a
second sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    CycleValidationError,
    GraphParseError,
    NotTwoConnectedError,
    PathValidationError,
)


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; no loops, no multi-edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge {u}-{v} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            normalized.add(_normalize_edge(u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted adjacency lists."""
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(tuple(sorted(adj)) for adj in lists)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Adjacency as vertex bitmasks, for subset algorithms."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    @cached_property
    def two_connectivity_failure(self) -> str | None:
        """The module function two_connectivity_failure on this graph, run once."""
        # looked up as a module global at call time, so a wrapper installed
        # there (the benchmark's tracer) times this one real sweep
        return two_connectivity_failure(self)

    @cached_property
    def _cut_vertices(self) -> tuple[int, ...]:
        return tuple(articulation_points(self))


@dataclass(frozen=True)
class Path:
    """Oriented simple path: distinct vertices, consecutive ones adjacent
    in the host graph. Produce through validate_path to certify adjacency."""

    vertices: tuple[int, ...]

    def __init__(self, vertices: Iterable[int]):
        vs = tuple(vertices)
        if not vs:
            raise ValueError("a path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise ValueError("path vertices must be distinct")
        object.__setattr__(self, "vertices", vs)

    @property
    def length(self) -> int:
        """Edge count."""
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]


@dataclass(frozen=True)
class Cycle:
    """Simple cycle as a cyclic vertex sequence (first vertex not repeated)."""

    vertices: tuple[int, ...]

    def __init__(self, vertices: Iterable[int]):
        vs = tuple(vertices)
        if len(vs) < 3:
            raise ValueError("a cycle needs at least three vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("cycle vertices must be distinct")
        object.__setattr__(self, "vertices", vs)

    @property
    def length(self) -> int:
        """Edge count, equal to the number of vertices."""
        return len(self.vertices)


def parse_graph(text: str) -> Graph:
    """Parse the graph file format (header "n m", then m lines "u v").

    Lines starting with "#" and blank lines are ignored. Duplicate edge
    lines collapse to a single edge; loops and out-of-range ids are errors
    that name the offending line.
    """
    entries: list[tuple[int, str]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries.append((idx, line))
    if not entries:
        raise GraphParseError(1, "missing header line")
    header_no, header = entries[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphParseError(header_no, f"header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(header_no, f"header must be two integers, got {header!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError(header_no, f"negative counts in header {header!r}")
    edge_entries = entries[1:]
    if len(edge_entries) < m:
        raise GraphParseError(header_no, f"expected {m} edge lines, found {len(edge_entries)}")
    if len(edge_entries) > m:
        raise GraphParseError(edge_entries[m][0], f"unexpected extra line beyond {m} declared edges")
    edges = set()
    for line_no, line in edge_entries:
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(line_no, f"edge line must be 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(line_no, f"edge line must be two integers, got {line!r}") from None
        if u == v:
            raise GraphParseError(line_no, f"loop edge {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"vertex id out of range [0, {n}) in {line!r}")
        edges.add(_normalize_edge(u, v))
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Canonical text form: header, then edges sorted with u < v, one per
    line, newline-terminated. parse_graph(serialize_graph(g)) == g."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (vacuously for n <= 1)."""
    if g.n <= 1:
        return True
    adj = g.adjacency_bits
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def articulation_points(g: Graph) -> list[int]:
    """Cut vertices, via an iterative depth-first low-point sweep."""
    n = g.n
    adj = g.neighbors
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    is_cut = [False] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if u != root and low[v] >= disc[u]:
                        is_cut[u] = True
                continue
            if disc[w] == -1:
                parent[w] = v
                if v == root:
                    root_children += 1
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, iter(adj[w])))
            elif w != parent[v]:
                low[v] = min(low[v], disc[w])
        if root_children > 1:
            is_cut[root] = True
    return [v for v in range(n) if is_cut[v]]


def two_connectivity_failure(g: Graph) -> str | None:
    """None when g is 2-connected, else a human-readable reason."""
    if g.n < 3:
        return f"needs at least 3 vertices, has {g.n}"
    if not is_connected(g):
        return "graph is disconnected"
    cuts = g._cut_vertices
    if cuts:
        return f"articulation vertex {cuts[0]}"
    return None


def is_two_connected(g: Graph) -> bool:
    """True iff g has >= 3 vertices, is connected, and has no cut vertex."""
    return g.two_connectivity_failure is None


def require_two_connected(g: Graph) -> None:
    """Raise NotTwoConnectedError (naming a cut vertex if any) unless g is 2-connected."""
    failure = g.two_connectivity_failure
    if failure is not None:
        cuts = g._cut_vertices
        raise NotTwoConnectedError(
            f"graph is not 2-connected: {failure}",
            articulation_vertex=cuts[0] if cuts else None,
        )


def validate_path(g: Graph, vs: Sequence[int]) -> Path:
    """Certify vs as a path of g; orientation is preserved."""
    if len(vs) == 0:
        raise PathValidationError("empty vertex sequence")
    seen: set[int] = set()
    for v in vs:
        if not 0 <= v < g.n:
            raise PathValidationError(f"vertex {v} out of range [0, {g.n})")
        if v in seen:
            raise PathValidationError(f"repeated vertex {v}")
        seen.add(v)
    for u, v in zip(vs, vs[1:]):
        if not g.has_edge(u, v):
            raise PathValidationError(f"consecutive vertices {u} and {v} are not adjacent")
    return Path(vs)


def validate_cycle(g: Graph, vs: Sequence[int]) -> Cycle:
    """Certify vs as a cycle of g (wrap-around edge included, length >= 3)."""
    if len(vs) < 3:
        raise CycleValidationError(f"cycle needs at least 3 vertices, got {len(vs)}")
    seen: set[int] = set()
    for v in vs:
        if not 0 <= v < g.n:
            raise CycleValidationError(f"vertex {v} out of range [0, {g.n})")
        if v in seen:
            raise CycleValidationError(f"repeated vertex {v}")
        seen.add(v)
    for u, v in zip(vs, vs[1:]):
        if not g.has_edge(u, v):
            raise CycleValidationError(f"consecutive vertices {u} and {v} are not adjacent")
    if not g.has_edge(vs[-1], vs[0]):
        raise CycleValidationError(f"missing closing edge {vs[-1]}-{vs[0]}")
    return Cycle(vs)


def canonical_cycle(vs: Sequence[int]) -> tuple[int, ...]:
    """Canonical rotation/reflection: start at the smallest vertex, then
    pick the lexicographically smaller direction."""
    seq = list(vs)
    best: tuple[int, ...] | None = None
    for direction in (seq, seq[::-1]):
        i = direction.index(min(direction))
        rotated = tuple(direction[i:] + direction[:i])
        if best is None or rotated < best:
            best = rotated
    assert best is not None
    return best
