"""Exact longest-path and longest-cycle computation at desk scale.

Two independent method families live here on purpose:

* ``longest_path`` / ``longest_cycle`` run one depth-first branch and
  bound each, on explicit stacks, and return the first strict improvement
  to the optimal length: that incumbent is the pinned witness. Starting
  from increasing vertices over sorted adjacency visits vertex sequences
  in lexicographic order, and the ``<= best`` prune never cuts an ancestor
  of the lexicographically first optimal sequence, because the best length
  stays below the optimum until that sequence is reached. Its reverse has
  the same length and so cannot come earlier: it is orientation-normalized.
  ``all_longest_paths`` runs the same path search told l; the two modes
  differ only at a node longer than the incumbent. Told l, the incumbent
  is fixed at l - 1, so the prune cuts a node only when no extension
  reaches l: no prefix of a path of length l or more. So it visits every
  sequence of length l, in lexicographic order, and keeps each in the
  direction that ends above its start; a longer path's first l edges are
  a node with a way on, which raises, so l is certified maximal. It calls
  no oracle.
  For a cycle, that sequence starts at the smallest vertex and leaves it
  for the smaller of its two neighbours on the cycle, so the search starts
  each cycle at its smallest vertex and closes it only through a root
  neighbour above the first step: the reverse direction is never searched,
  and a root with fewer than two neighbours above it never spends a node.
  The prune bounds what the search can still add by the vertices reachable
  from the current end that have two neighbours in H, the reach plus the
  end (plus the root, for a cycle, joined to those neighbours it may still
  close through): every interior vertex of an extension needs two, and
  only the last vertex of a path may have one. Siblings share one reach:
  a node v's reach is its component C of G - visited less v, and each
  w in C has component C too, so w has v's H (C, plus the root with the
  same closers) and v's two masks, bit for bit. So each frame keeps the
  last component a child searched, and a child in it, like a parent's
  only way on, takes that component less itself and runs no search. The
  root's children set their own closers, so they neither keep nor take.
  The reach grows a run at a time: a run is a maximal connected set of
  vertices with exactly two neighbours each, and one that holds no blocked
  vertex joins whole, its neighbour counts added by one saturating add;
  other vertices join one by one. Reach and two-neighbour mask are as
  before: the reach is a component of G - blocked, which holds such a
  connected run whole or not at all, and a count of neighbours in H does
  not depend on the order its vertices joined in.
  longest_cycle keeps one table per root: for each key (end, reach) the
  most vertices a node reached it with, and prunes a node with no more. The
  node that set it is no ancestor (those end elsewhere), so it is finished.
  It left the root by the same or a smaller first step, so its closers
  contain the later node's, and it found as long a cycle as the pruned one
  could. No ancestor of the pinned witness is cut: the rest of the witness
  would close that smaller prefix as long, earlier. The table is not shared
  across roots: there the closers can differ at an equal key.
* ``longest_path_oracle`` / ``longest_cycle_oracle`` are the Bellman /
  Held-Karp dynamic program over (vertex subset, endpoint) states, run
  bit-parallel: per endpoint w, one integer of 2^n bits has bit S set when
  some simple path with vertex set S ends at w, one layer per path length,
  so one step extends the paths of every subset at once. They share no
  code with the search and return lengths only; they exist to cross-check it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .errors import InternalInvariantError, PreconditionError, SolveBudgetError
from .graphs import (
    Graph,
    Path,
    Cycle,
    is_connected,
    validate_cycle,
    validate_path,
)


@dataclass(frozen=True)
class SolveLimits:
    """Resource caps for one exact solve."""

    node_budget: int = 50_000_000
    time_budget: float = 60.0

    def __post_init__(self):
        if not (self.node_budget > 0 and self.time_budget > 0):
            raise PreconditionError("all solve limits must be positive")


DEFAULT_LIMITS = SolveLimits()

# The subset-DP oracles' own cap: each walks a 2^n table. fuzz and
# oracle-check cross-check every instance up to it.
ORACLE_MAX_VERTICES = 16

# longest_cycle clears a full dominance table, which only loses prunes
DOMINANCE_CAP = 1 << 16


class _BudgetHit(Exception):
    pass


class _Budget:
    """Node/time accounting of one solve."""

    __slots__ = ("nodes", "limit", "deadline")

    def __init__(self, limits: SolveLimits):
        self.nodes = 0
        self.limit = limits.node_budget
        self.deadline = time.monotonic() + limits.time_budget

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise _BudgetHit("node budget exhausted")
        if not (self.nodes & 0xFFF) and time.monotonic() > self.deadline:
            raise _BudgetHit("time budget exhausted")


def _runs(adj: tuple[int, ...]) -> tuple[int, list]:
    """The runs of adj with at least two vertices: the mask of their
    vertices, and per vertex of a run (its mask, the vertices with a
    neighbour in it, those with two); None for other vertices.

    A run is a maximal connected set of vertices with exactly two
    neighbours each. A run of one vertex is left out: _reach's own step
    adds it as cheaply.
    """
    deg2 = sum(1 << u for u, a in enumerate(adj) if a.bit_count() == 2)
    table: list[tuple[int, int, int] | None] = [None] * len(adj)
    chains = 0
    rest = deg2
    while rest:
        run = nbrs = two = 0
        members = []
        frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            run |= low
            u = low.bit_length() - 1
            members.append(u)
            a = adj[u]
            two |= nbrs & a
            nbrs |= a
            frontier |= a & deg2 & ~run
        rest &= ~run
        if len(members) > 1:
            chains |= run
            for u in members:
                table[u] = (run, nbrs, two)
    return chains, table


def _reach(adj: tuple[int, ...], runs: tuple[int, list], v: int, blocked: int,
           seed_ones: int, seed_twos: int) -> tuple[int, int]:
    """Bitmask of the vertices reachable from v without entering blocked
    ones, and the mask of vertices with two neighbours in H.

    H is the reach plus the search vertices outside it that the caller
    seeded seed_ones / seed_twos with: the vertices with at least one / two
    neighbours among those (v, and the root of a cycle search). ones and
    twos count the neighbours in the reach alone, and the seeds join them
    once, at the return. A vertex of ones joins the reach at the next level
    unless it is blocked, so the next frontier is ones less both. runs is
    _runs(adj): a run with no blocked vertex joins the reach whole, its
    neighbour counts added at once; every other vertex joins alone.
    """
    chains, table = runs
    reach = ones = twos = 0
    frontier = adj[v] & ~blocked
    while frontier:
        reach |= frontier
        hit = frontier & chains
        while hit:
            run, nbrs, two = table[(hit & -hit).bit_length() - 1]
            hit &= ~run
            if not run & blocked:
                frontier &= ~run
                reach |= run
                twos |= ones & nbrs | two
                ones |= nbrs
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            a = adj[low.bit_length() - 1]
            twos |= ones & a
            ones |= a
        frontier = ones & ~blocked & ~reach
    return reach, twos | ones & seed_ones | seed_twos


def _paths(g: Graph, limits: SolveLimits, l: int | None) -> Iterator[list[int]]:
    """The path search. Told no l, yield each strict improvement: the last
    sequence yielded is the pinned witness. Told l, yield every sequence of
    length l that ends above its start, and raise if one has a way on."""
    n = g.n
    adj = g.adjacency_bits
    runs = _runs(adj)
    budget = _Budget(limits)
    # the incumbent: a node with no more than best_len edges in reach is cut
    best_len = 0 if l is None else l - 1
    # One frame per vertex of seq, plus a bottom frame whose candidates are
    # the start vertices: todo holds the bitmask of neighbours still to try,
    # taken lowest first, and shared the (component, twos) a child last
    # searched, (0, 0) before any, or with one candidate its vertex's
    # (reach, twos). A connected graph's start vertices share one component.
    # A candidate v joins seq and visited, the bits of seq, only when the
    # search expands it, so every pop from seq clears its bit.
    seq: list[int] = []
    todo = [(1 << n) - 1]
    visited = 0
    shared = [(0, 0)]
    while todo:
        cand = todo[-1]
        if not cand:
            todo.pop()
            shared.pop()
            if seq:
                visited ^= 1 << seq.pop()
            continue
        low = cand & -cand
        todo[-1] = cand ^ low
        budget.spend()
        v = low.bit_length() - 1
        length = len(seq)  # the edges of seq + v
        if length > best_len:
            if l is not None:
                if adj[v] & ~visited:
                    raise InternalInvariantError(f"all_longest_paths: path {[*seq, v]} extends past l={l}")
                if seq and v > seq[0]:
                    yield [*seq, v]
                continue
            # strict, so the first optimal sequence found, the pinned
            # witness, is the last one yielded
            best_len = length
            yield [*seq, v]
        if best_len == n - 1:
            # nothing is longer, so the bound below would prune too
            continue
        region, twos = shared[-1]
        if region & low:
            reach = region ^ low
        else:
            reach, twos = _reach(adj, runs, v, visited | low, adj[v], 0)
            shared[-1] = (reach | low, twos)
        inner = reach & twos
        # a path from v runs through vertices with two neighbours in
        # reach + v and ends in at most one vertex with fewer
        if length + inner.bit_count() + (inner != reach) <= best_len:
            continue
        visited |= low
        seq.append(v)
        cand = adj[v] & ~visited
        todo.append(cand)
        shared.append((0, 0) if cand & (cand - 1) else (reach, twos))


def longest_path(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> Path:
    """Longest simple path of a connected graph with n >= 2.

    Tie-break: among all optimal paths the returned vertex sequence is the
    lexicographically smallest after orientation normalization (a sequence
    is kept in whichever direction compares smaller).
    """
    if g.n < 2:
        raise PreconditionError(f"longest_path needs at least two vertices, got n={g.n}")
    if not is_connected(g):
        raise PreconditionError("longest_path requires a connected graph")
    best_seq = [0]
    try:
        for best_seq in _paths(g, limits, None):
            pass
    except _BudgetHit as hit:
        raise SolveBudgetError(
            f"longest_path: {hit}; best non-optimal path has length {len(best_seq) - 1}",
            incumbent=validate_path(g, best_seq),
        ) from None
    return validate_path(g, best_seq)


def longest_cycle(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> Cycle:
    """Longest simple cycle of a 2-connected graph.

    Tie-break: the canonical rotation/reflection starting at the smallest
    vertex, then lexicographically smallest.
    """
    failure = g.two_connectivity_failure
    if failure is not None:
        raise PreconditionError(f"longest_cycle requires a 2-connected graph: {failure}")
    adj = g.adjacency_bits
    runs = _runs(adj)
    budget = _Budget(limits)
    best_len = 0
    best_seq: list[int] | None = None
    n = g.n
    try:
        for root in range(n - 2):
            if best_len >= n - root:
                # no cycle above the root is longer
                break
            rootbit = 1 << root
            root_adj = adj[root]
            # the root neighbours a cycle may still close through
            closers = root_adj & ~((rootbit << 1) - 1)
            if not closers & (closers - 1):
                # fewer than two neighbours above the root: no cycle has
                # it as its smallest vertex
                continue
            # Frames as in longest_path; the bottom frame holds the root
            # alone, and visited also blocks the vertices below the root, so
            # each cycle is found from its smallest vertex only. The root's
            # children set their own closers, so they keep no shared entry.
            seq: list[int] = []
            todo = [rootbit]
            visited = rootbit - 1
            shared = [(0, 0)]
            dominance: dict[tuple[int, int], int] = {}
            while todo:
                cand = todo[-1]
                if not cand:
                    todo.pop()
                    shared.pop()
                    if seq:
                        visited ^= 1 << seq.pop()
                    continue
                low = cand & -cand
                todo[-1] = cand ^ low
                budget.spend()
                v = low.bit_length() - 1
                count = len(seq) + 1  # the vertices of seq + v
                if count == 2:
                    # each cycle is searched in one direction only: it
                    # leaves the root for the smaller of its two root
                    # neighbours and closes through the larger
                    closers = root_adj & ~((low << 1) - 1)
                elif count > best_len and closers & low:
                    best_len = count
                    best_seq = [*seq, v]
                region, twos = shared[-1]
                if region & low:
                    reach = region ^ low
                elif v == root:
                    reach, twos = _reach(adj, runs, v, visited | low, root_adj, 0)
                else:
                    reach, twos = _reach(adj, runs, v, visited | low, adj[v] | closers, adj[v] & closers)
                    if count != 2:
                        shared[-1] = (reach | low, twos)
                # the way back from v to the root ends in a closer and runs
                # through vertices with two neighbours in reach + v + root; an
                # earlier node at this key with as many vertices found it all
                if (not closers & reach or count + (reach & twos).bit_count() <= best_len
                        or dominance.get(key := (v, reach), 0) >= count):
                    continue
                if len(dominance) >= DOMINANCE_CAP:
                    dominance.clear()
                dominance[key] = count
                visited |= low
                seq.append(v)
                cand = adj[v] & ~visited
                todo.append(cand)
                shared.append((0, 0) if cand & (cand - 1) else (reach, twos))
    except _BudgetHit as hit:
        incumbent = validate_cycle(g, best_seq) if best_seq is not None else None
        raise SolveBudgetError(
            f"longest_cycle: {hit}; best non-optimal cycle has length {best_len}",
            incumbent=incumbent,
        ) from None
    if best_seq is None:
        raise InternalInvariantError("longest_cycle: no cycle found in a 2-connected graph")
    return validate_cycle(g, best_seq)


def _subsets_without(k: int) -> list[int]:
    """For each w < k, the 2^k-bit integer whose bit S is set when the vertex
    subset S leaves out w: runs of 2^w ones, one every 2^(w+1) bits."""
    masks, starts = [], 1
    for w in reversed(range(k)):
        masks.append((starts << (1 << w)) - starts)
        starts |= starts << (1 << w)
    return masks[::-1]


def _subset_layers(neighbours, layer: list[int], without: list[int]):
    """Yield the layers after ``layer``, one per added edge, up to the first
    empty one; shifting left by 2^w adds w to every subset at once."""
    steps = [(nbrs, mask, 1 << w) for w, (nbrs, mask) in enumerate(zip(neighbours, without))]
    while True:
        nxt = []
        for nbrs, mask, shift in steps:
            ends = 0
            for v in nbrs:
                ends |= layer[v]
            nxt.append((ends & mask) << shift)
        if not any(nxt):
            return
        layer = nxt
        yield layer


def _check_oracle_size(g: Graph) -> None:
    if g.n > ORACLE_MAX_VERTICES:
        raise PreconditionError(f"oracle capped at {ORACLE_MAX_VERTICES} vertices, got n={g.n}")
    if g.n == 0:
        raise PreconditionError("oracle needs at least one vertex")


def longest_path_oracle(g: Graph) -> int:
    """Exact longest-path length by subset DP over (visited set, endpoint),
    one bit-parallel layer per path length.

    Intentionally disjoint from the branch-and-bound code path; used to
    cross-validate it on small instances.
    """
    _check_oracle_size(g)
    single = [1 << (1 << w) for w in range(g.n)]
    return sum(1 for _ in _subset_layers(g.neighbors, single, _subsets_without(g.n)))


def longest_cycle_oracle(g: Graph) -> int:
    """Exact circumference by subset DP rooted at each cycle's minimum
    vertex r, over the vertices above r; returns 0 when the graph has no
    cycle."""
    _check_oracle_size(g)
    n = g.n
    without = _subsets_without(n - 1)
    best = 0
    for r in range(n):
        if n - r <= best:
            break
        # vertex r + 1 + i is bit i; the layers hold paths from r, less r
        base = r + 1
        closers = [v - base for v in g.neighbors[r] if v > r]
        if len(closers) < 2:
            continue
        neighbours = [[v - base for v in g.neighbors[w] if v > r] for w in range(base, n)]
        layer = [1 << (1 << i) if i in closers else 0 for i in range(n - base)]
        size = 2
        for layer in _subset_layers(neighbours, layer, without):
            size += 1
            if size > best and any(layer[i] for i in closers):
                best = size
    return best


def all_longest_paths(g: Graph, l: int, limits: SolveLimits = DEFAULT_LIMITS) -> Iterator[Path]:
    """Yield every path of length l, orientation-normalized, in lexicographic
    order, and raise if a path is longer, so l is certified maximal."""
    try:
        for seq in _paths(g, limits, l):
            yield validate_path(g, seq)
    except _BudgetHit as hit:
        raise SolveBudgetError(f"all_longest_paths: {hit}") from None
