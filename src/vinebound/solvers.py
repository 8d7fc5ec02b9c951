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
  For a cycle, that sequence starts at the smallest vertex and leaves it
  for the smaller of its two neighbours on the cycle, so the search starts
  each cycle at its smallest vertex and closes it only through a root
  neighbour above the first step: the reverse direction is never searched,
  and a root with fewer than two neighbours above it never spends a node.
  The prune bounds what the search can still add by the vertices reachable
  from the current end that have two neighbours in H, the reach plus the
  end (plus the root, for a cycle, joined to those neighbours it may still
  close through): every interior vertex of an extension needs two, and
  only the last vertex of a path may have one. When a vertex is its
  parent's only way on, it takes the parent's reach less itself and runs
  no search of its own; that reach and its two-neighbour vertices are
  exactly what a fresh search would find.
* ``longest_path_oracle`` / ``longest_cycle_oracle`` are bitmask dynamic
  programs over (vertex subset, endpoint) states. They share no code with
  the search and return lengths only; they exist to cross-check it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
        if self.node_budget <= 0 or self.time_budget <= 0:
            raise PreconditionError("all solve limits must be positive")


DEFAULT_LIMITS = SolveLimits()

ORACLE_MAX_VERTICES = 16


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


def _reach(adj: tuple[int, ...], v: int, blocked: int, ones: int, twos: int) -> tuple[int, int]:
    """Bitmask of the vertices reachable from v without entering blocked
    ones, and the mask of vertices with two neighbours in H.

    H is the reach plus the search vertices outside it that the caller
    seeded ones / twos with: the vertices with at least one / two
    neighbours among those (v, and the root of a cycle search).
    """
    reach = 0
    frontier = adj[v] & ~blocked
    while frontier:
        reach |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            a = adj[low.bit_length() - 1]
            twos |= ones & a
            ones |= a
            nxt |= a
        frontier = nxt & ~blocked & ~reach
    return reach, twos


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
    n = g.n
    adj = g.adjacency_bits
    budget = _Budget(limits)
    best_len = 0
    best_seq = [0]
    # One frame per vertex of seq, plus a bottom frame whose candidates are
    # the start vertices: todo holds the bitmask of neighbours still to try,
    # taken lowest first, masks the vertices visited up to that frame, and
    # forced the (reach, twos) of the frame's vertex when it has exactly one
    # candidate, else None.
    seq: list[int] = []
    todo = [(1 << n) - 1]
    masks = [0]
    forced: list[tuple[int, int] | None] = [None]
    try:
        while todo:
            cand = todo[-1]
            if not cand:
                todo.pop()
                masks.pop()
                forced.pop()
                if seq:
                    seq.pop()
                continue
            low = cand & -cand
            todo[-1] = cand ^ low
            budget.spend()
            v = low.bit_length() - 1
            visited = masks[-1] | low
            seq.append(v)
            length = len(seq) - 1
            # strict, so the first optimal sequence found, the pinned
            # witness, is the one kept
            if length > best_len:
                best_len = length
                best_seq = seq.copy()
            if best_len == n - 1:
                # nothing is longer, so the bound below would prune too
                seq.pop()
                continue
            if forced[-1] is None:
                reach, twos = _reach(adj, v, visited, adj[v], 0)
            else:
                # v is its parent's only way on: v's reach is the parent's
                # less v, and among those only v lost a neighbour
                reach, twos = forced[-1]
                reach ^= low
            inner = reach & twos
            # a path from v runs through vertices with two neighbours in
            # reach + v and ends in at most one vertex with fewer
            if length + inner.bit_count() + (inner != reach) <= best_len:
                seq.pop()
                continue
            cand = adj[v] & ~visited
            todo.append(cand)
            masks.append(visited)
            forced.append(None if cand & (cand - 1) else (reach, twos))
    except _BudgetHit as hit:
        raise SolveBudgetError(
            f"longest_path: {hit}; best non-optimal path has length {best_len}",
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
            # alone, and every mask blocks the vertices below the root, so
            # each cycle is found from its smallest vertex only.
            seq: list[int] = []
            todo = [rootbit]
            masks = [rootbit - 1]
            forced: list[tuple[int, int] | None] = [None]
            while todo:
                cand = todo[-1]
                if not cand:
                    todo.pop()
                    masks.pop()
                    forced.pop()
                    if seq:
                        seq.pop()
                    continue
                low = cand & -cand
                todo[-1] = cand ^ low
                budget.spend()
                v = low.bit_length() - 1
                visited = masks[-1] | low
                seq.append(v)
                count = len(seq)
                if count == 2:
                    # each cycle is searched in one direction only: it
                    # leaves the root for the smaller of its two root
                    # neighbours and closes through the larger
                    closers = root_adj & ~((low << 1) - 1)
                elif count > best_len and closers & low:
                    best_len = count
                    best_seq = seq.copy()
                if forced[-1] is not None:
                    reach, twos = forced[-1]
                    reach ^= low
                elif v == root:
                    reach, twos = _reach(adj, v, visited, root_adj, 0)
                else:
                    reach, twos = _reach(adj, v, visited, adj[v] | closers, adj[v] & closers)
                # the way back from v to the root ends in a closer and runs
                # through vertices with two neighbours in reach + v + root
                if not closers & reach or count + (reach & twos).bit_count() <= best_len:
                    seq.pop()
                    continue
                cand = adj[v] & ~visited
                todo.append(cand)
                masks.append(visited)
                forced.append(None if cand & (cand - 1) else (reach, twos))
    except _BudgetHit as hit:
        incumbent = validate_cycle(g, best_seq) if best_seq is not None else None
        raise SolveBudgetError(
            f"longest_cycle: {hit}; best non-optimal cycle has length {best_len}",
            incumbent=incumbent,
        ) from None
    if best_seq is None:
        raise InternalInvariantError("longest_cycle: no cycle found in a 2-connected graph")
    return validate_cycle(g, best_seq)


def longest_path_oracle(g: Graph, max_vertices: int = ORACLE_MAX_VERTICES) -> int:
    """Exact longest-path length by subset DP over (visited set, endpoint).

    Intentionally disjoint from the branch-and-bound code path; used to
    cross-validate it on small instances.
    """
    if g.n > max_vertices:
        raise PreconditionError(f"oracle capped at {max_vertices} vertices, got n={g.n}")
    if g.n == 0:
        raise PreconditionError("oracle needs at least one vertex")
    n = g.n
    adj = g.adjacency_bits
    endpoints = [0] * (1 << n)
    for v in range(n):
        endpoints[1 << v] = 1 << v
    best = 0
    for mask in range(1, 1 << n):
        eps = endpoints[mask]
        if not eps:
            continue
        size = mask.bit_count()
        if size - 1 > best:
            best = size - 1
        e = eps
        while e:
            vbit = e & -e
            e ^= vbit
            ext = adj[vbit.bit_length() - 1] & ~mask
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                endpoints[mask | wbit] |= wbit
    return best


def longest_cycle_oracle(g: Graph, max_vertices: int = ORACLE_MAX_VERTICES) -> int:
    """Exact circumference by subset DP rooted at each subset's minimum
    vertex; returns 0 when the graph has no cycle."""
    if g.n > max_vertices:
        raise PreconditionError(f"oracle capped at {max_vertices} vertices, got n={g.n}")
    if g.n == 0:
        raise PreconditionError("oracle needs at least one vertex")
    n = g.n
    adj = g.adjacency_bits
    endpoints = [0] * (1 << n)
    for v in range(n):
        endpoints[1 << v] = 1 << v
    best = 0
    for mask in range(1, 1 << n):
        eps = endpoints[mask]
        if not eps:
            continue
        rootbit = mask & -mask
        root = rootbit.bit_length() - 1
        size = mask.bit_count()
        if size >= 3 and size > best and eps & adj[root] & ~rootbit:
            best = size
        above_root = ~((rootbit << 1) - 1)
        e = eps
        while e:
            vbit = e & -e
            e ^= vbit
            ext = adj[vbit.bit_length() - 1] & ~mask & above_root
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                endpoints[mask | wbit] |= wbit
    return best


def all_longest_paths(g: Graph, max_vertices: int = 10) -> list[Path]:
    """Every longest path, orientation-normalized, in lexicographic order.
    Exhaustive, so capped to small graphs."""
    if g.n > max_vertices:
        raise PreconditionError(f"exhaustive path listing capped at {max_vertices} vertices")
    if g.n < 2:
        raise PreconditionError("needs at least two vertices")
    target = longest_path_oracle(g, max_vertices=max_vertices)
    adj = g.adjacency_bits
    found: list[Path] = []
    # Frames as in longest_path, without an incumbent: every sequence of
    # the target length is kept in the direction that ends above its start,
    # and the depth-first order is already lexicographic.
    seq: list[int] = []
    todo = [(1 << g.n) - 1]
    masks = [0]
    while todo:
        cand = todo[-1]
        if not cand:
            todo.pop()
            masks.pop()
            if seq:
                seq.pop()
            continue
        low = cand & -cand
        todo[-1] = cand ^ low
        v = low.bit_length() - 1
        visited = masks[-1] | low
        seq.append(v)
        length = len(seq) - 1
        if length == target:
            if v > seq[0]:
                found.append(validate_path(g, seq))
            seq.pop()
            continue
        reach, twos = _reach(adj, v, visited, adj[v], 0)
        inner = reach & twos
        if length + inner.bit_count() + (inner != reach) < target:
            seq.pop()
            continue
        todo.append(adj[v] & ~visited)
        masks.append(visited)
    return found
