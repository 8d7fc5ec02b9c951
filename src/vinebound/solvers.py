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
    two_connectivity_failure,
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


def _reachable_from(adj: tuple[int, ...], v: int, blocked: int) -> int:
    """Bitmask of vertices reachable from v without entering blocked ones."""
    seen = 0
    frontier = adj[v] & ~blocked
    while frontier:
        seen |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~blocked & ~seen
    return seen


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
    adj = g.adjacency_bits
    budget = _Budget(limits)
    best_len = 0
    best_seq = [0]
    # One frame per vertex of seq, plus a bottom frame whose candidates are
    # the start vertices: todo holds the bitmask of neighbours still to try,
    # taken lowest first, and masks the vertices visited up to that frame.
    seq: list[int] = []
    todo = [(1 << g.n) - 1]
    masks = [0]
    try:
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
            if length + _reachable_from(adj, v, visited).bit_count() <= best_len:
                seq.pop()
                continue
            todo.append(adj[v] & ~visited)
            masks.append(visited)
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
    failure = two_connectivity_failure(g)
    if failure is not None:
        raise PreconditionError(f"longest_cycle requires a 2-connected graph: {failure}")
    adj = g.adjacency_bits
    budget = _Budget(limits)
    best_len = 0
    best_seq: list[int] | None = None
    try:
        for root in range(g.n - 2):
            rootbit = 1 << root
            root_adj = adj[root]
            # Frames as in longest_path; the bottom frame holds the root
            # alone, and every mask blocks the vertices below the root, so
            # each cycle is found from its smallest vertex only.
            seq: list[int] = []
            todo = [rootbit]
            masks = [rootbit - 1]
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
                budget.spend()
                v = low.bit_length() - 1
                visited = masks[-1] | low
                seq.append(v)
                count = len(seq)
                if count > best_len and count >= 3 and adj[v] & rootbit:
                    best_len = count
                    best_seq = seq.copy()
                reach = _reachable_from(adj, v, visited)
                if count + reach.bit_count() <= best_len or not root_adj & reach:
                    seq.pop()
                    continue
                todo.append(adj[v] & ~visited)
                masks.append(visited)
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
    """Every longest path, orientation-normalized and deduplicated, in
    lexicographic order. Exhaustive, so capped to small graphs."""
    if g.n > max_vertices:
        raise PreconditionError(f"exhaustive path listing capped at {max_vertices} vertices")
    if g.n < 2:
        raise PreconditionError("needs at least two vertices")
    target = longest_path_oracle(g, max_vertices=max_vertices)
    adj = g.adjacency_bits
    nbrs = g.neighbors
    found: set[tuple[int, ...]] = set()
    stack: list[int] = []

    def walk(v: int, visited: int, length: int) -> None:
        if length == target:
            seq = tuple(stack)
            found.add(min(seq, seq[::-1]))
            return
        if length + _reachable_from(adj, v, visited).bit_count() < target:
            return
        for w in nbrs[v]:
            if not visited >> w & 1:
                stack.append(w)
                walk(w, visited | 1 << w, length + 1)
                stack.pop()

    for s in range(g.n):
        stack[:] = [s]
        walk(s, 1 << s, 0)
    return [validate_path(g, seq) for seq in sorted(found)]
