"""Independent brute-force oracles for small graphs.

These deliberately avoid the package's search and DP code: plain
exhaustive enumeration, used to compute and freeze expected test values.
The set-based path and cycle certifiers at the end are the reference the
package's bitmask certifier is checked against.
"""

from __future__ import annotations

from vinebound import Cycle, CycleValidationError, Graph, Path, PathValidationError


def brute_connected(g: Graph, removed: int | None = None) -> bool:
    keep = [v for v in range(g.n) if v != removed]
    if not keep:
        return True
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        v = stack.pop()
        for w in g.neighbors[v]:
            if w != removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(keep)


def brute_two_connected(g: Graph) -> bool:
    """Definition check: n >= 3, connected, and no single removal disconnects."""
    if g.n < 3:
        return False
    if not brute_connected(g):
        return False
    return all(brute_connected(g, removed=v) for v in range(g.n))


def iter_simple_paths(g: Graph):
    """Every directed simple path with at least one edge."""
    trail: list[int] = []
    results: list[tuple[int, ...]] = []

    def extend(v: int, seen: set[int]) -> None:
        for w in g.neighbors[v]:
            if w not in seen:
                trail.append(w)
                seen.add(w)
                results.append(tuple(trail))
                extend(w, seen)
                seen.remove(w)
                trail.pop()

    for s in range(g.n):
        trail[:] = [s]
        extend(s, {s})
    return results


def brute_longest_path_length(g: Graph) -> int:
    best = 0
    for seq in iter_simple_paths(g):
        best = max(best, len(seq) - 1)
    return best


def brute_longest_path_witness(g: Graph) -> tuple[int, ...]:
    """The tie-break contract, recomputed independently: the smallest
    directed sequence among all optimal paths and their reversals."""
    best_len = brute_longest_path_length(g)
    candidates = [seq for seq in iter_simple_paths(g) if len(seq) - 1 == best_len]
    return min(candidates)


def iter_simple_cycles(g: Graph):
    """Every cycle once, as the canonical (min-rooted, lex-min direction)
    vertex tuple."""
    results: set[tuple[int, ...]] = set()
    trail: list[int] = []

    def extend(root: int, v: int, seen: set[int]) -> None:
        for w in g.neighbors[v]:
            if w == root and len(trail) >= 3:
                seq = tuple(trail)
                results.add(min(seq, (seq[0],) + seq[:0:-1]))
            elif w > root and w not in seen:
                trail.append(w)
                seen.add(w)
                extend(root, w, seen)
                seen.remove(w)
                trail.pop()

    for root in range(g.n):
        trail[:] = [root]
        extend(root, root, {root})
    return sorted(results)


def brute_longest_cycle_length(g: Graph) -> int:
    best = 0
    for seq in iter_simple_cycles(g):
        best = max(best, len(seq))
    return best


def brute_longest_cycle_witness(g: Graph) -> tuple[int, ...]:
    """Canonical form of the optimal cycle per the tie-break contract."""
    best_len = brute_longest_cycle_length(g)
    return min(seq for seq in iter_simple_cycles(g) if len(seq) == best_len)


def reference_validate_path(g: Graph, vs) -> Path:
    """The set-based path certifier the bitmask walk replaced, kept as the
    reference it must agree with: same result, or same error and message."""
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


def reference_validate_cycle(g: Graph, vs) -> Cycle:
    """The set-based cycle certifier the bitmask walk replaced."""
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
