"""Independent brute-force oracles for small graphs.

These deliberately avoid the package's search and DP code: plain
exhaustive enumeration, used to compute and freeze expected test values,
and the canonical rotation of a cycle that the tie-break contract names.
The set-based path and cycle certifiers after the enumerations are the
reference the package's bitmask certifier is checked against; they read
adjacency from the graph's raw edge set. The piece-stitching cycle
builders, which cut each A and B segment from the vine's own attachment
positions, and the vine check with its own walk of the interleaving chain
after them are the references for the ladder walk and for the
once-per-ear vine check. The next function is the per-vine verification
computed from the vine alone: its own segment lengths, the 1-based sums
of the inequalities, the bound formula and the stitched ladders. The next
two are the per-subset oracles that the bit-parallel ones replaced, the
next two are the reach step one vertex at a time and the cycle search as
it was before its dominance table, and the last is the chord sampler that
listed every non-edge.

What the references take from the package: its types (Graph, Path, Cycle,
Vine and the verdict records) and errors, and the budget accounting of
solvers (_Budget, _BudgetHit and the limits), which the reference cycle
search mirrors. No arithmetic of bounds is imported: not the step API
(decompose, build_q0 / build_qj / build_qstar) and not
circumference_bound_squared. Nor is any other private name, or either
package certifier: test_properties checks the imports.
"""

from __future__ import annotations

import math
import random

from vinebound import (
    Cycle,
    CycleValidationError,
    Graph,
    Inequality1Verdict,
    Inequality2Verdict,
    Path,
    PathValidationError,
    PreconditionError,
    Vine,
    VineVerdict,
)
from vinebound.bounds import VineVerification
from vinebound.errors import InternalInvariantError, SolveBudgetError
from vinebound.solvers import (
    DEFAULT_LIMITS,
    ORACLE_MAX_VERTICES,
    SolveLimits,
    _Budget,
    _BudgetHit,
)


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


def brute_all_longest_paths(g: Graph) -> list[tuple[int, ...]]:
    """Every optimal path in the direction that compares smaller, sorted."""
    best = max(len(seq) for seq in iter_simple_paths(g))
    return sorted({min(seq, seq[::-1]) for seq in iter_simple_paths(g) if len(seq) == best})


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


def canonical_cycle(vs) -> tuple[int, ...]:
    """Canonical rotation/reflection: start at the smallest vertex, then
    pick the lexicographically smaller direction."""
    seq = list(vs)
    rotations = []
    for direction in (seq, seq[::-1]):
        i = direction.index(min(direction))
        rotations.append(tuple(direction[i:] + direction[:i]))
    return min(rotations)


def _adjacent(g: Graph, u: int, v: int) -> bool:
    """u and v share an edge, looked up in the graph's raw edge set."""
    return (min(u, v), max(u, v)) in g.edges


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
        if not _adjacent(g, u, v):
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
        if not _adjacent(g, u, v):
            raise CycleValidationError(f"consecutive vertices {u} and {v} are not adjacent")
    if not _adjacent(g, vs[-1], vs[0]):
        raise CycleValidationError(f"missing closing edge {vs[-1]}-{vs[0]}")
    return Cycle(vs)


def _stitch_cycle(pieces) -> tuple[int, ...]:
    """Join edge-disjoint path pieces whose endpoints pair up (each junction
    touches exactly two piece ends) into one closed walk."""
    live = [tuple(piece) for piece in pieces if len(piece) >= 2]
    assert len(live) >= 2, "cycle assembly needs at least two non-empty pieces"
    ends: dict[int, list[int]] = {}
    for i, piece in enumerate(live):
        ends.setdefault(piece[0], []).append(i)
        ends.setdefault(piece[-1], []).append(i)
    assert all(len(touching) == 2 for touching in ends.values()), ends
    used = [False] * len(live)
    walk = list(live[0])
    used[0] = True
    for _ in range(len(live) - 1):
        cur = walk[-1]
        candidates = [i for i in ends[cur] if not used[i]]
        assert len(candidates) == 1, f"cycle assembly stuck at junction {cur}"
        i = candidates[0]
        piece = live[i]
        walk.extend(piece[1:] if piece[0] == cur else piece[-2::-1])
        used[i] = True
    assert walk[-1] == walk[0], "cycle assembly did not close"
    return tuple(walk[:-1])


def _reference_segments(vine: Vine) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The vertex runs of A_1..A_m and B_1..B_{m-1}, cut straight from the
    ears' attachment positions on the base path: A_i = y_{i-1}..x_{i+1},
    reading y_0 as x_1 and x_{m+1} as y_m, and B_i = x_{i+1}..y_i."""
    base = vine.base.vertices
    xs = [base.index(ear.x_attach) for ear in vine.ears]
    ys = [base.index(ear.y_attach) for ear in vine.ears]
    a_runs = [base[y : x + 1] for y, x in zip([xs[0], *ys], [*xs[1:], ys[-1]])]
    b_runs = [base[x : y + 1] for x, y in zip(xs[1:], ys)]
    return a_runs, b_runs


def reference_build_q0(vine: Vine) -> tuple[int, ...]:
    """q0 stitched from its pieces: every A segment and every ear."""
    a_runs, _ = _reference_segments(vine)
    return _stitch_cycle(a_runs + [ear.vertices for ear in vine.ears])


def reference_build_qj(vine: Vine, j: int) -> tuple[int, ...]:
    """q_j stitched from A_i and ear i for i in [j+1, m-j], B_j and B_{m-j}."""
    a_runs, b_runs = _reference_segments(vine)
    m = vine.m
    pieces = a_runs[j : m - j] + [ear.vertices for ear in vine.ears[j : m - j]]
    return _stitch_cycle(pieces + [b_runs[j - 1], b_runs[m - j - 1]])


def reference_build_qstar(vine: Vine) -> tuple[int, ...]:
    """qstar stitched from B_{m/2}, A_{m/2}, ear m/2 and B_{m/2-1} (none for m = 2)."""
    a_runs, b_runs = _reference_segments(vine)
    h = vine.m // 2
    pieces = [b_runs[h - 1], a_runs[h - 1], vine.ears[h - 1].vertices]
    if h >= 2:
        pieces.append(b_runs[h - 2])
    return _stitch_cycle(pieces)


def _reference_chain_failure(xs: list[int], ys: list[int], last: int) -> str | None:
    """The first broken link of the interleaving chain, found by one walk
    along x_1 < x_2 < y_1 <= x_3 < y_2 <= ... <= x_m < y_{m-1} < y_m, after
    each ear's orientation and the chain's two ends."""
    m = len(xs)
    for i in range(1, m + 1):
        if xs[i - 1] >= ys[i - 1]:
            return f"ear {i} attachments are not oriented along the path"
    if xs[0] != 0:
        return f"x_1 must be the path's first vertex, ear 1 starts at position {xs[0]}"
    if ys[-1] != last:
        return f"y_{m} must be the path's last vertex, ear {m} ends at position {ys[-1]}"
    if m == 1:
        return None
    # (name, position) in chain order; y_i <= x_{i+2} is the only weak link
    walk = [("x_1", xs[0]), ("x_2", xs[1])]
    for i in range(1, m - 1):
        walk += [(f"y_{i}", ys[i - 1]), (f"x_{i + 2}", xs[i + 1])]
    walk += [(f"y_{m - 1}", ys[m - 2]), (f"y_{m}", ys[m - 1])]
    for (left, p), (right, q) in zip(walk, walk[1:]):
        weak = left[0] == "y" and right[0] == "x"
        if not (p <= q if weak else p < q):
            return f"need {left} {'<=' if weak else '<'} {right}, got positions {p}, {q}"
    return None


def reference_verify_vine(g: Graph, vine: Vine) -> VineVerdict:
    """verify_vine's verdict rebuilt from the reference certifier, its own
    position table, a pairwise overlap scan and its own walk of the chain:
    the first failing clause, in the order base, empty, then per ear path,
    attachment, interior and base edge, then overlap and chain."""
    base = vine.base.vertices
    try:
        reference_validate_path(g, base)
    except PathValidationError as exc:
        return VineVerdict(False, "base", f"base path invalid: {exc}")
    if not vine.ears:
        return VineVerdict(False, "empty", "a vine needs at least one ear")
    at = {v: i for i, v in enumerate(base)}
    for i, ear in enumerate(vine.ears, start=1):
        vs = ear.vertices
        try:
            reference_validate_path(g, vs)
        except PathValidationError as exc:
            return VineVerdict(False, "ear", f"ear {i} is not a path of the graph: {exc}")
        if vs[0] not in at or vs[-1] not in at:
            return VineVerdict(False, "attachment", f"ear {i} attachment off the base path")
        inside = [v for v in vs[1:-1] if v in at]
        if inside:
            return VineVerdict(
                False, "interior", f"ear {i} interior vertex {inside[0]} lies on the base path"
            )
        if len(vs) == 2 and abs(at[vs[0]] - at[vs[1]]) == 1:
            return VineVerdict(False, "base-edge", f"ear {i} is an edge of the base path itself")
    interiors = [set(ear.vertices[1:-1]) for ear in vine.ears]
    for j, ear in enumerate(vine.ears, start=1):
        for v in ear.vertices[1:-1]:
            earlier = [i for i in range(1, j) if v in interiors[i - 1]]
            if earlier:
                i = earlier[0]
                return VineVerdict(False, "overlap", f"ears {i} and {j} share interior vertex {v}")
    xs = [at[ear.vertices[0]] for ear in vine.ears]
    ys = [at[ear.vertices[-1]] for ear in vine.ears]
    broken = _reference_chain_failure(xs, ys, len(base) - 1)
    if broken is not None:
        return VineVerdict(False, "chain", broken)
    return VineVerdict(True)


def reference_verify_vine_against(g: Graph, l: int, c: int, vine: Vine) -> VineVerification:
    """verify_vine_against computed from the vine alone: the segment lengths
    from _reference_segments, the inequalities and the bound written out
    from their 1-based formulas in the bounds module docstring, and each
    ladder stitched from its pieces and certified by reference_validate_cycle."""
    m = vine.m
    slack = c - m - 2
    if slack < 0:
        # c >= m + 2 fails: everything downstream is meaningless
        return VineVerification(
            m, slack, float("nan"), False, False, None, (), 0, (), None,
            (f"c >= m+2 violated: c={c} m={m}",),
        )
    violations: list[str] = []
    bound_sq = 4 * l + (slack + 1) ** 2 - (1 if m % 2 == 0 else 0)
    if c * c < bound_sq:
        violations.append(f"bound violated: c^2={c * c} < {bound_sq} (l={l} slack={slack} m={m})")
    a_runs, b_runs = _reference_segments(vine)
    # 1-based a_1..a_m and b_1..b_{m-1}
    a = [0] + [len(run) - 1 for run in a_runs]
    b = [0] + [len(run) - 1 for run in b_runs]
    ineq1 = None
    ineq2 = []
    if m >= 2:
        lhs, rhs = a[1] + a[m], slack + 2 - sum(a[i] for i in range(2, m))
        ineq1 = Inequality1Verdict(lhs, rhs, lhs <= rhs)
        if not ineq1.ok:
            violations.append(f"inequality (1) violated: {lhs} > {rhs}")
        for j in range(1, (m - 1) // 2 + 1):
            lhs, weak = b[j] + b[m - j], slack + 2 * (j + 1)
            rhs = weak - sum(a[i] for i in range(j + 1, m - j + 1))
            ineq2.append(Inequality2Verdict(j, lhs, rhs, weak, lhs <= rhs, lhs <= weak))
            if lhs > rhs:
                violations.append(f"inequality (2) violated at j={j}: {lhs} > {rhs}")
    walks = {"q0 cycle" if m > 1 else "base-plus-ear cycle": reference_build_q0(vine)}
    walks |= {f"q{j} cycle": reference_build_qj(vine, j) for j in range(1, (m - 1) // 2 + 1)}
    if m % 2 == 0:
        walks["qstar cycle"] = reference_build_qstar(vine)
    lengths = {label: reference_validate_cycle(g, walk).length for label, walk in walks.items()}
    violations += [
        f"{label} longer than the circumference: {length} > {c}"
        for label, length in lengths.items() if length > c
    ]
    q0_len, *qj_lens = (lengths[label] for label in walks if label != "qstar cycle")
    return VineVerification(
        m, slack, math.sqrt(bound_sq), c * c >= bound_sq, c * c == bound_sq, ineq1, tuple(ineq2),
        q0_len, tuple(qj_lens), lengths.get("qstar cycle"), tuple(violations),
    )


def reference_longest_path_oracle(g: Graph, max_vertices: int = ORACLE_MAX_VERTICES) -> int:
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


def reference_longest_cycle_oracle(g: Graph, max_vertices: int = ORACLE_MAX_VERTICES) -> int:
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


def reference_reach(adj: tuple[int, ...], v: int, blocked: int, ones: int, twos: int) -> tuple[int, int]:
    """The solvers' reach step one vertex at a time: the vertices reachable
    from v without entering blocked ones, level by level, and the mask of
    vertices with two neighbours in H (the reach plus the vertices the
    caller seeded ones / twos with)."""
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


def reference_longest_cycle(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> Cycle:
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
                    reach, twos = reference_reach(adj, v, visited, root_adj, 0)
                else:
                    reach, twos = reference_reach(adj, v, visited, adj[v] | closers, adj[v] & closers)
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
        incumbent = reference_validate_cycle(g, best_seq) if best_seq is not None else None
        raise SolveBudgetError(
            f"longest_cycle: {hit}; best non-optimal cycle has length {best_len}",
            incumbent=incumbent,
        ) from None
    if best_seq is None:
        raise InternalInvariantError("longest_cycle: no cycle found in a 2-connected graph")
    return reference_validate_cycle(g, best_seq)


def reference_random_two_connected(n: int, extra_ears: int, seed: int) -> tuple[Graph, int]:
    """random_two_connected as it was when it sampled its chords from the
    sorted list of all non-edges, about n^2/2 pairs."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        edges.add((min(u, v), max(u, v)))
    candidates = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    )
    placed = min(extra_ears, len(candidates))
    edges.update(rng.sample(candidates, placed))
    return Graph(n, edges), placed
