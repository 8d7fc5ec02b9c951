"""Ears and vines on a reference path.

An ear is a path that meets the reference path P exactly at its two
endpoints. A vine L_1..L_m is an ordered family of internally disjoint
ears whose attachment points interleave along P:

    x_1 < x_2 < y_1 <= x_3 < y_2 <= x_4 < ... <= x_m < y_{m-1} < y_m

with x_1 at P's first vertex and y_m at its last (for m = 1 the single
ear attaches exactly at P's endpoints). Positions refer to P's order;
x_i/y_i are ear i's first/second attachment in that order.

Every 2-connected graph admits a vine on every path; the vine search
relies on that and treats exhaustion as an internal error.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import (
    EarCapError,
    InternalInvariantError,
    PathValidationError,
    PreconditionError,
    VineSearchCapError,
)
from .graphs import Graph, Path, require_two_connected, validate_path

DEFAULT_EAR_CAP = 100_000
DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class Ear:
    """Attachment-to-attachment vertex sequence, oriented so the first
    attachment precedes the second on the reference path."""

    vertices: tuple[int, ...]

    def __init__(self, vertices):
        vs = tuple(vertices)
        if len(vs) < 2:
            raise ValueError("an ear needs at least two vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("ear vertices must be distinct")
        object.__setattr__(self, "vertices", vs)

    @property
    def x_attach(self) -> int:
        return self.vertices[0]

    @property
    def y_attach(self) -> int:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class Vine:
    """Ordered ear family on a base path. verify_vine names the first vine
    condition it breaks; the bound checks reject one that breaks any."""

    base: Path
    ears: tuple[Ear, ...]

    def __init__(self, base: Path, ears):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "ears", tuple(ears))

    @property
    def m(self) -> int:
        return len(self.ears)


@dataclass(frozen=True)
class VineVerdict:
    """Pass/fail outcome of verify_vine; on failure names the first
    violated clause, and the detail names the offending ears (1-based)."""

    ok: bool
    clause: str | None = None
    detail: str = ""


class VineEnumeration(NamedTuple):
    vines: tuple[Vine, ...]
    truncated: bool


def enumerate_ears(g: Graph, p: Path) -> list[Ear]:
    """All ears on p, ordered by (first attachment position, second
    attachment position, interior sequence); at most DEFAULT_EAR_CAP.

    Single edges of p itself are excluded: the strict inequalities in the
    interleaving chain make them unusable in any vine, so dropping them
    here only shrinks the search space.
    """
    validate_path(g, p.vertices)
    pos = p.positions
    nbrs = g.neighbors
    ears: list[Ear] = []

    def record(vertices: tuple[int, ...]) -> None:
        if len(ears) >= DEFAULT_EAR_CAP:
            raise EarCapError(DEFAULT_EAR_CAP, len(ears))
        ears.append(Ear(vertices))

    for u in p.vertices:
        for w in nbrs[u]:
            if w in pos:
                # chord: skip edges of p (position gap 1) and emit once (u before w)
                if pos[w] > pos[u] + 1:
                    record((u, w))
                continue
            # walk through off-path vertices, one neighbour iterator per
            # off-path vertex of the trail
            trail = [u, w]
            visited = {w}
            todo = [iter(nbrs[w])]
            while todo:
                for t in todo[-1]:
                    if t in pos:
                        if pos[t] > pos[u]:
                            record(tuple(trail) + (t,))
                    elif t not in visited:
                        visited.add(t)
                        trail.append(t)
                        todo.append(iter(nbrs[t]))
                        break
                else:
                    todo.pop()
                    visited.remove(trail.pop())
    ears.sort(key=lambda e: (pos[e.x_attach], pos[e.y_attach], e.interior))
    return ears


def _chain_failure(xs: list[int], ys: list[int], last_pos: int) -> str | None:
    """First broken link of the interleaving chain, or None if it holds.

    xs and ys are the ears' first and second attachment positions.
    """
    m = len(xs)
    for i in range(m):
        if xs[i] >= ys[i]:
            return f"ear {i + 1} attachments are not oriented along the path"
    if xs[0] != 0:
        return f"x_1 must be the path's first vertex, ear 1 starts at position {xs[0]}"
    if ys[m - 1] != last_pos:
        return f"y_{m} must be the path's last vertex, ear {m} ends at position {ys[m - 1]}"
    if m == 1:
        return None
    if not xs[0] < xs[1]:
        return f"need x_1 < x_2, got positions {xs[0]}, {xs[1]}"
    if not xs[1] < ys[0]:
        return f"need x_2 < y_1, got positions {xs[1]}, {ys[0]}"
    for k in range(1, m - 1):
        # 1-based: y_k <= x_{k+2} < y_{k+1}
        if not ys[k - 1] <= xs[k + 1]:
            return f"need y_{k} <= x_{k + 2}, got positions {ys[k - 1]}, {xs[k + 1]}"
        if not xs[k + 1] < ys[k]:
            return f"need x_{k + 2} < y_{k + 1}, got positions {xs[k + 1]}, {ys[k]}"
    if not ys[m - 2] < ys[m - 1]:
        return f"need y_{m - 1} < y_{m}, got positions {ys[m - 2]}, {ys[m - 1]}"
    return None


def verify_vine(g: Graph, vine: Vine) -> VineVerdict:
    """Check every vine condition; report the first violated clause."""
    try:
        validate_path(g, vine.base.vertices)
    except PathValidationError as exc:
        return VineVerdict(False, "base", f"base path invalid: {exc}")
    if vine.m == 0:
        return VineVerdict(False, "empty", "a vine needs at least one ear")
    pos = vine.base.positions
    for i, ear in enumerate(vine.ears, start=1):
        try:
            validate_path(g, ear.vertices)
        except PathValidationError as exc:
            return VineVerdict(False, "ear", f"ear {i} is not a path of the graph: {exc}")
        if ear.x_attach not in pos or ear.y_attach not in pos:
            return VineVerdict(False, "attachment", f"ear {i} attachment off the base path")
        for v in ear.interior:
            if v in pos:
                detail = f"ear {i} interior vertex {v} lies on the base path"
                return VineVerdict(False, "interior", detail)
        if ear.length == 1 and abs(pos[ear.x_attach] - pos[ear.y_attach]) == 1:
            detail = f"ear {i} is an edge of the base path itself"
            return VineVerdict(False, "base-edge", detail)
    first: dict[int, int] = {}  # interior vertex -> the first ear holding it
    for i, ear in enumerate(vine.ears, start=1):
        for v in ear.interior:
            if v in first:
                detail = f"ears {first[v]} and {i} share interior vertex {v}"
                return VineVerdict(False, "overlap", detail)
            first[v] = i
    xs = [pos[e.x_attach] for e in vine.ears]
    ys = [pos[e.y_attach] for e in vine.ears]
    broken = _chain_failure(xs, ys, len(vine.base.vertices) - 1)
    if broken is not None:
        return VineVerdict(False, "chain", broken)
    return VineVerdict(True)


def _iter_vines(g: Graph, p: Path) -> Iterator[Vine]:
    """Yield the vines on p by ear count, then lexicographically by ear index
    (enumerate_ears order), at least one; at most DEFAULT_STATE_CAP partial chains."""
    require_two_connected(g)
    ears = enumerate_ears(g, p)
    pos = p.positions
    last_pos = len(p.vertices) - 1
    xs = [pos[e.x_attach] for e in ears]
    ys = [pos[e.y_attach] for e in ears]
    interiors = [sum(1 << v for v in e.interior) for e in ears]
    # state: (ear index tuple, interiors as a bitmask, y position of previous ear, y position of last ear)
    level = [((i,), interiors[i], -1, ys[i]) for i in range(len(ears)) if xs[i] == 0]
    states = len(level)
    if states > DEFAULT_STATE_CAP:
        raise VineSearchCapError(DEFAULT_STATE_CAP)
    found = False
    while level:
        nxt: list[tuple[tuple[int, ...], int, int, int]] = []
        for chain, used, y_prev, y_last in level:
            if y_last == last_pos:
                found = True
                yield Vine(p, tuple(ears[i] for i in chain))
                continue  # complete states cannot extend (next y would need to pass the end)
            lo = 1 if len(chain) == 1 else y_prev
            start = bisect_left(xs, lo)
            for j in range(start, len(ears)):
                if xs[j] >= y_last:
                    break
                if ys[j] <= y_last:
                    continue
                if used & interiors[j]:
                    continue
                nxt.append((chain + (j,), used | interiors[j], y_last, ys[j]))
                states += 1
                if states > DEFAULT_STATE_CAP:
                    raise VineSearchCapError(DEFAULT_STATE_CAP)
        level = nxt
    if not found:
        raise InternalInvariantError(
            "vine search exhausted without finding a vine; existence is guaranteed "
            "for any path in a 2-connected graph, so this is a bug"
        )


def find_min_vine(g: Graph, p: Path) -> Vine:
    """A vine with the minimum possible number of ears; deterministic
    (breadth-first, so the lexicographically first minimum-size vine)."""
    return next(_iter_vines(g, p))


def enumerate_vines(g: Graph, p: Path, max_count: int) -> VineEnumeration:
    """Up to max_count vines on p in deterministic (size, lexicographic)
    order, with a flag saying whether the enumeration was cut short."""
    if max_count < 1:
        raise PreconditionError("max_count must be positive")
    # one vine past the cap, to tell a full enumeration from a cut one; no
    # search yields more than DEFAULT_STATE_CAP; islice rejects a stop of 2^63 up
    vines = tuple(islice(_iter_vines(g, p), min(max_count, DEFAULT_STATE_CAP) + 1))
    return VineEnumeration(vines[:max_count], len(vines) > max_count)
