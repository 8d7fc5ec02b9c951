"""Segment decomposition of a vined path, the cycle constructions built
from it, and the sharp circumference bound they certify.

For a vine L_1..L_m (m >= 1) on a base path, the attachment points tile
the path into segments read left to right as

    A_1 B_1 A_2 B_2 ... B_{m-1} A_m

where B_i = x_{i+1}..y_i is the overlap of ear i's span with ear i+1's
span (at least one edge each), and A_i = y_{i-1}..x_{i+1} bridges between
overlaps, reading y_0 as x_1 and x_{m+1} as y_m (A_1 and A_m have at least
one edge each, the middle A_i may be empty). A single ear has one A
segment, the whole path, and no B. Writing a_i, b_i for the segment
lengths, three cycle families exist by construction:

    q0     = all ears plus all A segments,
    q_j    = ears/A segments for i in [j+1, m-j] plus B_j and B_{m-j},
    qstar  = B_{m/2} + B_{m/2-1} + A_{m/2} + ear m/2   (even m; B_0 is
             taken to be the empty segment, which covers m = 2).

All three are ladders: the ladder over ears s..t runs forward along ears
s+1, s+3, ... and back along the others down to s, joined by base-path
runs, so its length is sum(|L_i| + a_i, s <= i <= t) + b_{s-1} + b_t,
reading b_0 = b_m = 0. q0, q_j and qstar are the ladders over ears 1..m,
j+1..m-j and m/2 alone. For a single ear q0 is the base path plus the
ear and shows c >= l + 1.

Each is a simple cycle, so its length is at most the circumference c.
With slack y = c - m - 2 (non-negative because q0 shows c >= m + 2) the
cycle lengths force the segment inequalities, for m >= 2,

    (1)  a_1 + a_m     <= y + 2      - sum(a_i, 2 <= i <= m-1)
    (2)  b_j + b_{m-j} <= y + 2(j+1) - sum(a_i, j+1 <= i <= m-j)

and summing them yields the sharp bound on the circumference:

    c >= sqrt(4l + (y+1)^2)       for odd m,
    c >= sqrt(4l + (y+1)^2 - 1)   for even m,

which implies the classical Dirac bounds c > sqrt(2l) and c >= 2*sqrt(l).
No check repeats another. For m = 1 the slack is c - 3, so the bound
c^2 >= 4l + (c-2)^2 holds exactly when c >= l + 1, as q0 shows. For
even m = 2h, qstar = |L_h| + a_h + b_{h-1} + b_h <= c and |L_h| >= 1 give
b_h + b_{h-1} <= c - 1: that consequence fails only when qstar > c.
All verdicts are computed in exact integer arithmetic; the real-valued
bound is only ever used for display.

A ladder's walk depends only on the base path and its ear slice, and the
slack, the bound and the ladder spans only on l, c and m. So one pass
verifies every vine on one base path with two tables: each distinct
ladder is certified once, each ear count's checks are computed once, and
every vine's ear interiors, chain, segments, inequalities and formula
lengths are checked on its own.
The checks of a vine return the fields of its VineVerification, so vine
#0, the report's vine, takes its verdict straight from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import NamedTuple

from .errors import (
    CycleValidationError,
    InternalInvariantError,
    PreconditionError,
)
from .graphs import Graph, Path, Cycle, require_two_connected, validate_cycle
from .solvers import SolveLimits, DEFAULT_LIMITS, all_longest_paths, longest_cycle, longest_path
from .vines import Vine, _chain_failure, enumerate_vines, find_min_vine


@dataclass(frozen=True)
class SegmentDecomposition:
    """Segment lengths induced by a vine with m >= 1 ears; a[i] and b[i] are
    0-based views of the 1-based a_{i+1}, b_{i+1}."""

    vine: Vine
    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.vine.m


def decompose(vine: Vine) -> SegmentDecomposition:
    """Cut the base path into the A/B segments induced by the vine. The
    interleaving chain, checked first, makes them tile the path with the
    lengths the module docstring gives."""
    return SegmentDecomposition(vine, *_segments(vine))


def _segments(vine: Vine) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The A and B segment lengths of decompose, from the ears' attachment
    positions on the base path."""
    if not vine.ears:
        raise PreconditionError("segment decomposition needs a vine with at least one ear")
    pos = vine.base.positions
    try:
        xs = [pos[ear.vertices[0]] for ear in vine.ears]
        ys = [pos[ear.vertices[-1]] for ear in vine.ears]
    except KeyError:
        raise PreconditionError("vine attachment off the base path") from None
    broken = _chain_failure(xs, ys, vine.base.length)
    if broken is not None:
        raise PreconditionError(f"vine does not satisfy the interleaving chain: {broken}")
    # A_i = y_{i-1}..x_{i+1} with y_0 = x_1 and x_{m+1} = y_m; B_i = x_{i+1}..y_i
    a = tuple(map(sub, [*xs[1:], ys[-1]], [xs[0], *ys]))
    b = tuple(map(sub, ys, xs[1:]))
    return a, b


def _ladder(vine: Vine, s: int, t: int) -> list[int]:
    """The ladder over the 0-based ears s..t, from ear s's first attachment;
    the way back starts at t or t-1, whichever has s's parity."""
    base = vine.base.vertices
    pos = vine.base.positions
    ears = vine.ears
    runs = [ears[k].vertices for k in range(s + 1, t + 1, 2)]
    runs += [ears[k].vertices[::-1] for k in range(t - (t - s) % 2, s - 1, -2)]
    walk: list[int] = []
    here = pos[ears[s].x_attach]
    for run in runs:
        there = pos[run[0]]
        walk += base[here:there] if here <= there else base[here:there:-1]
        walk += run[:-1]
        here = pos[run[-1]]
    return walk


def _ladder_cycle(
    g: Graph, vine: Vine, lengths, a, b, s: int, t: int, label: str, ladders: dict
) -> Cycle:
    """The ladder over the 0-based ears s..t, certified at its length by the
    module docstring's identity (where the ears are 1-based), from the ear
    lengths and the segment lengths. ladders maps an ear slice to its
    certified ladder: a slice found there is not walked again, but its
    length is still checked against this vine's formula."""
    ears = vine.ears[s : t + 1]
    expected = sum(lengths[s : t + 1]) + sum(a[s : t + 1])
    expected += (b[s - 1] if s else 0) + (b[t] if t < len(b) else 0)
    cycle = ladders.get(ears)
    if cycle is None:
        try:
            ladders[ears] = cycle = validate_cycle(g, _ladder(vine, s, t))
        except CycleValidationError as exc:
            raise InternalInvariantError(f"{label} is not a simple cycle: {exc}") from exc
    if cycle.length != expected:
        raise InternalInvariantError(
            f"{label} length {cycle.length} does not match the formula value {expected}"
        )
    return cycle


def _ladder_spans(m: int) -> tuple[tuple[str, int, int], ...]:
    """Label and 0-based ear span of each ladder a vine with m ears certifies:
    q0, then q_1..q_{(m-1)//2}, then qstar for even m."""
    spans = [("q0 cycle" if m > 1 else "base-plus-ear cycle", 0, m - 1)]
    spans += [(f"q{j} cycle", j, m - j - 1) for j in range(1, (m - 1) // 2 + 1)]
    if m % 2 == 0:
        spans.append(("qstar cycle", m // 2 - 1, m // 2 - 1))
    return tuple(spans)


def _build(g: Graph, d: SegmentDecomposition, k: int) -> Cycle:
    """The k-th ladder of _ladder_spans, certified on its own."""
    label, s, t = _ladder_spans(d.m)[k]
    lengths = [ear.length for ear in d.vine.ears]
    return _ladder_cycle(g, d.vine, lengths, d.a, d.b, s, t, label, {})


def build_q0(g: Graph, d: SegmentDecomposition) -> Cycle:
    """Cycle through every ear and every A segment; length sum(ears) + sum(a).
    For a single ear that is the base path plus the ear."""
    return _build(g, d, 0)


def build_qj(g: Graph, d: SegmentDecomposition, j: int) -> Cycle:
    """Cycle through ears j+1..m-j with their A segments plus B_j and B_{m-j}."""
    if not 1 <= j <= (d.m - 1) // 2:
        raise PreconditionError(f"j must lie in [1, {(d.m - 1) // 2}] for m={d.m}, got {j}")
    return _build(g, d, j)


def build_qstar(g: Graph, d: SegmentDecomposition) -> Cycle:
    """Even-m cycle B_{m/2} + B_{m/2-1} + A_{m/2} + ear m/2, reading B_0 as
    the empty segment so that m = 2 reduces to A_1 + B_1 + ear 1."""
    if d.m % 2 != 0:
        raise PreconditionError(f"qstar needs an even ear count, got m={d.m}")
    return _build(g, d, -1)


class Inequality1Verdict(NamedTuple):
    """a_1 + a_m <= slack + 2 - sum of the middle a_i."""

    lhs: int
    rhs: int
    ok: bool


class Inequality2Verdict(NamedTuple):
    """b_j + b_{m-j} <= slack + 2(j+1) - sum(a_i, j+1 <= i <= m-j); the
    weak form drops the a-sum from the right side."""

    j: int
    lhs: int
    rhs: int
    weak_rhs: int
    ok: bool
    weak_ok: bool


def circumference_bound_squared(l: int, slack: int, m: int) -> int:
    """Exact integer square of the circumference bound for the given parity."""
    if l < 1:
        raise PreconditionError(f"path length must be at least 1, got {l}")
    if slack < 0:
        raise PreconditionError(f"slack must be non-negative, got {slack}")
    if m < 1:
        raise PreconditionError(f"ear count must be at least 1, got {m}")
    value = 4 * l + (slack + 1) ** 2
    if m % 2 == 0:
        value -= 1
    return value


def circumference_bound(l: int, slack: int, m: int) -> float:
    """sqrt(4l + (slack+1)^2) for odd m, sqrt(4l + (slack+1)^2 - 1) for even m."""
    return math.sqrt(circumference_bound_squared(l, slack, m))


class DiracVerdict(NamedTuple):
    """Classical corollaries, checked as c^2 > 2l and c^2 >= 4l exactly."""

    theorem_a: bool
    conjecture_a: bool


def dirac_check(l: int, c: int) -> DiracVerdict:
    """c > sqrt(2l) and c >= 2*sqrt(l), in exact integer arithmetic."""
    if l < 1 or c < 3:
        raise PreconditionError(f"need l >= 1 and c >= 3, got l={l} c={c}")
    return DiracVerdict(theorem_a=c * c > 2 * l, conjecture_a=c * c >= 4 * l)


@dataclass(frozen=True)
class VineVerification:
    """Everything one vine certifies against fixed l and c."""

    m: int
    slack: int
    bound: float
    bound_met: bool
    tight: bool
    ineq1: Inequality1Verdict | None
    ineq2: tuple[Inequality2Verdict, ...]
    q0_len: int
    qj_lens: tuple[int, ...]
    qstar_len: int | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _count_checks(l: int, c: int, m: int) -> tuple:
    """The checks of a vine that depend on its ear count m alone: the slack,
    the bound, bound_met, tight, the line of c >= m + 2 or of the bound
    when it fails, and the _ladder_spans. When c < m + 2 the bound is NaN
    and goes unchecked."""
    slack = c - m - 2
    if slack < 0:
        return slack, math.nan, False, False, f"c >= m+2 violated: c={c} m={m}", ()
    bound_sq = circumference_bound_squared(l, slack, m)
    line = None
    if c * c < bound_sq:
        line = f"bound violated: c^2={c * c} < {bound_sq} (l={l} slack={slack} m={m})"
    spans = _ladder_spans(m)
    return slack, math.sqrt(bound_sq), c * c >= bound_sq, c * c == bound_sq, line, spans


def _vine_checks(g: Graph, l: int, c: int, vine: Vine, ladders: dict, counts: dict) -> tuple:
    """Every check of verify_vine_against, returned as the fields of its
    VineVerification in field order, the violations last. When c < m + 2
    only that check runs. The two tables belong to one pass over vines on
    one base path and are filled here: ladders is _ladder_cycle's, and
    counts maps an ear count to its _count_checks."""
    m = len(vine.ears)
    fixed = counts.get(m)
    if fixed is None:
        counts[m] = fixed = _count_checks(l, c, m)
    slack, bound, bound_met, tight, line, spans = fixed
    if slack < 0:
        # c >= m + 2 fails: everything downstream is meaningless
        return m, slack, bound, bound_met, tight, None, (), 0, (), None, (line,)
    violations = [] if line is None else [line]
    a, b = _segments(vine)
    # the other vine clauses hold already: q0's certification covers the ear
    # edges and the disjoint interiors, _segments the attachments, and the
    # chain's strict inequalities rule out an edge of the base path as an
    # ear. Only an ear interior vertex strictly inside a B segment escapes.
    on_path = vine.base.positions.keys()
    lengths = []
    for i, ear in enumerate(vine.ears, start=1):
        vs = ear.vertices
        lengths.append(len(vs) - 1)
        if not on_path.isdisjoint(vs[1:-1]):
            v = next(v for v in vs[1:-1] if v in on_path)
            violations.append(f"ear {i} interior vertex {v} lies on the base path")
    ineq1, ineq2 = None, []
    if m >= 2:
        lhs, rhs = a[0] + a[-1], slack + 2 - sum(a[1:-1])
        ineq1 = Inequality1Verdict(lhs, rhs, lhs <= rhs)
        if not ineq1.ok:
            violations.append(f"inequality (1) violated: {lhs} > {rhs}")
        for j in range(1, (m - 1) // 2 + 1):
            lhs, weak_rhs = b[j - 1] + b[m - j - 1], slack + 2 * (j + 1)
            rhs = weak_rhs - sum(a[j : m - j])
            ineq2.append(Inequality2Verdict(j, lhs, rhs, weak_rhs, lhs <= rhs, lhs <= weak_rhs))
            if lhs > rhs:
                violations.append(f"inequality (2) violated at j={j}: {lhs} > {rhs}")
    lens = [
        _ladder_cycle(g, vine, lengths, a, b, s, t, label, ladders).length
        for label, s, t in spans
    ]
    violations += [
        f"{label} longer than the circumference: {length} > {c}"
        for (label, _, _), length in zip(spans, lens) if length > c
    ]
    return (
        m, slack, bound, bound_met, tight, ineq1, tuple(ineq2),
        lens[0], tuple(lens[1 : (m + 1) // 2]), None if m % 2 else lens[-1], tuple(violations),
    )


def verify_vine_against(g: Graph, l: int, c: int, vine: Vine) -> VineVerification:
    """Run every theorem check one vine supports: slack sign, the exact
    bound, the ear interiors, the segment inequalities, and the three
    cycle constructions, in the vine pass that verifies every vine."""
    return _vine_pass(g, l, c, (vine,))[0]


@dataclass(frozen=True)
class BoundReport(VineVerification):
    """Per-instance verdict for one graph: the minimum vine's verification
    against the solved l and c, with the Dirac checks and the witnesses.
    Its violations include those of the Dirac checks."""

    n: int
    edge_count: int
    l: int
    c: int
    dirac: DiracVerdict
    path: Path
    cycle: Cycle
    vine: Vine

    @property
    def parity(self) -> str:
        return "odd" if self.m % 2 else "even"


def analyze(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> BoundReport:
    """Full pipeline: solve for l and c exactly, take the minimum-ear vine
    on the canonical longest path, and check everything it certifies."""
    return analyze_all_vines(g, limits, None)[0]


def analyze_all_vines(
    g: Graph, limits: SolveLimits, max_vines: int | None
) -> tuple[BoundReport, int, bool, list[str]]:
    """analyze over the minimum vine alone, or with a cap over up to that
    many vines on the same path, whose vine #0 is the minimum vine. Returns
    the report, the vines checked, truncated?, and each vine's violation lines."""
    require_two_connected(g)
    path = longest_path(g, limits)
    cycle = longest_cycle(g, limits)
    l, c = path.length, cycle.length
    if max_vines is None:
        vines, truncated = (find_min_vine(g, path),), False
    else:
        vines, truncated = enumerate_vines(g, path, max_count=max_vines)
    verdict, more = _vine_pass(g, l, c, vines)
    if verdict.slack < 0:
        raise InternalInvariantError(
            f"minimum vine has negative slack: c={c} m={verdict.m}; contradicts c >= m+2"
        )
    violations = list(verdict.violations)
    dirac = dirac_check(l, c)
    if not dirac.theorem_a:
        violations.append(f"Dirac bound violated: c^2={c * c} <= 2l={2 * l}")
    if not dirac.conjecture_a:
        violations.append(f"sharp Dirac bound violated: c^2={c * c} < 4l={4 * l}")
    # bound_met implies c^2 >= 4l (bound^2 >= 4l as slack >= 0), which implies c^2 > 2l (l >= 1)
    report = BoundReport(
        **(vars(verdict) | {"violations": tuple(violations)}),
        n=g.n, edge_count=g.edge_count, l=l, c=c, dirac=dirac, path=path, cycle=cycle, vine=vines[0],
    )
    return report, len(vines), truncated, more


def _vine_pass(
    g: Graph, l: int, c: int, vines: tuple[Vine, ...]
) -> tuple[VineVerification, list[str]]:
    """One pass verifies every vine, vine #0 included, on one base path
    and two tables: certified ladders by ear slice, and each ear count's
    slack, bound, bound_met, tight, failing bound line and ladder spans.
    Returns the verdict of vine #0, the report's vine, and every vine's
    violation lines by index."""
    ladders: dict = {}
    counts: dict = {}
    checks = [_vine_checks(g, l, c, vine, ladders, counts) for vine in vines]
    return VineVerification(*checks[0]), [
        f"vine #{idx} (m={check[0]}): {v}" for idx, check in enumerate(checks) for v in check[-1]
    ]


def verify_all_vines(
    g: Graph, p: Path, l: int, c: int, max_vines: int
) -> tuple[int, bool, list[str]]:
    """Check every vine on p, up to max_vines, against l and c; returns
    (vines checked, truncated?, violations)."""
    vines, truncated = enumerate_vines(g, p, max_count=max_vines)
    return len(vines), truncated, _vine_pass(g, l, c, vines)[1]


def verify_all_longest_paths(
    g: Graph, p: Path, l: int, c: int, limits: SolveLimits = DEFAULT_LIMITS
) -> tuple[int, list[str]]:
    """Check the minimum vine on every path of length l but p, the report's,
    against l and c; returns (paths listed, violations)."""
    violations: list[str] = []
    idx = -1
    for idx, q in enumerate(all_longest_paths(g, l, limits)):
        if q != p:
            lines = _vine_checks(g, l, c, find_min_vine(g, q), {}, {})[-1]
            violations += [f"longest path #{idx}: {v}" for v in lines]
    if idx < 0:
        raise InternalInvariantError(f"no path has length l={l}")
    return idx + 1, violations
