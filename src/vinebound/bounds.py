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
All verdicts are computed in exact integer arithmetic; the real-valued
bound is only ever used for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CycleValidationError,
    InternalInvariantError,
    PreconditionError,
)
from .graphs import Graph, Path, Cycle, require_two_connected, validate_cycle
from .solvers import SolveLimits, DEFAULT_LIMITS, all_longest_paths, longest_cycle, longest_path
from .vines import Vine, _chain_failure, _ear_fault, enumerate_vines, find_min_vine


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

    def a_vertices(self, i: int) -> tuple[int, ...]:
        """Vertex run of the 1-based segment A_i."""
        start = sum(self.a[: i - 1]) + sum(self.b[: i - 1])
        return self.vine.base.vertices[start : start + self.a[i - 1] + 1]

    def b_vertices(self, i: int) -> tuple[int, ...]:
        """Vertex run of the 1-based segment B_i."""
        start = sum(self.a[:i]) + sum(self.b[: i - 1])
        return self.vine.base.vertices[start : start + self.b[i - 1] + 1]


def decompose(vine: Vine) -> SegmentDecomposition:
    """Cut the base path into the A/B segments induced by the vine. The
    interleaving chain, checked first, makes them tile the path with the
    lengths the module docstring gives."""
    if vine.m < 1:
        raise PreconditionError("segment decomposition needs a vine with at least one ear")
    pos = vine.base.positions
    try:
        xs = [pos[e.x_attach] for e in vine.ears]
        ys = [pos[e.y_attach] for e in vine.ears]
    except KeyError:
        raise PreconditionError("vine attachment off the base path") from None
    broken = _chain_failure(xs, ys, len(vine.base.vertices) - 1)
    if broken is not None:
        raise PreconditionError(f"vine does not satisfy the interleaving chain: {broken}")
    # A_i = y_{i-1}..x_{i+1} with y_0 = x_1 and x_{m+1} = y_m; B_i = x_{i+1}..y_i
    a = tuple(x - y for y, x in zip([xs[0], *ys], [*xs[1:], ys[-1]]))
    b = tuple(y - x for x, y in zip(xs[1:], ys))
    return SegmentDecomposition(vine, a, b)


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


def _certify(g: Graph, vertices, expected_len: int, label: str) -> Cycle:
    try:
        cycle = validate_cycle(g, vertices)
    except CycleValidationError as exc:
        raise InternalInvariantError(f"{label} is not a simple cycle: {exc}") from exc
    if cycle.length != expected_len:
        raise InternalInvariantError(
            f"{label} length {cycle.length} does not match the formula value {expected_len}"
        )
    return cycle


def _ladder_cycle(g: Graph, d: SegmentDecomposition, s: int, t: int, label: str) -> Cycle:
    """The ladder over the 0-based ears s..t, certified at its length by the
    module docstring's identity (where the ears are 1-based)."""
    b = (0, *d.b, 0)
    expected = sum(d.vine.ears[i].length + d.a[i] for i in range(s, t + 1)) + b[s] + b[t + 1]
    return _certify(g, _ladder(d.vine, s, t), expected, label)


def _q0_label(m: int) -> str:
    return "q0 cycle" if m > 1 else "base-plus-ear cycle"


def build_q0(g: Graph, d: SegmentDecomposition) -> Cycle:
    """Cycle through every ear and every A segment; length sum(ears) + sum(a).
    For a single ear that is the base path plus the ear."""
    return _ladder_cycle(g, d, 0, d.m - 1, _q0_label(d.m))


def build_qj(g: Graph, d: SegmentDecomposition, j: int) -> Cycle:
    """Cycle through ears j+1..m-j with their A segments plus B_j and B_{m-j}."""
    m = d.m
    if not 1 <= j <= (m - 1) // 2:
        raise PreconditionError(f"j must lie in [1, {(m - 1) // 2}] for m={m}, got {j}")
    return _ladder_cycle(g, d, j, m - j - 1, f"q{j} cycle")


def build_qstar(g: Graph, d: SegmentDecomposition) -> Cycle:
    """Even-m cycle B_{m/2} + B_{m/2-1} + A_{m/2} + ear m/2, reading B_0 as
    the empty segment so that m = 2 reduces to A_1 + B_1 + ear 1."""
    m = d.m
    if m % 2 != 0:
        raise PreconditionError(f"qstar needs an even ear count, got m={m}")
    h = m // 2
    return _ladder_cycle(g, d, h - 1, h - 1, "qstar cycle")


@dataclass(frozen=True)
class Inequality1Verdict:
    """a_1 + a_m <= slack + 2 - sum of the middle a_i."""

    lhs: int
    rhs: int
    ok: bool


@dataclass(frozen=True)
class Inequality2Verdict:
    """b_j + b_{m-j} <= slack + 2(j+1) - sum(a_i, j+1 <= i <= m-j); the
    weak form drops the a-sum from the right side."""

    j: int
    lhs: int
    rhs: int
    weak_rhs: int
    ok: bool
    weak_ok: bool


def check_inequality_1(d: SegmentDecomposition, c: int) -> Inequality1Verdict:
    """End-segment inequality against the certified circumference c; needs m >= 2."""
    if d.m < 2:
        raise PreconditionError(f"inequality (1) needs at least two ears, got m={d.m}")
    slack = c - d.m - 2
    if slack < 0:
        raise InternalInvariantError(
            f"negative slack {slack}: circumference {c} below m+2={d.m + 2}"
        )
    lhs = d.a[0] + d.a[-1]
    rhs = slack + 2 - sum(d.a[1:-1])
    return Inequality1Verdict(lhs, rhs, lhs <= rhs)


def check_inequality_2(d: SegmentDecomposition, c: int, j: int) -> Inequality2Verdict:
    """Overlap-segment inequality for one j against the circumference c."""
    m = d.m
    if not 1 <= j <= (m - 1) // 2:
        raise PreconditionError(f"j must lie in [1, {(m - 1) // 2}] for m={m}, got {j}")
    slack = c - m - 2
    if slack < 0:
        raise InternalInvariantError(
            f"negative slack {slack}: circumference {c} below m+2={m + 2}"
        )
    lhs = d.b[j - 1] + d.b[m - j - 1]
    middle = sum(d.a[j : m - j])
    weak_rhs = slack + 2 * (j + 1)
    rhs = weak_rhs - middle
    return Inequality2Verdict(j, lhs, rhs, weak_rhs, lhs <= rhs, lhs <= weak_rhs)


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


@dataclass(frozen=True)
class DiracVerdict:
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


def verify_vine_against(g: Graph, p: Path, l: int, c: int, vine: Vine) -> VineVerification:
    """Run every theorem check one vine supports: slack sign, the exact
    bound, the segment inequalities, and the three cycle constructions."""
    violations: list[str] = []
    m = vine.m
    slack = c - m - 2
    if slack < 0:
        # c >= m + 2 fails: everything downstream is meaningless
        return VineVerification(
            m, slack, float("nan"), False, False, None, (), 0, (), None,
            (f"c >= m+2 violated: c={c} m={m}",),
        )
    bound_sq = circumference_bound_squared(l, slack, m)
    bound = math.sqrt(bound_sq)
    bound_met = c * c >= bound_sq
    tight = c * c == bound_sq
    if not bound_met:
        violations.append(f"bound violated: c^2={c * c} < {bound_sq} (l={l} slack={slack} m={m})")
    d = decompose(vine)
    ineq1, ineq2 = None, ()
    if m >= 2:
        ineq1 = check_inequality_1(d, c)
        if not ineq1.ok:
            violations.append(f"inequality (1) violated: {ineq1.lhs} > {ineq1.rhs}")
        ineq2 = tuple(check_inequality_2(d, c, j) for j in range(1, (m - 1) // 2 + 1))
        for verdict in ineq2:
            if not verdict.ok:
                violations.append(
                    f"inequality (2) violated at j={verdict.j}: {verdict.lhs} > {verdict.rhs}"
                )
    lengths = {_q0_label(m): build_q0(g, d).length}
    lengths.update((f"q{v.j} cycle", build_qj(g, d, v.j).length) for v in ineq2)
    if m % 2 == 0:
        lengths["qstar cycle"] = build_qstar(g, d).length
    for label, length in lengths.items():
        if length > c:
            violations.append(f"{label} longer than the circumference: {length} > {c}")
    if m == 1 and c < l + 1:
        violations.append(f"c >= l+1 violated for a single-ear vine: c={c} l={l}")
    if m % 2 == 0:
        h = m // 2
        overlap_sum = d.b[h - 1] + (d.b[h - 2] if h >= 2 else 0)
        if overlap_sum > slack + m + 1:
            violations.append(
                f"qstar consequence violated: b_{h}+b_{h - 1}={overlap_sum} > slack+m+1={slack + m + 1}"
            )
    lens = list(lengths.values())
    return VineVerification(
        m, slack, bound, bound_met, tight, ineq1, ineq2, lens[0], tuple(lens[1 : 1 + len(ineq2)]),
        lengths.get("qstar cycle"), tuple(violations),
    )


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
    """analyze, plus with a cap verify_all_vines on the same path from one vine
    enumeration, whose vine #0 is the minimum vine. Returns the report, the
    vines checked, truncated?, and the violations beyond the report's own."""
    require_two_connected(g)
    path = longest_path(g, limits)
    cycle = longest_cycle(g, limits)
    l, c = path.length, cycle.length
    if max_vines is None:
        vines, truncated, more = (find_min_vine(g, path),), False, []
        verdict = verify_vine_against(g, path, l, c, vines[0])
    else:
        vines, truncated, verdicts, more = _vine_pass(g, path, l, c, max_vines)
        verdict = verdicts[0]
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
    g: Graph, p: Path, l: int, c: int, max_vines: int
) -> tuple[tuple[Vine, ...], bool, list[VineVerification], list[str]]:
    """verify_all_vines with every vine's verdict. enumerate_vines has certified
    p; a vine's q0 or base-plus-ear cycle certifies its ear edges and that the
    ears' interiors are disjoint, so each distinct ear is checked once."""
    vines, truncated = enumerate_vines(g, p, max_count=max_vines)
    verdicts = [verify_vine_against(g, p, l, c, vine) for vine in vines]
    violations: list[str] = []
    for ear in {ear.vertices: ear for vine in vines for ear in vine.ears}.values():
        fault = _ear_fault(g, p.positions, ear)
        if type(fault) is tuple:
            name = "-".join(map(str, ear.vertices))
            violations.append(f"ear {name} fails the {fault[0]} check: {fault[1]}")
    for idx, (vine, verdict) in enumerate(zip(vines, verdicts)):
        violations.extend(f"vine #{idx} (m={vine.m}): {v}" for v in verdict.violations)
    return vines, truncated, verdicts, violations


def verify_all_vines(
    g: Graph, p: Path, l: int, c: int, max_vines: int
) -> tuple[int, bool, list[str]]:
    """Check every vine on p, up to max_vines, against l and c; returns
    (vines checked, truncated?, violations)."""
    vines, truncated, _, violations = _vine_pass(g, p, l, c, max_vines)
    return len(vines), truncated, violations


def verify_all_longest_paths(g: Graph, l: int, c: int) -> tuple[int, list[str]]:
    """Re-run the minimum-vine checks on every longest path (small graphs
    only); returns (paths checked, violations)."""
    violations: list[str] = []
    paths = all_longest_paths(g)
    for idx, p in enumerate(paths):
        if p.length != l:
            violations.append(f"path #{idx} has length {p.length}, expected {l}")
            continue
        vine = find_min_vine(g, p)
        verdict = verify_vine_against(g, p, l, c, vine)
        for v in verdict.violations:
            violations.append(f"longest path #{idx}: {v}")
    return len(paths), violations
