"""Tight families, random 2-connected graphs, the per-graph check and its campaigns.

The extremal construction realizes the circumference bound with equality:
a Hamiltonian spine whose chord attachments induce the segment lengths

    a_1 = a_m = slack/2 + 1,   middle a_i = 0,
    b_i = slack/2 + min(i, m-i) + 1,

so that c = m + slack + 2 and c^2 equals 4l + (slack+1)^2 (odd m) or
4l + (slack+1)^2 - 1 (even m) exactly. The slack must be even because
the construction halves it; odd slack is rejected rather than rounded.

A graph source is two module-level functions: chord_instances(cfg) yields
instances and chord_graph(instance) returns each one's graph and provenance.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Iterator

from .bounds import analyze_all_vines
from .errors import InternalInvariantError, PreconditionError, ResourceLimitError, VineboundError
from .graphs import Graph, Path, is_two_connected, serialize_graph, validate_path
from .solvers import ORACLE_MAX_VERTICES, SolveLimits, longest_cycle_oracle, longest_path_oracle
from .vines import Ear, Vine, verify_vine


@dataclass(frozen=True)
class ExtremalSpec:
    """Parameters of one tight instance: ear count m >= 2, even slack >= 0."""

    m: int
    slack: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise PreconditionError(f"extremal construction needs m >= 2, got {self.m}")
        if self.slack < 0 or self.slack % 2 != 0:
            raise PreconditionError(
                f"slack must be even and non-negative, got {self.slack}; "
                "the construction halves it and has no odd-slack variant"
            )


def extremal_segment_lengths(spec: ExtremalSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (a, b) segment lengths the construction is built from."""
    h = spec.slack // 2
    m = spec.m
    a = (h + 1,) + (0,) * (m - 2) + (h + 1,)
    b = tuple(h + min(i, m - i) + 1 for i in range(1, m))
    return a, b


def extremal_path_length(spec: ExtremalSpec) -> int:
    """Closed form for the spine length l of the construction."""
    m, y = spec.m, spec.slack
    if m % 2 == 1:
        return (y + 2) * (m + 1) // 2 + (m - 1) * (m + 1) // 4
    return ((m + 2) ** 2 + 2 * y * (m + 1)) // 4


def extremal_cycle_length(spec: ExtremalSpec) -> int:
    """The circumference the construction attains: m + slack + 2."""
    return spec.m + spec.slack + 2


def extremal_graph(spec: ExtremalSpec) -> tuple[Graph, Path, Vine]:
    """Build the tight instance: spine path plus one chord per ear.

    Returns the graph, the spine (a Hamiltonian, hence longest, path) and
    the vine of chords that witnesses the bound with equality.
    """
    a, b = extremal_segment_lengths(spec)
    m = spec.m
    # positions of the attachment points, reading the tiling a1 b1 a2 ... b_{m-1} am
    points = list(accumulate([x for i in range(m - 1) for x in (a[i], b[i])] + [a[m - 1]], initial=0))
    xs = [points[0]] + [points[2 * k - 1] for k in range(1, m)]
    ys = [points[2 * k] for k in range(1, m)] + [points[2 * m - 1]]
    n = points[-1] + 1
    edges = {(v, v + 1) for v in range(n - 1)}
    edges |= {(xs[k], ys[k]) for k in range(m)}
    g = Graph(n, edges)
    spine = validate_path(g, list(range(n)))
    vine = Vine(spine, tuple(Ear((xs[k], ys[k])) for k in range(m)))
    verdict = verify_vine(g, vine)
    if not verdict.ok:
        raise InternalInvariantError(f"extremal construction produced an invalid vine: {verdict.detail}")
    return g, spine, vine


def random_two_connected(n: int, extra_ears: int, seed: int) -> tuple[Graph, int]:
    """Seed-deterministic 2-connected graph: a Hamiltonian cycle on a
    shuffled vertex order plus extra chords sampled without replacement
    from the remaining pairs.

    Returns the graph and the number of chords actually placed, which is
    smaller than requested only when the graph saturates.
    """
    if n < 3:
        raise PreconditionError(f"2-connected graphs need n >= 3, got {n}")
    if extra_ears < 0:
        raise PreconditionError(f"extra_ears must be non-negative, got {extra_ears}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        edges.add((min(u, v), max(u, v)))
    # rng.sample draws by the population's length alone, so drawing ranks
    # among the sorted non-edges places the chords a list of them would
    starts = list(accumulate(range(n - 1, 0, -1), initial=0))  # rank of pair (u, u+1)
    skips = [r - k for k, r in enumerate(sorted(starts[u] + v - u - 1 for u, v in edges))]
    free = range(n * (n - 1) // 2 - n)
    placed = min(extra_ears, len(free))
    for i in rng.sample(free, placed):
        r = i + bisect_right(skips, i)  # skips[k]: the non-edges below the k-th cycle edge
        u = bisect_right(starts, r) - 1
        edges.add((u, r - starts[u] + u + 1))
    g = Graph(n, edges)
    if not is_two_connected(g):
        raise InternalInvariantError("cycle-plus-chords generator produced a non-2-connected graph")
    return g, placed


@dataclass(frozen=True)
class FuzzConfig:
    """Seeded campaign over random 2-connected instances; extra_max None
    draws up to n extra chords."""

    count: int
    n_min: int
    n_max: int
    seed: int
    extra_min: int = 0
    extra_max: int | None = 10
    vine_cap: int = 200
    jobs: int = 1
    limits: SolveLimits = field(default_factory=SolveLimits)

    def __post_init__(self):
        if self.count < 1:
            raise PreconditionError(f"count must be at least 1, got {self.count}")
        if not 3 <= self.n_min <= self.n_max:
            raise PreconditionError(
                f"need 3 <= n_min <= n_max, got n_min={self.n_min} n_max={self.n_max}"
            )
        top = self.n_min if self.extra_max is None else self.extra_max
        if not 0 <= self.extra_min <= top:
            raise PreconditionError(
                f"need 0 <= extra_min <= extra_max, got {self.extra_min}, {self.extra_max}"
            )
        if self.vine_cap < 1:
            raise PreconditionError(f"vine_cap must be at least 1, got {self.vine_cap}")
        if self.jobs < 1:
            raise PreconditionError(f"jobs must be at least 1, got {self.jobs}")


@dataclass(frozen=True)
class InstanceRecord:
    """Outcome of one fuzz instance: its index, its source's provenance, then
    the fields check_graph returns. vines_checked is 0 exactly when verification
    raised, since a finished check has at least one vine; l through tight then
    keep their placeholders and resource_limited says whether a budget ran out.
    oracle_l / oracle_c are the oracles' lengths, None when the instance was not
    cross-checked; graph_text is set only on violation."""

    index: int
    provenance: dict
    violations: tuple[str, ...]
    graph_text: str | None
    l: int = 0
    c: int = 0
    m: int = 0
    slack: int = 0
    parity: str = "odd"
    bound: float = 0.0
    tight: bool = False
    oracle_l: int | None = None
    oracle_c: int | None = None
    vines_checked: int = 0
    vines_truncated: bool = False
    resource_limited: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def oracle_checked(self) -> bool:
        return self.oracle_l is not None


@dataclass(frozen=True)
class FuzzReport:
    """Campaign outcome; records are in instance-index order."""

    records: tuple[InstanceRecord, ...]
    elapsed: float

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failed(self) -> int:
        return len(self.records) - self.passed

    @property
    def out_of_budget(self) -> int:
        return sum(1 for r in self.records if r.resource_limited)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def check_graph(g: Graph, vine_cap: int, limits: SolveLimits) -> dict:
    """Check the bound on g: l and c, every vine up to vine_cap, and the
    oracles' l and c up to ORACLE_MAX_VERTICES vertices. Return the
    InstanceRecord fields the check decides, by name; graph_text is None
    unless there is a violation."""
    try:
        report, checked, truncated, more = analyze_all_vines(g, limits, vine_cap)
        fields = {k: getattr(report, k) for k in ("l", "c", "m", "slack", "parity", "bound", "tight")}
        fields.update(vines_checked=checked, vines_truncated=truncated)
        violations = [*report.violations, *more]
        if g.n <= ORACLE_MAX_VERTICES:
            fields.update(oracle_l=longest_path_oracle(g), oracle_c=longest_cycle_oracle(g))
            for name in ("l", "c"):
                search, oracle = fields[name], fields[f"oracle_{name}"]
                if oracle != search:
                    violations.append(f"oracle disagrees on {name}: search {search}, oracle {oracle}")
    except VineboundError as exc:
        # the record carries a flag, not the exception: some of them do not pickle
        fields = {"resource_limited": isinstance(exc, ResourceLimitError)}
        violations = [f"exception during verification: {type(exc).__name__}: {exc}"]
    return {**fields, "violations": tuple(violations),
            "graph_text": serialize_graph(g) if violations else None}


def chord_instances(cfg: FuzzConfig) -> Iterator[tuple[int, int, int]]:
    """Yield (n, extra, seed) for cfg.count instances, drawn in that order from
    one master generator seeded with cfg.seed: n in [n_min, n_max], extra in
    [extra_min, extra_max] (up to n when extra_max is None), then the seed."""
    master = random.Random(cfg.seed)
    for _ in range(cfg.count):
        n = master.randint(cfg.n_min, cfg.n_max)
        extra = master.randint(cfg.extra_min, n if cfg.extra_max is None else cfg.extra_max)
        yield n, extra, master.getrandbits(63)


def chord_graph(instance: tuple[int, int, int]) -> tuple[Graph, dict]:
    """One instance's graph and its provenance: seed, n, chords requested and placed."""
    n, extra, seed = instance
    g, placed = random_two_connected(n, extra, seed)
    return g, {"seed": seed, "n": n, "extra_requested": extra, "extra_placed": placed}


def _run_instance(item: tuple[int, tuple[int, int, int]], cfg: FuzzConfig) -> InstanceRecord:
    index, instance = item
    g, provenance = chord_graph(instance)
    return InstanceRecord(index, provenance, **check_graph(g, cfg.vine_cap, cfg.limits))


def fuzz_campaign(cfg: FuzzConfig) -> FuzzReport:
    """Generate, analyze, and fully verify cfg.count seeded instances.

    A theorem violation never aborts the campaign; it is recorded on the
    instance together with a replayable graph file. Records are ordered by
    instance index regardless of the number of worker processes.
    """
    run = partial(_run_instance, cfg=cfg)
    instances = enumerate(chord_instances(cfg))
    start = time.monotonic()
    # the pool starts all its workers at once, so no more than there are
    # instances or CPUs (the pool's own default)
    workers = min(cfg.jobs, cfg.count, os.cpu_count() or 1)
    if workers > 1:
        # imported here, so a run with one job loads no process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Pool.map's default chunk rule: about four chunks per worker
            records = tuple(pool.map(run, instances, chunksize=-(-cfg.count // (4 * workers))))
    else:
        records = tuple(map(run, instances))
    return FuzzReport(records, time.monotonic() - start)
