"""In-memory span tracer for the benchmark's traced run.

``install`` replaces each traced vinebound function at every module
attribute that refers to it, so a call opens a span whichever module of
the pipeline makes it, and the traced run executes the same code as the
untraced run. A span records its name, start, end, parent span and the
exception that ended the call.

Self time (a span's duration minus the time its child spans cover) is
summed per span name as each span closes, over every span of a pass
(a fuzz-small pass opens about 35,000). The spans themselves are kept in
memory up to a cap and written out when the benchmark ends.

The tracer's own work per span lands partly inside the span's window and
partly outside it, in the parent's self time. ``calibrate`` measures both
parts on a no-op function and ``self_times`` subtracts them, so that a
caller of many small traced functions is not charged for the tracing.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Iterable

# span name -> (home module, functions). The home module is only where the
# function is looked up; the wrapper replaces it in every module.
TARGETS: dict[str, tuple[str, tuple[str, ...]]] = {
    "graphs.parse": ("graphs", ("parse_graph",)),
    "graphs.serialize": ("graphs", ("serialize_graph",)),
    "graphs.two_conn": ("graphs", ("two_connectivity_failure",)),
    "graphs.validate": ("graphs", ("validate_path", "validate_cycle")),
    "solvers.longest_path": ("solvers", ("longest_path",)),
    "solvers.longest_cycle": ("solvers", ("longest_cycle",)),
    "solvers.path_oracle": ("solvers", ("longest_path_oracle",)),
    "solvers.cycle_oracle": ("solvers", ("longest_cycle_oracle",)),
    "vines.enumerate_ears": ("vines", ("enumerate_ears",)),
    "vines.find_min_vine": ("vines", ("find_min_vine",)),
    "vines.enumerate_vines": ("vines", ("enumerate_vines",)),
    "vines.verify_vine": ("vines", ("verify_vine",)),
    "bounds.analyze": ("bounds", ("analyze",)),
    "bounds.verify_vine_against": ("bounds", ("verify_vine_against",)),
    "bounds.verify_all_vines": ("bounds", ("verify_all_vines",)),
    "bounds.decompose": ("bounds", ("decompose",)),
    "bounds.cycles": ("bounds", ("build_q0", "build_qj", "build_qstar")),
    "families.generate": ("families", ("random_two_connected", "extremal_graph")),
    "families.fuzz_campaign": ("families", ("fuzz_campaign",)),
}

# The span the benchmark opens around each command-line call; its self
# time is argument parsing, report assembly and printing.
ROOT = "cli"

# Counts taken from a traced function's result: metric -> (span name, counter).
RESULT_COUNTS: dict[str, tuple[str, Callable[[object], int]]] = {
    "vines.ears": ("vines.enumerate_ears", len),
    "vines.vines": ("vines.enumerate_vines", lambda r: len(r.vines)),
    "vines.truncated": ("vines.enumerate_vines", lambda r: int(r.truncated)),
}

KEEP = 200_000  # spans written out per traced pass


class SpanStats:
    """Totals for one span name."""

    __slots__ = ("calls", "children", "self_s", "errors", "counts")

    def __init__(self):
        self.calls = 0
        self.children = 0  # spans opened directly inside these
        self.self_s = 0.0
        self.errors: dict[str, int] = {}
        self.counts: dict[str, int] = {}


class Tracer:
    """Spans of one traced pass.

    ``stats`` holds per-name totals over every span. ``spans`` keeps the
    first KEEP spans as ``[name, start, end, parent index, error]``,
    parent -1 for a root; ``dropped`` counts the spans beyond the cap.
    """

    def __init__(self):
        self.clear()
        self._counters: dict[str, list[tuple[str, Callable[[object], int]]]] = {}
        for metric, (name, counter) in RESULT_COUNTS.items():
            self._counters.setdefault(name, []).append((metric, counter))

    def clear(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[list] = []
        self.dropped = 0
        self._open: list[list] = []  # [name, start, time covered by children, kept index, children]

    def begin(self, name: str) -> None:
        parent = self._open[-1][3] if self._open else -1
        start = time.perf_counter()
        if len(self.spans) < KEEP:
            index = len(self.spans)
            self.spans.append([name, start, start, parent, None])
        else:
            index = -1
            self.dropped += 1
        self._open.append([name, start, 0.0, index, 0])

    def end(self, error: str | None = None, counts: dict[str, int] | None = None) -> None:
        end = time.perf_counter()
        name, start, covered, index, children = self._open.pop()
        duration = end - start
        if self._open:
            self._open[-1][2] += duration
            self._open[-1][4] += 1
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.children += children
        stats.self_s += duration - covered
        if error is not None:
            stats.errors[error] = stats.errors.get(error, 0) + 1
        if counts:
            for metric, value in counts.items():
                stats.counts[metric] = stats.counts.get(metric, 0) + value
        if index >= 0:
            self.spans[index][2] = end
            self.spans[index][4] = error

    def wrap(self, name: str, fn: Callable) -> Callable:
        counters = self._counters.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(type(exc).__name__)
                raise
            self.end(None, {metric: count(result) for metric, count in counters} if counters else None)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON object per kept span, in opening order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, error in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent}
                if error is not None:
                    record["error"] = error
                fh.write(json.dumps(record) + "\n")


CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


def calibrate() -> tuple[float, float]:
    """The tracer's cost per span, in seconds: the part inside the span's
    own window and the part its parent's self time absorbs. Each is the
    least over CALIBRATION_ROUNDS rounds of CALIBRATION_CALLS traced no-op
    calls."""
    def noop():
        return None

    inside, outside = [], []
    for _ in range(CALIBRATION_ROUNDS):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        tracer.begin("caller")
        for _ in range(CALIBRATION_CALLS):
            traced()
        tracer.end()
        inside.append(tracer.stats["noop"].self_s / CALIBRATION_CALLS)
        outside.append(tracer.stats["caller"].self_s / CALIBRATION_CALLS)
    return min(inside), min(outside)


def self_times(stats: dict[str, SpanStats], cost: tuple[float, float]) -> dict[str, float]:
    """Self time per span name with the tracer's own cost taken out: each
    span's inside part, and the outside part of each of its children."""
    inside, outside = cost
    return {
        name: max(0.0, s.self_s - s.calls * inside - s.children * outside)
        for name, s in stats.items()
    }


def install(tracer: Tracer, package: str, modules: Iterable) -> Callable[[], None]:
    """Wrap every TARGETS function at each attribute of ``modules`` that
    refers to it; return a function that puts the originals back."""
    modules = list(modules)
    by_name = {mod.__name__: mod for mod in modules}
    saved = []
    for span_name, (home, functions) in TARGETS.items():
        for fn_name in functions:
            original = getattr(by_name[f"{package}.{home}"], fn_name)
            wrapper = tracer.wrap(span_name, original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore() -> None:
        for mod, attr, original in saved:
            setattr(mod, attr, original)

    return restore
