"""Spans, per-operation records and the answer-check exception shared by
the workloads.

The harness times each layer from outside: a span brackets one call the
harness makes into a public function of a ``greenindex`` module, and the
span name is ``<module>.<function>``.  Spans of one operation share its op
id.  With tracing off, ``Spans.span`` hands back one shared no-op context.
"""

from __future__ import annotations

from array import array
import gc
import resource
import time
import tracemalloc

from greenindex import core, relgreen
from greenindex.errors import BoundExceeded, DelayExceeded

perf = time.perf_counter


class WrongAnswer(Exception):
    """The program returned an answer the harness's own check refutes."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def green_setup(raw, spans, sem=None):
    """The set-up every workload times: the validated table (unless given),
    T, the relative Green data and the connectors."""
    if sem is None:
        with spans.span("core.validate_table"):
            sem = core.validate_table(raw.table, names=raw.names)
    sub = core.SubSemigroup(parent=sem, members=raw.members)
    with spans.span("relgreen.relative_green"):
        green = relgreen.relative_green(sem, sub)
    with spans.span("relgreen.connectors"):
        conn = relgreen.connectors(green)
    return sem, sub, green, conn


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("spans", "index")

    def __init__(self, spans, name):
        self.spans = spans
        parent = spans.open[-1] if spans.open else -1
        self.index = len(spans.records)
        spans.records.append([name, 0.0, 0.0, parent, spans.op_id])

    def __enter__(self):
        self.spans.open.append(self.index)
        self.spans.records[self.index][1] = perf()
        return self

    def __exit__(self, *exc):
        self.spans.records[self.index][2] = perf()
        self.spans.open.pop()
        return False


class Spans:
    """In-memory span recorder: [name, start, end, parent, op id] per span.

    ``memory`` maps a span name to how its peak memory is taken when memory
    is on: "tracemalloc" (peak traced allocation during the call) or "rss"
    (growth of the process's peak resident set, which is only meaningful for
    the first large call in the process).
    """

    def __init__(self, on: bool, memory: dict[str, str] | None = None):
        self.on = on
        self.memory = memory or {}
        self.memory_on = False
        self.records: list[list] = []
        self.open: list[int] = []
        self.op_id = -1
        self.peaks: dict[str, float] = {}

    def span(self, name: str):
        inner = _Span(self, name) if self.on else _NULL
        if self.memory_on and name in self.memory:
            return _PeakSpan(self, name, self.memory[name], inner)
        return inner

    def self_times(self) -> dict[str, float]:
        """Span time minus the time of its child spans, summed by name."""
        child = [0.0] * len(self.records)
        for _name, start, end, parent, _op in self.records:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.records):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out


class _PeakSpan:
    def __init__(self, spans, name, how, inner):
        self.spans, self.name, self.how, self.inner = spans, name, how, inner

    def __enter__(self):
        if self.how == "tracemalloc":
            tracemalloc.start()
        else:
            self.base = _current_rss_mb()
        self.inner.__enter__()
        return self

    def __exit__(self, *exc):
        self.inner.__exit__(*exc)
        if self.how == "tracemalloc":
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        else:
            peak = peak_rss_mb() - self.base
        self.spans.peaks[self.name] = max(self.spans.peaks.get(self.name, 0.0), peak)
        return False


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 1e6


_REF_TABLE = [[(3 * x + y) % 27 for y in range(27)] for x in range(27)]


def reference_work() -> int:
    """A fixed computation that never calls the program: tuple keys in a
    dict, then grouped into lists, as the library's own loops do.  Its time
    measures how fast the machine runs Python right now."""
    table, value = _REF_TABLE, {}
    for x in range(27):
        for y in range(27):
            xy = table[x][y]
            for z in range(27):
                value[(x, y, z)] = table[xy][z]
    groups: dict[int, list] = {}
    for word, v in value.items():
        groups.setdefault(v, []).append(word)
    return sum(len(sorted(g)) for g in groups.values())


class Speed:
    """Times ``reference_work`` between operations, at most once per
    ``EVERY_S``, so that its mean follows the machine's speed over the same
    stretch of time as the operations it is taken between."""

    EVERY_S = 0.25

    def __init__(self):
        self.samples = array("d")
        self.last = float("-inf")

    def sample(self):
        if perf() - self.last < self.EVERY_S:
            return
        start = perf()
        reference_work()
        self.last = perf()
        self.samples.append(self.last - start)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


class Record:
    """Operations attempted in one run, their latencies, and outcomes.

    Latencies are kept as C doubles, so the process's peak resident set does
    not grow with the number of operations a run fits into its time.

    With ``collect``, each operation starts after a full garbage collection,
    so that no operation pays for the garbage of the one before it.

    A ``MemoryError`` is a failed operation.  ``BoundExceeded`` and
    ``DelayExceeded`` are the library's explicit bounded verdicts: the
    operation ends without a certified answer, and the reason is kept.
    """

    def __init__(self, spans: Spans, collect: bool = False, speed: Speed | None = None):
        self.spans = spans
        self.collect = collect
        self.speed = speed
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.bounded: list[tuple[str, str]] = []
        self.busy = 0.0
        # Latencies by label, e.g. "generators t3_ideal" or "decide".
        self.latencies: dict[str, array] = {}

    def op(self, label: str) -> "Op":
        return Op(self, label)


class Op:
    """Times one operation and records how it ended; ``ok`` is False when
    the body stopped on a bounded verdict or a MemoryError."""

    def __init__(self, rec: Record, label: str):
        self.rec, self.label, self.ok = rec, label, True

    def __enter__(self):
        rec = self.rec
        if rec.speed is not None:
            rec.speed.sample()
        if rec.collect:
            gc.collect()
        rec.attempted += 1
        rec.spans.op_id += 1
        self.span = rec.spans.span("harness.op")
        self.span.__enter__()
        self.start = perf()
        return self

    def __exit__(self, kind, exc, tb):
        took = perf() - self.start
        rec = self.rec
        rec.busy += took
        rec.latencies.setdefault(self.label, array("d")).append(took)
        self.span.__exit__(kind, exc, tb)
        if kind is None:
            return False
        if issubclass(kind, MemoryError):
            self.rec.failures.append((self.label, "MemoryError"))
        elif issubclass(kind, (BoundExceeded, DelayExceeded)):
            self.rec.bounded.append((self.label, f"{kind.__name__}: {exc}"))
        else:
            return False
        self.ok = False
        return True
