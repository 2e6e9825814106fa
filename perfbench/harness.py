"""Loading the program, timing and tracing, shared by the benchmark's files.

Everything here is standard library only.  Spans are kept in memory and
reduced to per-layer self times when a pass ends; the untraced closed loop
uses :data:`NO_TRACE`, whose spans are empty context managers.  Item times
come from :class:`RefClock`.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import math
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

PACKAGE = "rigidity_forge"


# ---------------------------------------------------------------------------
# Loading the program under test
# ---------------------------------------------------------------------------


class ProgramMissing(RuntimeError):
    pass


def fresh_import(src: Path):
    """Import the package from ``src`` with every module body executed anew.

    Earlier copies are dropped from ``sys.modules`` first, so module-level
    caches (the acceptance corpus, lru caches) start empty, as in a new
    process.  Returns a namespace holding the public modules.
    """
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        package = importlib.import_module(PACKAGE)
    except ImportError as exc:
        raise ProgramMissing(f"cannot import {PACKAGE} from {src}: {exc}") from exc
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ProgramMissing(f"{PACKAGE} resolved to {origin}, outside {src}")
    modules = {
        name: importlib.import_module(f"{PACKAGE}.{name}")
        for name in ("scalars", "poly", "cm", "gadgets", "engine", "models", "codec", "suite", "cli")
    }
    return Modules(**modules)


@dataclass
class Modules:
    scalars: object
    poly: object
    cm: object
    gadgets: object
    engine: object
    models: object
    codec: object
    suite: object
    cli: object


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class NullTracer:
    """Tracing off: spans do nothing."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


NO_TRACE = NullTracer()


class Tracer:
    """Records (name, start, end, parent, item) spans in memory.

    Spans nest strictly (one thread), so a span's self time is its duration
    minus the durations of its direct children.
    """

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.items: list[object] = []
        self._stack: list[int] = []
        self.item_id: object = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item_id)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._stack.pop()

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name over everything recorded."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        totals: dict[str, int] = {}
        for name, value in zip(self.names, own):
            totals[name] = totals.get(name, 0) + value
        return totals

    def clear(self) -> None:
        self.__init__()


@contextlib.contextmanager
def trace_model_apply(m, tracer):
    """While open, every ModelMap.apply call is a span (when tracing is on)."""
    if not tracer.enabled:
        yield
        return
    cls = m.models.ModelMap
    original = cls.apply

    def apply(self, p):
        field = "kfield" if self.embedding.kind == "function_field" else "tower"
        with tracer.span(f"models.apply.{field}"):
            return original(self, p)

    cls.apply = apply
    try:
        yield
    finally:
        cls.apply = original


# ---------------------------------------------------------------------------
# Reference-speed clock
# ---------------------------------------------------------------------------

# The reference computation takes 0.5 ms by definition: about its time on an
# uncontended x86-64 core under CPython 3.11.
REFERENCE_NS = 500_000


def reference_work() -> Fraction:
    """Fixed pure-stdlib work resembling the verifier's: small-operand
    Fraction arithmetic, allocation-heavy, no I/O."""
    total = Fraction(0)
    for i in range(1, 90):
        total += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
    return total


class RefClock:
    """Times regions in reference-speed units, to cancel machine-speed swings.

    On a shared machine the same work can take twice as long from one second
    to the next.  While a region is open, a SIGALRM every ``period_s`` runs
    :func:`reference_work` and times it (a *sample*).  Each slice of the
    region between two samples is scaled by ``REFERENCE_NS / mean(samples at
    its ends)``; the samples themselves are not part of the region's time.
    ``raw`` is the region's wall time without the samples, ``scaled`` the sum
    of the scaled slices.  Signals are handled in the main thread, between
    bytecodes, so no thread is started.

    With ``period_s=None`` there is no alarm: a region is one slice, sampled
    only at its two ends, so spans inside it contain no sample.
    """

    PERIOD_S = 0.02

    def __init__(self, period_s: float | None = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: list[int] = []
        self.raw = 0
        self.scaled = 0.0
        self._busy = True  # ignore alarms outside regions and inside a sample
        self._ref = REFERENCE_NS
        self._slice_start = 0
        self._previous = None if period_s is None else signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> int:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not reference work
        try:
            start = time.perf_counter_ns()
            reference_work()
            elapsed = time.perf_counter_ns() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def _close_slice(self) -> None:
        duration = time.perf_counter_ns() - self._slice_start
        ref = self._sample()
        self.raw += duration
        self.scaled += duration * REFERENCE_NS / ((self._ref + ref) / 2)
        self._ref = ref
        self._slice_start = time.perf_counter_ns()

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._close_slice()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def region(self):
        self.raw, self.scaled = 0, 0.0
        self._ref = self._sample()
        self._slice_start = time.perf_counter_ns()
        self._busy = False
        if self.period_s is not None:
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield self
        finally:
            if self.period_s is not None:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._busy = True
            self._close_slice()

    def close(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density (at each
    rank's midpoint).  Unlike picking one or two order statistics it moves
    smoothly when a sample crosses a gap between clusters of item times."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_op_us(op, operands, repeats: int = 5, min_ns: int = 20_000_000) -> float:
    """Median over ``repeats`` of the mean time per ``op(*args)`` call, in µs.

    Each repeat sweeps the operand list as often as needed to fill ``min_ns``.
    """
    samples = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter_ns()
        while True:
            for args in operands:
                op(*args)
            calls += len(operands)
            elapsed = time.perf_counter_ns() - start
            if elapsed >= min_ns:
                break
        samples.append(elapsed / calls / 1000.0)
    return statistics.median(samples)


@dataclass
class ItemRecord:
    item: str
    group: str
    ns: int  # wall time
    scaled_ns: float  # in reference-speed units
    ok: bool
    message: str = ""


@dataclass
class PassRecord:
    """One pass over a workload's fixed item list."""

    items: list[ItemRecord] = field(default_factory=list)
    ns: int = 0
    scaled_ns: float = 0.0
    counters: dict = field(default_factory=dict)
    self_ns: dict = field(default_factory=dict)
    traced: bool = False
