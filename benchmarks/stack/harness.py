"""Run protocol shared by the five workloads.

One run of a workload, in one single-threaded process:

1. set-up, several times, each time a fresh world (``setup_s`` is the median;
   the last world is the one measured);
2. one discarded warm-up segment;
3. timed segments of equal, seed-determined work until ``--seconds`` have
   passed, never fewer than ``EXACT_SEGMENTS``; garbage is collected between
   segments, outside the timed region.

Every wall-clock metric is the median over the timed segments, each scaled
by the host's speed at that moment (see :func:`calibrate`).  *Exact* numbers
-- simulated latency, message counts, fairness -- are taken over the first
``EXACT_SEGMENTS`` timed segments only.  Those always run, whatever the
host's speed, so an exact number depends on the seed alone: it repeats
bit-for-bit, and it is the same with and without tracing.
"""

from __future__ import annotations

import ctypes
import gc
import heapq
import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

STACK_DIR = Path(__file__).resolve().parent
REPO_ROOT = STACK_DIR.parents[1]
OUT_DIR = STACK_DIR / "out"

#: timed segments whose exact numbers are reported (see module docstring).
EXACT_SEGMENTS = 5


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units and bounds this harness emits."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


#: seconds the calibration loop takes on a host of reference speed.
CALIBRATION_REFERENCE_S = 0.010


def calibrate() -> float:
    """Seconds a fixed piece of interpreter-bound work takes right now.

    On a shared box the same code runs 10 to 40 % slower for seconds or
    minutes at a time (a neighbour on the sibling hardware thread), which
    moves a whole run and which no statistic over the run's own segments can
    remove.  This loop -- heap, dict and tuple traffic, as in the program --
    slows down by the same factor, so that timing it just before and after a
    piece of work tells how fast the host was while the work ran.
    """
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    # Its own allocations must not start a collection: next to a world that
    # was just built, one full collection takes thirty times the loop.
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for i in range(20_000):
            push(heap, ((i * 7919) % 1013, i))
            table[i & 1023] = (i, i + 1)
            if i & 3 == 3:
                _, value = pop(heap)
                table.get(value & 1023)
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Times a stretch of work and the host's speed while it ran.

    ``with HostSpeed() as host: work()`` calibrates before and after;
    ``host.seconds`` is the work's wall time as measured, ``host.speed`` the
    host's speed (1.0 being the reference) and ``host.scale(seconds)`` the
    time a host of reference speed would have taken.
    """

    def __enter__(self) -> "HostSpeed":
        self._before = calibrate()
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = perf_counter() - self._started
        self.speed = 2.0 * CALIBRATION_REFERENCE_S / (self._before + calibrate())

    def scale(self, seconds: float) -> float:
        return seconds * self.speed


@dataclass
class Segment:
    """One timed segment: operations attempted and failed, wall seconds
    as measured, and the host's speed while it ran."""

    attempted: int
    failed: int
    raw_seconds: float
    speed: float

    @property
    def rate(self) -> float:
        """Operations answered per second of a reference-speed host."""
        return (self.attempted - self.failed) / (self.raw_seconds * self.speed)


@dataclass
class Measured:
    """What one workload's measuring phase produced."""

    segments: list[Segment] = field(default_factory=list)
    warmup_attempted: int = 0
    warmup_failed: int = 0
    #: operations after the warm-up that are not in ``segments`` (the live
    #: workload's open-loop and fetch phases).
    other_attempted: int = 0
    other_failed: int = 0
    op_latency_ms: float = 0.0
    load_fairness: float = 0.0
    #: numbers that depend on the seed alone (exact window); compared
    #: between the untraced and the traced run by the self-check.
    exact: dict[str, float] = field(default_factory=dict)
    #: per-layer metrics that are counts or ratios, by metric name.
    counts: dict[str, float] = field(default_factory=dict)
    #: correctness-gate failures; empty means the outputs are correct.
    problems: list[str] = field(default_factory=list)
    #: self time over wall time, where the workload has to compute it itself.
    coverage: float | None = None

    @property
    def attempted(self) -> int:
        return (
            self.warmup_attempted + self.other_attempted
            + sum(s.attempted for s in self.segments)
        )

    @property
    def failed(self) -> int:
        return (
            self.warmup_failed + self.other_failed
            + sum(s.failed for s in self.segments)
        )

    @property
    def ops_after_warmup(self) -> int:
        """Operations completed since the tracer was reset."""
        return self.timed_ops + self.other_attempted - self.other_failed

    @property
    def ops_per_s(self) -> float:
        return statistics.median(s.rate for s in self.segments)

    @property
    def timed_seconds(self) -> float:
        """Wall seconds of the timed segments, as measured."""
        return sum(s.raw_seconds for s in self.segments)

    @property
    def timed_ops(self) -> int:
        return sum(s.attempted - s.failed for s in self.segments)


def run_segments(seconds: float, prepare, segment, tracer=None,
                 after_warmup=None, on_exact_window=None) -> Measured:
    """Warm up once, then time fixed-size segments for ``seconds``.

    ``prepare(index)`` makes a segment's inputs outside the timed region;
    ``segment(inputs)`` does the work and returns ``(attempted, failed)``.
    Index 0 is the warm-up, after which the tracer forgets what it saw.
    ``on_exact_window()`` is called once, right after timed segment number
    ``EXACT_SEGMENTS``.
    """
    measured = Measured()
    measured.warmup_attempted, measured.warmup_failed = segment(prepare(0))
    if tracer is not None:
        tracer.reset()
    if after_warmup is not None:
        after_warmup()
    segments = measured.segments
    began = perf_counter()
    while (
        len(segments) < EXACT_SEGMENTS or perf_counter() - began < seconds
    ):
        inputs = prepare(len(segments) + 1)
        gc.collect()
        with HostSpeed() as host:
            attempted, failed = segment(inputs)
        segments.append(Segment(attempted, failed, host.seconds, host.speed))
        if len(segments) == EXACT_SEGMENTS and on_exact_window is not None:
            on_exact_window()
    return measured


def pin_allocator() -> None:
    """Tell glibc's malloc to keep what the program frees, for the run.

    asyncio reads every datagram into a fresh 256 KiB buffer.  glibc serves
    such a request from the top of the heap and, depending on where the
    heap's top happens to be, trims the heap on every free and grows it again
    on the next request -- a system call and 64 page faults per datagram.  A
    live run flips into that state after some thousands of queries and stays
    there, at two thirds of its speed; when it flips depends on the heap's
    layout, which is noise to a benchmark and which no calibration follows.
    With trimming off and no per-request ``mmap`` the allocator's cost is the
    same from the first segment to the last.  No-op where the C library is
    not glibc.
    """
    trim_threshold, mmap_threshold = -1, -3  # M_* option numbers, malloc.h
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(trim_threshold, 1 << 30)
    mallopt(mmap_threshold, 32 << 20)


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
