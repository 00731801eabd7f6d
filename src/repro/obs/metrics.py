"""Metric primitives and the registry that names them.

The paper's claims are measured claims — Jain fairness of observed load
(Section 4.3), hop/latency distributions (Section 3.3), rebalancing
traffic (Section 6.1.3) — so the simulation core needs a uniform way to
count, gauge, and time what happens on its hot paths.  This module keeps
the primitives deliberately small:

* :class:`Counter` — a monotonically increasing count (events processed,
  messages sent, queries served);
* :class:`Gauge` — a last-written value (queue depth, observed fairness);
* :class:`Histogram` — a value distribution with percentiles; every
  histogram the program registers holds :class:`Timer` readings;
* :class:`Timer` — a context manager that observes wall-clock elapsed
  seconds into a histogram (profiling hot paths).

A query's in-sim latency is no metric here: it lives once, in its
:class:`~repro.metrics.response.QueryOutcome`, and
:func:`~repro.metrics.response.summarize_responses` reduces those.

A :class:`MetricsRegistry` names metrics (dotted lowercase, e.g.
``sim.events_processed``) and hands out the *same* object for the same
name, so call sites can cache metric objects at import time while
``reset()`` (between experiment runs) only zeroes values and never
invalidates cached references.
"""

from __future__ import annotations

import time
from array import array
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down; remembers the last write."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A distribution of observed values with exact percentiles.

    Every value is kept, unboxed, as an 8-byte double (the simulations
    here observe at most a few million samples per run); percentiles are
    computed on demand with the nearest-rank method, so no numpy
    dependency and no binning error.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values = array("d")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._values.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the observed values, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[int(rank)]

    def values(self) -> list[float]:
        return list(self._values)

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        del self._values[:]

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class Timer:
    """Context manager observing wall-clock elapsed seconds into a histogram.

    ::

        with Timer(registry.histogram("adapt.phase.monitor_s")):
            coordinator.monitor(leaders, round_id)
    """

    __slots__ = ("histogram", "_start", "elapsed")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
        self.histogram.observe(self.elapsed)


class MetricsRegistry:
    """Named metrics with stable identity across resets.

    ``counter/gauge/histogram`` return the existing metric
    when the name is already registered (creating it on first use), so
    hot call sites can cache the object once.  Asking for a name that
    exists with a *different* metric type is a programming error.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric
        if type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def __iter__(self) -> Iterable:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric's value; registered objects stay valid."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> list[dict]:
        """One JSON-ready dict per metric, sorted by name."""
        return [metric.snapshot() for metric in self]
