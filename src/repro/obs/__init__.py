"""Simulation-time-aware observability: metrics, tracing, exporters.

The repro's claims are *measured* claims, and the ROADMAP's north star
("as fast as the hardware allows") means every optimization needs a
before/after number.  :mod:`repro.obs` is the shared substrate for both:

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  primitives, a wall-clock ``Timer`` context manager, and a
  ``SimHistogram`` stamped with simulation time;
* :mod:`repro.obs.trace` — a ``TraceLog`` of typed trace events behind a
  global enabled/disabled switch (near-zero overhead when off);
* :mod:`repro.obs.export` — JSONL snapshot exporters.

Process-wide instances
----------------------

The simulation core records into a process-wide default registry and
trace log::

    from repro import obs

    obs.TRACE.enable()                  # opt into tracing
    ... run an experiment ...
    obs.dump_jsonl("run.jsonl", obs.REGISTRY, obs.TRACE)
    obs.reset()                         # zero metrics, drop trace events

``REGISTRY`` hands back the *same* metric object for the same name, so
hot call sites (``Simulator``, ``Network``, ``Peer``) cache their metric
objects once at import/construction time; ``reset()`` zeroes values
without invalidating those references.  Isolated ``MetricsRegistry`` /
``TraceLog`` instances can be created freely for tests.
"""

from repro.obs.export import dump_jsonl, snapshot, write_jsonl
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SimHistogram,
    Timer,
)
from repro.obs.trace import TraceEvent, TraceLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimHistogram",
    "Timer",
    "TraceEvent",
    "TraceLog",
    "REGISTRY",
    "TRACE",
    "counter",
    "gauge",
    "histogram",
    "sim_histogram",
    "reset",
    "snapshot",
    "write_jsonl",
    "dump_jsonl",
]

#: process-wide default registry the simulation core records into.
REGISTRY = MetricsRegistry()

#: process-wide trace log; disabled by default.
TRACE = TraceLog()


def counter(name: str) -> Counter:
    """The default registry's counter ``name`` (created on first use)."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """The default registry's gauge ``name`` (created on first use)."""
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """The default registry's histogram ``name`` (created on first use)."""
    return REGISTRY.histogram(name)


def sim_histogram(name: str, clock=None) -> SimHistogram:
    """The default registry's sim-time histogram ``name``."""
    return REGISTRY.sim_histogram(name, clock)


def reset() -> None:
    """Zero all default-registry metrics and drop all trace events."""
    REGISTRY.reset()
    TRACE.clear()
