"""Snapshot exporters: JSONL records for tooling.

An experiment run dumps one snapshot next to its results
(``repro-experiments E3 --metrics-out run.jsonl``).  The JSONL format is
one self-describing JSON object per line:

* a ``meta`` header line (schema version, metric/trace counts);
* one line per metric (``counter``/``gauge`` with its value,
  ``histogram`` with count/mean/min/max/p50/p99);
* optionally one line per trace event (``type: "trace"``).
"""

from __future__ import annotations

import json
from typing import TextIO

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceLog

__all__ = ["snapshot", "write_jsonl", "dump_jsonl"]

SCHEMA_VERSION = 1


def snapshot(
    registry: MetricsRegistry,
    trace: TraceLog | None = None,
    deterministic: bool = False,
) -> list[dict]:
    """All JSON-ready records of a registry (and optionally a trace).

    With ``deterministic``, histograms are dropped: every histogram is a
    wall-clock :class:`~repro.obs.metrics.Timer` reading, so it differs
    between otherwise identical runs.  Counters and gauges are pure
    functions of the seeded simulation, so what remains is
    byte-reproducible — the determinism regression tests diff these
    snapshots directly.
    """
    metric_records = [
        record
        for record in registry.snapshot()
        if not (deterministic and record["type"] == "histogram")
    ]
    records: list[dict] = [
        {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "n_metrics": len(metric_records),
            "n_trace_events": len(trace) if trace is not None else 0,
            "trace_dropped": trace.dropped_events if trace is not None else 0,
        }
    ]
    records.extend(metric_records)
    if trace is not None:
        records.extend(event.snapshot() for event in trace)
    return records


def write_jsonl(
    stream: TextIO,
    registry: MetricsRegistry,
    trace: TraceLog | None = None,
    deterministic: bool = False,
) -> int:
    """Write a snapshot to an open stream; returns the line count."""
    records = snapshot(registry, trace, deterministic=deterministic)
    for record in records:
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")
    return len(records)


def dump_jsonl(
    path: str,
    registry: MetricsRegistry,
    trace: TraceLog | None = None,
    deterministic: bool = False,
) -> int:
    """Write a snapshot to ``path``; returns the line count."""
    with open(path, "w", encoding="utf-8") as stream:
        return write_jsonl(stream, registry, trace, deterministic=deterministic)

