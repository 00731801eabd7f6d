"""Tests for repro.obs — metrics primitives, tracing, exporters."""

import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs import trace as trace_module
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    TraceLog,
)


class TestCounter:
    def test_counts(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0

    def test_snapshot(self):
        c = Counter("hits")
        c.inc(2)
        assert c.snapshot() == {"type": "counter", "name": "hits", "value": 2}


class TestGauge:
    def test_set_keeps_the_last_write(self):
        g = Gauge("depth")
        g.set(10.0)
        g.set(11.5)
        assert g.value == 11.5

    def test_reset(self):
        g = Gauge("depth")
        g.set(7.0)
        g.reset()
        assert g.value == 0.0


class TestHistogram:
    def test_basic_stats(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0
        assert h.max == 4.0

    def test_percentiles_nearest_rank(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == pytest.approx(51.0)  # nearest rank
        assert h.percentile(100) == 100.0
        assert h.percentile(99) == pytest.approx(99.0, abs=1.0)

    def test_percentile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_empty_snapshot(self):
        snap = Histogram("x").snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_reset(self):
        h = Histogram("x")
        h.observe(5.0)
        h.reset()
        assert h.count == 0
        assert h.snapshot() == Histogram("x").snapshot()


class _ListStorage(Histogram):
    """Oracle: the same histogram over a plain list of boxed floats."""

    __slots__ = ()

    def __init__(self, name):
        super().__init__(name)
        self._values = []


class TestUnboxedStorage:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
        st.lists(st.floats(0.0, 100.0), max_size=5),
        st.booleans(),
    )
    def test_array_storage_answers_as_lists_do(self, samples, quantiles, reset):
        unboxed = Histogram("h")
        boxed = _ListStorage("h")
        for index, value in enumerate(samples):
            unboxed.observe(value)
            boxed.observe(value)
            if reset and index == len(samples) // 2:
                unboxed.reset()
                boxed.reset()
        for q in [0.0, 50.0, 99.0, 100.0, *quantiles]:
            assert unboxed.percentile(q) == boxed.percentile(q)
        assert unboxed.snapshot() == boxed.snapshot()
        assert list(unboxed._values) == boxed._values
        assert all(type(unboxed.percentile(q)) is float for q in (0.0, 50.0, 100.0))


class TestTimer:
    def test_records_elapsed(self):
        h = Histogram("t")
        with Timer(h) as t:
            time.sleep(0.002)
        assert h.count == 1
        assert t.elapsed >= 0.001
        assert h.max == pytest.approx(t.elapsed)


class TestRegistry:
    def test_same_name_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")
        reg.histogram("h")
        with pytest.raises(ValueError):
            reg.gauge("h")

    def test_reset_keeps_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(9)
        reg.reset()
        assert reg.counter("a") is c
        assert c.value == 0

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        names = [record["name"] for record in reg.snapshot()]
        assert names == ["a", "b"]

    def test_global_helpers_share_registry(self):
        c = obs.counter("test_obs.helper")
        assert obs.REGISTRY.get("test_obs.helper") is c
        c.reset()


class TestTraceLog:
    def test_disabled_records_nothing(self):
        log = TraceLog()
        log.emit("query_issue", node=1)
        assert len(log) == 0

    def test_enabled_records(self):
        log = TraceLog()
        log.enable()
        log.emit("msg_send", src=1, dst=2, kind="query")
        log.emit("msg_drop", src=1, dst=3, kind="query", reason="dst-dead")
        assert len(log) == 2
        assert [event.kind for event in log] == ["msg_send", "msg_drop"]
        assert list(log)[1].fields["reason"] == "dst-dead"

    def test_kind_field_allowed(self):
        # ``kind`` is positional-only on emit, so a field may reuse the name.
        log = TraceLog()
        log.enable()
        log.emit("msg_send", kind="gossip")
        assert list(log)[0].snapshot()["kind"] == "msg_send"

    def test_capacity_compaction_counts_drops(self, monkeypatch):
        monkeypatch.setattr(trace_module, "CAPACITY", 10)
        log = TraceLog()
        log.enable()
        for i in range(25):
            log.emit("tick", i=i)
        assert len(log) <= 10
        assert log.dropped_events > 0
        # The newest events survive.
        assert list(log)[-1].fields["i"] == 24

    def test_clear(self):
        log = TraceLog()
        log.enable()
        log.emit("tick")
        log.clear()
        assert len(log) == 0
        assert log.enabled  # clearing does not flip the switch

    def test_disabled_overhead_guard(self):
        """Disabled tracing must do strictly less work than enabled."""
        log = TraceLog()

        def emit_many(n=20_000):
            started = time.perf_counter()
            for i in range(n):
                log.emit("tick", i=i)
            return time.perf_counter() - started

        log.disable()
        disabled = min(emit_many() for _ in range(3))
        log.enable()
        enabled = min(emit_many() for _ in range(3))
        assert len(log) == 60_000
        assert disabled < enabled
        # Absolute sanity: 20k disabled emits stay well under 100 ms.
        assert disabled < 0.1


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("sim.events_processed").inc(12)
        reg.gauge("adapt.observed_fairness").set(0.9)
        h = reg.histogram("net.latency")
        h.observe(1.0)
        h.observe(3.0)
        trace = TraceLog()
        trace.enable()
        trace.emit("adapt_phase", round=0, phase="monitor")
        return reg, trace

    def test_jsonl_round_trip(self):
        reg, trace = self._populated()
        stream = io.StringIO()
        lines = obs.write_jsonl(stream, reg, trace)
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len(records) == lines == 1 + 3 + 1  # meta + metrics + trace
        assert records[0]["type"] == "meta"
        assert records[0]["n_metrics"] == 3
        by_name = {r.get("name"): r for r in records if "name" in r}
        assert by_name["sim.events_processed"]["value"] == 12
        assert by_name["net.latency"]["count"] == 2
        assert records[-1] == {
            "type": "trace",
            "kind": "adapt_phase",
            "round": 0,
            "phase": "monitor",
        }

    def test_dump_jsonl_writes_file(self, tmp_path):
        reg, trace = self._populated()
        path = tmp_path / "snap.jsonl"
        obs.dump_jsonl(str(path), reg, trace)
        assert path.exists()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["schema"] == 1

    def test_snapshot_without_trace(self):
        reg, _ = self._populated()
        records = obs.snapshot(reg)
        assert records[0]["n_trace_events"] == 0
        assert all(r["type"] != "trace" for r in records)
