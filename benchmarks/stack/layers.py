"""Per-layer time metrics, computed from the traced run's aggregates.

Counts and ratios come from the program's own counters (see
``workloads._layer_counts``); this module turns the tracer's
(calls, total, self) aggregates into the ``*_us_*``, ``*_ms`` and ``*_s``
metrics.  A layer that a workload does not exercise reads 0.
"""

from __future__ import annotations

from harness import ratio


class Aggregates:
    """Read access to one ``Tracer.totals()`` copy."""

    def __init__(self, totals: dict) -> None:
        self.totals = totals

    def calls(self, layer: str, *names: str) -> int:
        return sum(self.totals.get((layer, n), (0, 0, 0))[0] for n in names)

    def total_ns(self, layer: str, *names: str) -> int:
        return sum(self.totals.get((layer, n), (0, 0, 0))[1] for n in names)

    def self_ns(self, layer: str | None = None, *names: str) -> int:
        """Self time of the named spans, of a layer, or of everything."""
        return sum(
            agg[2]
            for (span_layer, name), agg in self.totals.items()
            if (layer is None or span_layer == layer)
            and (not names or name in names)
        )

    def mean_total(self, layer: str, name: str, unit_ns: float) -> float:
        return ratio(self.total_ns(layer, name), self.calls(layer, name)) / unit_ns


US, MS, S = 1e3, 1e6, 1e9


def time_metrics(timed: Aggregates, setup: Aggregates, sums: dict,
                 events: int, ops: int) -> dict[str, float]:
    """The time metrics of every layer.

    ``timed`` holds what ran after the warm-up, ``setup`` what ran while the
    world was built; a build step is read from ``timed`` where the workload
    repeats it per operation (``placement_paper``) and from ``setup``
    otherwise.
    """
    def build_step(layer: str, name: str, unit_ns: float) -> float:
        source = timed if timed.calls(layer, name) else setup
        return source.mean_total(layer, name, unit_ns)

    encode_calls = timed.calls("transport.wire", "encode")
    records = timed.calls("durability.journal", "record")
    appends = timed.calls("durability.store", "memory_append")
    return {
        "sim.engine.self_us_per_event": ratio(
            timed.self_ns("sim.engine"), events
        ) / US,
        "sim.network.self_us_per_msg": ratio(
            timed.self_ns("sim.network"),
            timed.calls("sim.network", "transmit"),
        ) / US,
        "transport.self_us_per_msg": ratio(
            timed.self_ns("transport"), timed.calls("transport", "send")
        ) / US,
        "transport.wire.encode_us_per_frame": timed.mean_total(
            "transport.wire", "encode", US
        ),
        "transport.wire.decode_us_per_frame": timed.mean_total(
            "transport.wire", "decode", US
        ),
        "transport.wire.bytes_per_frame": ratio(
            sums.get(("transport.wire", "encode"), 0), encode_calls
        ),
        "transport.wire.frames_per_op": ratio(encode_calls, ops),
        "live.transport.send_self_us_per_msg": ratio(
            timed.self_ns("live.transport", "send"),
            timed.calls("live.transport", "send"),
        ) / US,
        "reliability.channel.self_us_per_send": ratio(
            timed.self_ns("reliability.channel"),
            timed.calls("reliability.channel", "send"),
        ) / US,
        "reliability.detector.round_ms": timed.mean_total(
            "overlay.system", "run_failure_detector_rounds", MS
        ),
        "overlay.peer.handle_self_us_per_msg": ratio(
            timed.self_ns("overlay.peer", "handle_message"),
            timed.calls("overlay.peer", "handle_message"),
        ) / US,
        "overlay.peer.start_query_us": timed.mean_total(
            "overlay.peer", "start_query", US
        ),
        "overlay.service.self_us_per_query": ratio(
            timed.self_ns("overlay.service"),
            timed.calls("overlay.service", "offer"),
        ) / US,
        "overlay.cache.self_us_per_op": ratio(
            timed.self_ns("overlay.cache"),
            timed.calls("overlay.cache", "touch", "add"),
        ) / US,
        "overlay.replication_manager.round_ms": timed.mean_total(
            "overlay.system", "run_replication_round", MS
        ),
        "overlay.system.bootstrap_s": setup.mean_total(
            "overlay.system", "bootstrap", S
        ),
        "overlay.system.run_workload_self_us_per_op": ratio(
            timed.self_ns("overlay.system", "run_workload"), ops
        ) / US,
        "overlay.system.recover_node_ms": timed.mean_total(
            "overlay.system", "recover_node", MS
        ),
        "overlay.system.heal_round_ms": timed.mean_total(
            "overlay.system", "run_healing_round", MS
        ),
        "overlay.system.reconcile_round_ms": timed.mean_total(
            "overlay.system", "run_reconciliation_round", MS
        ),
        "content.manifest.fetch_start_us": ratio(
            timed.self_ns("content.manifest", "fetch"),
            timed.calls("content.manifest", "fetch"),
        ) / US,
        "content.chunks.hash_us_per_chunk": timed.mean_total(
            "content.chunks", "chunk_hash", US
        ),
        "content.fetcher.self_us_per_chunk": ratio(
            timed.self_ns("content.fetcher"),
            timed.calls("content.fetcher", "handle_chunk_data"),
        ) / US,
        "content.healer.round_ms": timed.mean_total(
            "content.healer", "run_round", MS
        ),
        # Appending a record, without the compactions some appends trigger.
        "durability.journal.record_us": ratio(
            timed.total_ns("durability.journal", "record")
            - timed.total_ns("durability.journal", "compact"),
            records,
        ) / US,
        "durability.journal.compact_ms": build_step(
            "durability.journal", "compact", MS
        ),
        "durability.journal.load_ms": timed.mean_total(
            "durability.journal", "load", MS
        ),
        "durability.journal.wal_bytes_per_record": ratio(
            sums.get(("durability.store", "memory_append"), 0), appends
        ),
        "durability.store.memory_append_us": timed.mean_total(
            "durability.store", "memory_append", US
        ),
        "model.system.build_s": build_step("model.system", "build", S),
        "core.popularity.stats_s": build_step("core.popularity", "stats", S),
        "core.maxfair.assign_s": build_step("core.maxfair", "assign", S),
        "core.replication.plan_s": build_step("core.replication", "plan", S),
        "core.reassign.reassign_s": timed.mean_total(
            "core.reassign", "reassign", S
        ),
    }
