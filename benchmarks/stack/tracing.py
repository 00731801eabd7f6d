"""Timing wrappers around the public entry points of each layer.

The traced run installs these from the benchmark's own files, before any
world is built: peers register their bound ``handle_message`` with the
transport at construction, and ``SimTransport`` rebinds ``send`` and
``schedule`` to bound methods in ``__init__``, so a wrapper installed later
would never be called.

A span is one wrapped call: layer, name, start, end, parent (by wrapper
nesting) and the operation it belongs to (``query_id``/``fetch_id`` found in
the arguments, else inherited from the enclosing span).  Per-(layer, name)
aggregates -- calls, total time, self time -- are always kept.  Full spans
are kept for one operation in ``SAMPLE_EVERY`` and written as JSONL when the
run ends.  Self time is the span's duration minus the part its child spans
cover, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

SAMPLE_EVERY = 64
#: spans held in memory at most; later sampled spans are counted, not kept.
MAX_SPANS = 200_000

# Frame layout (a list, for speed): time covered by child spans, span id,
# operation id, operation kind, whether the span is being recorded.
_CHILD, _SPAN, _OP, _KIND, _SAMPLED = range(5)


def _named_first(kind):
    """The operation is the call's first argument (after ``self``)."""
    def op_of(args):
        return (args[1], kind) if len(args) > 1 else None

    return op_of


def _operation(payload):
    """The operation a protocol payload belongs to, or None."""
    op = getattr(payload, "query_id", None)
    if op is not None:
        return op, "query"
    op = getattr(payload, "fetch_id", None)
    if op is not None:
        return op, "fetch"
    return None


def _of_message(args):
    return _operation(args[1].payload)


def _of_payload(args):
    return _operation(args[1])


class Tracer:
    """Aggregates and sampled spans for one traced run."""

    def __init__(self) -> None:
        #: (layer, name) -> [calls, total ns, self ns]
        self.aggregates: dict[tuple[str, str], list[int]] = {}
        #: (layer, name) -> sum of the wrapper's ``measure`` callback.
        self.sums: dict[tuple[str, str], int] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._reserved = 0
        self._stack: list[list] = []
        self._next_span = 0
        #: child time of the running ``Simulator.run`` frame when the last
        #: event callback ended (see :meth:`on_event`).
        self._event_marker = 0
        self._event_layers: dict[object, list[int]] = {}
        self.events = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def aggregate(self, layer: str, name: str) -> list[int]:
        key = (layer, name)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0, 0]
        return agg

    def reset(self) -> None:
        """Forget everything measured so far; wrappers stay installed."""
        for agg in self.aggregates.values():
            agg[0] = agg[1] = agg[2] = 0
        for key in self.sums:
            self.sums[key] = 0
        self.spans.clear()
        self.spans_dropped = 0
        self._reserved = 0
        self.events = 0

    def totals(self) -> dict[tuple[str, str], tuple[int, int, int]]:
        """A copy of the aggregates: (layer, name) -> (calls, total, self)."""
        return {key: tuple(agg) for key, agg in self.aggregates.items()}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, name: str | None = None,
             op_of=None, measure=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``op_of(args)`` returns ``(id, kind)`` when the call names its
        operation; ``measure(args, result)`` returns a number summed into
        :attr:`sums` (bytes encoded, bytes appended).
        """
        original = getattr(owner, attr)
        name = name or attr.strip("_")
        agg = self.aggregate(layer, name)
        key = (layer, name)
        if measure is not None:
            self.sums.setdefault(key, 0)
        stack = self._stack
        spans = self.spans
        sums = self.sums
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            op = op_of(args) if op_of is not None else None
            if op is not None:
                op_id, op_kind = op
            elif parent is not None:
                op_id, op_kind = parent[_OP], parent[_KIND]
            else:
                op_id = op_kind = None
            sampled = op_id is not None and op_id % SAMPLE_EVERY == 0
            if sampled:
                # Decided on entry, so that a kept span's parent is kept.
                if tracer._reserved < MAX_SPANS:
                    tracer._reserved += 1
                else:
                    sampled = False
                    tracer.spans_dropped += 1
            tracer._next_span += 1
            frame = [0, tracer._next_span, op_id, op_kind, sampled]
            stack.append(frame)
            started = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                stack.pop()
                elapsed = ended - started
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[_CHILD]
                if parent is not None:
                    parent[_CHILD] += elapsed
                if sampled:
                    spans.append((
                        frame[_SPAN],
                        parent[_SPAN]
                        if parent is not None and parent[_SAMPLED]
                        else None,
                        layer, name, started, ended, op_id, op_kind,
                    ))
            if measure is not None:
                sums[key] += measure(args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)

    def on_event(self, event, elapsed_s: float) -> None:
        """``Simulator.event_hook``: attribute a callback's own time.

        The engine calls this after each event callback with its duration.
        Wrapped calls made by the callback have already added their time to
        the running ``Simulator.run`` frame; what is left is the callback's
        own code (a delivery closure, a timer body), which belongs to the
        module that defined it and not to the engine.
        """
        self.events += 1
        frame = self._stack[-1]
        elapsed = int(elapsed_s * 1e9)
        own = elapsed - (frame[_CHILD] - self._event_marker)
        if own < 0:
            own = 0
        callback = event.callback
        code = getattr(callback, "__code__", None)
        agg = self._event_layers.get(code)
        if agg is None:
            module = getattr(callback, "__module__", None) or "sim.engine"
            layer = module[6:] if module.startswith("repro.") else module
            agg = self._event_layers[code] = self.aggregate(layer, "event")
        agg[0] += 1
        agg[1] += own
        agg[2] += own
        frame[_CHILD] += own
        self._event_marker = frame[_CHILD]

    def begin_run(self) -> None:
        """A ``Simulator.run`` frame was just pushed: restart the marker."""
        self._event_marker = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the entry points of every layer (see the module docstring)."""
        def module(name):
            # Not ``import a.b as c``: packages re-export functions under
            # their module's name (``repro.core.maxfair`` is a function).
            return importlib.import_module("repro." + name)

        fetcher = module("content.fetcher")
        healer = module("content.healer")
        manifest = module("content.manifest")
        maxfair = module("core.maxfair")
        popularity = module("core.popularity")
        reassign = module("core.reassign")
        replication = module("core.replication")
        journal = module("durability.journal")
        store = module("durability.store")
        live_transport = module("live.transport")
        model_system = module("model.system")
        workload = module("model.workload")
        cache = module("overlay.cache")
        peer = module("overlay.peer")
        replication_manager = module("overlay.replication_manager")
        service = module("overlay.service")
        system = module("overlay.system")
        channel = module("reliability.channel")
        engine = module("sim.engine")
        network = module("sim.network")
        reliable = module("transport.reliable")
        wire = module("transport.wire")

        wrap = self.wrap
        tracer = self

        # sim.engine: run/schedule/cancel, plus the engine's own event hook
        # so that callback bodies are charged to the layer that owns them.
        original_init = engine.Simulator.__init__

        def simulator_init(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            sim.event_hook = tracer.on_event

        engine.Simulator.__init__ = simulator_init
        wrap(engine.Simulator, "schedule", "sim.engine")
        wrap(engine.Event, "cancel", "sim.engine")
        wrap(engine.Simulator, "run", "sim.engine")
        traced_run = engine.Simulator.run

        def run(sim, *args, **kwargs):
            tracer.begin_run()
            return traced_run(sim, *args, **kwargs)

        engine.Simulator.run = run

        wrap(network.Network, "transmit", "sim.network")
        wrap(reliable.ReliableTransport, "send", "transport")

        # transport.wire: live.transport imported both functions by name, so
        # its namespace is patched too.
        def encoded_bytes(args, result):
            return len(result)

        for module in (wire, live_transport):
            wrap(module, "encode_frame", "transport.wire", "encode",
                 measure=encoded_bytes)
            wrap(module, "decode_frame", "transport.wire", "decode")
        wrap(live_transport.AsyncioTransport, "send", "live.transport")
        wrap(live_transport.AsyncioTransport, "_on_datagram",
             "live.transport", "receive")
        wrap(live_transport.AsyncioTransport, "_deliver", "live.transport")

        wrap(channel.ReliableChannel, "send", "reliability.channel")
        wrap(channel.ReliableChannel, "observe", "reliability.channel",
             op_of=_of_message)
        wrap(channel.ReliableChannel, "handle_ack", "reliability.channel")

        wrap(peer.Peer, "start_query", "overlay.peer",
             op_of=_named_first("query"))
        wrap(peer.Peer, "handle_message", "overlay.peer",
             op_of=_of_message)
        wrap(peer.Peer, "store_document", "overlay.peer")
        wrap(service.ServiceQueue, "offer", "overlay.service",
             op_of=_of_payload)
        wrap(cache.DocumentCache, "touch", "overlay.cache")
        wrap(cache.DocumentCache, "add", "overlay.cache")
        wrap(replication_manager.ReplicationManager, "run_round",
             "overlay.replication_manager")

        wrap(manifest.ContentManager, "fetch", "content.manifest")
        for module in (fetcher, manifest):
            wrap(module, "chunk_hash", "content.chunks")
        wrap(fetcher.PeerContent, "start_fetch", "content.fetcher",
             op_of=_named_first("fetch"))
        wrap(fetcher.PeerContent, "serve_chunk", "content.fetcher",
             op_of=_of_payload)
        wrap(fetcher.PeerContent, "handle_chunk_data", "content.fetcher",
             op_of=_of_payload)
        wrap(healer.ContentHealer, "run_round", "content.healer")

        def appended_bytes(args, result):
            return len(args[1])

        wrap(journal.PeerJournal, "record", "durability.journal")
        wrap(journal.PeerJournal, "compact", "durability.journal")
        wrap(journal.PeerJournal, "load", "durability.journal")
        wrap(store.MemoryStore, "append", "durability.store",
             "memory_append", measure=appended_bytes)
        wrap(store.FileStore, "append", "durability.store", "file_append",
             measure=appended_bytes)

        wrap(system.P2PSystem, "__init__", "overlay.system", "bootstrap")
        for method in (
            "run_workload", "power_loss", "recover_node",
            "run_failure_detector_rounds", "run_replication_round",
            "run_healing_round", "run_reconciliation_round",
        ):
            wrap(system.P2PSystem, method, "overlay.system")

        # ``zipf_category_scenario`` calls the name it imported.
        for module in (model_system, workload):
            wrap(module, "build_system", "model.system", "build")
        wrap(workload, "add_hot_documents", "model.workload")
        wrap(popularity, "build_category_stats", "core.popularity", "stats")
        wrap(maxfair, "maxfair", "core.maxfair", "assign")
        wrap(replication, "plan_replication", "core.replication", "plan")
        wrap(reassign, "maxfair_reassign", "core.reassign", "reassign")

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_spans(self, path, meta: dict) -> int:
        """Write the sampled spans as JSONL; returns the number written.

        The first line is a ``meta`` record.  Times are microseconds from
        the first span's start.
        """
        origin = min((span[4] for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "meta", **meta}) + "\n")
            for span_id, parent, layer, name, start, end, op, kind in self.spans:
                handle.write(json.dumps({
                    "type": "span",
                    "id": span_id,
                    "parent": parent,
                    "layer": layer,
                    "name": name,
                    "start_us": (start - origin) / 1000.0,
                    "end_us": (end - origin) / 1000.0,
                    "op": op,
                    "op_kind": kind,
                }) + "\n")
        return len(self.spans)
