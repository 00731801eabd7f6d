"""WORLD — what a world costs to build: calls, seconds and bytes by scale.

The paper's experiments run at |N| = 20,000; every discrete-event row of
EXPERIMENTS.md runs at a fraction of that, and the reason is the world,
not the queries: ``P2PSystem(...)`` is most of a simulation's set-up and
all of its resident memory.  This experiment makes that cost a table.
For each scale it builds the paper's Zipf world (``build_world``, every
optional layer off) in a *fresh interpreter* and reports

* how big the world is — nodes, cluster memberships, document copies
  placed, NRT entries;
* what the build costs — wall seconds, Python-level calls, the
  interpreter's peak RSS, the collector passes started inside it and
  their seconds (a build runs with the collector paused, so both read 0),
  and the seconds of one full collection right after it;
* where the bytes are — the ``tracemalloc`` total of the build, split
  over the seven structures that grow with the world (each sized by
  walking it with ``sys.getsizeof``, shared objects counted once), and the
  rest.

Seconds are the least repeatable column (on a multi-GB heap they follow
page faults more than the code), so the gates are on passes, calls and
bytes: no collector pass inside the build, fewer calls than copies
placed, bytes that grow no faster than ``copies + NRT entries``, NRT
tables of about a pointer per entry (a recency-ordered list, not a dict),
one DCRT the peers share, a DT that costs nothing beside the stored
documents, slotted peers and components over one dispatch table a world
shares, and — the one optional layer whose build grows with the world —
a content data plane that adds a few calls per document and peer
(:func:`content_calls`), not one per chunk.
With durability on, the baseline snapshots encode one ``store`` body per
document, not one per copy (:func:`durable_baseline`).
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from itertools import chain
from types import MethodType

from repro.content.chunks import ContentConfig
from repro.core.replication import build_world
from repro.durability import DurabilityConfig
from repro.experiments.common import require
from repro.metrics.report import format_table
from repro.overlay.system import P2PSystem, P2PSystemConfig

__all__ = [
    "SITES", "WorldRow", "WorldResult", "content_calls", "durable_baseline",
    "measure", "python_calls", "run", "format_result",
]

#: ceiling on NRT-table bytes per NRT entry: a list holds a pointer (8 B)
#: per entry, where an ``OrderedDict`` held 85-91 B.
NRT_BYTES_PER_ENTRY = 16
#: ceiling on DCRT bytes per peer: bootstrap hands every peer one table
#: (about 2 B a peer), where a copy per peer cost 225-633 B.
DCRT_BYTES_PER_PEER = 64
#: ceiling on docs + DT bytes per document copy: one dict slot and a share
#: of the holders' one ``DocInfo`` (43-53 B), where a DT dict beside
#: ``docs`` made it 84-100 B.
DOCS_DT_BYTES_PER_COPY = 64
#: ceiling on peer bytes per peer (the peer, its components and its
#: dispatch table): slotted objects over one table the world shares
#: (795-801 B), where a ``__dict__`` each and a table per peer made it
#: 5,488 B.
PEER_BYTES_PER_PEER = 960

#: the structures whose size follows the world's, in report order.
SITES = (
    "nrt_tables", "nrt_ids", "capability_tables", "holder_sets", "docs_dt", "dcrt",
    "peers",
)

#: the one world :func:`content_calls` and :func:`durable_baseline` build.
PROBE_SCALE = 0.03
PROBE_SEED = 7

_MIB = 1024 * 1024

#: what the fresh interpreter of one scale runs: ``-c _CHILD scale seed``.
_CHILD = (
    "import dataclasses, json, sys;"
    "from repro.experiments.world_size import measure;"
    "row = measure(float(sys.argv[1]), int(sys.argv[2]));"
    "print(json.dumps(dataclasses.asdict(row)))"
)


@dataclass(frozen=True, slots=True)
class WorldRow:
    """One scale's world, measured in a fresh interpreter."""

    scale: float
    nodes: int
    memberships: int
    copies: int
    nrt_entries: int
    build_s: float
    #: collector passes started inside the untraced build, and their seconds.
    gc_passes: int
    gc_s: float
    #: seconds of a full ``gc.collect()`` right after the untraced build.
    collect_s: float
    #: Python-level ``call`` events (``sys.setprofile``) inside the build.
    calls: int
    #: ``tracemalloc`` bytes still allocated when the build returns.
    traced_bytes: int
    #: site name -> bytes, in :data:`SITES` order.
    site_bytes: tuple[tuple[str, int], ...]
    #: the interpreter's ``ru_maxrss`` after one untraced build.
    rss_mib: float

    @property
    def bytes_per_entry(self) -> float:
        return self.traced_bytes / (self.copies + self.nrt_entries)


@dataclass(frozen=True, slots=True)
class WorldResult:
    seed: int
    rows: tuple[WorldRow, ...]


def _distinct_bytes(objects) -> int:
    """Summed ``sys.getsizeof`` of the distinct objects among ``objects``."""
    return sum(map(sys.getsizeof, {id(o): o for o in objects}.values()))


def _dicts_of(obj) -> list[dict]:
    """The dicts ``obj`` refers to directly."""
    return [ref for ref in gc.get_referents(obj) if type(ref) is dict]


def _peer_objects(peer) -> list:
    """A peer, its components, their instance dicts (slotted classes have
    none), and its dispatch table with the entries and bound methods in it."""
    owners = (peer, *peer.components)
    table = peer._dispatch
    entries = list(table.values())
    return [
        *owners,
        *(vars(owner) for owner in owners if hasattr(owner, "__dict__")),
        table,
        *entries,
        *(value for entry in entries for value in entry if type(value) is MethodType),
    ]


def _site_bytes(system: P2PSystem) -> dict[str, int]:
    """Bytes held by each world-sized structure, shared objects once."""
    size = sys.getsizeof
    peers = list(system.peers.values())
    tables = [t for peer in peers for t in peer.nrt._clusters.values()]
    # Ids the tables reference that the membership sets do not already own.
    member_ids = set(map(id, chain.from_iterable(system.topology.members.values())))
    table_ids = set(map(id, chain.from_iterable(tables)))
    capabilities = {
        id(table): table
        for peer in peers
        for table in peer.known_capabilities.values()
    }
    holders = system.ledger._doc_holders
    dcrts = {id(p.dcrt._entries): p.dcrt._entries for p in peers}
    return {
        "nrt_tables": sum(map(size, tables)),
        "nrt_ids": len(table_ids - member_ids) * size(1 << 20),
        # Shared tables once: every peer holds every cluster's table.
        "capability_tables": sum(map(size, capabilities.values())),
        "holder_sets": size(holders) + sum(map(size, holders.values())),
        # The DT with the dicts it holds; as a view of ``docs`` that is
        # ``docs`` itself, counted once.
        "docs_dt": _distinct_bytes(
            chain.from_iterable((p.docs, p.dt, *_dicts_of(p.dt)) for p in peers)
        )
        + _distinct_bytes(chain.from_iterable(p.docs.values() for p in peers)),
        # Peers share one bootstrap table until they change a row.
        "dcrt": _distinct_bytes(dcrts.values())
        + _distinct_bytes(chain.from_iterable(t.values() for t in dcrts.values())),
        # Peers of one world share a dispatch table until one changes it.
        "peers": _distinct_bytes(chain.from_iterable(map(_peer_objects, peers))),
    }


def python_calls(build):
    """``(build(), Python-level calls made inside it)``."""
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        calls += event == "call"  # Python functions only; C calls are "c_call"

    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        return build(), calls
    finally:
        sys.setprofile(previous)


def measure(scale: float, seed: int = 7) -> WorldRow:
    """Build the world twice in *this* process: once untraced (seconds,
    RSS), once under ``tracemalloc`` and ``sys.setprofile`` (bytes, calls).

    :func:`run` calls this in a fresh interpreter per scale, so the RSS is
    one world's and an earlier scale's garbage is not in it.
    """
    world = build_world(scale=scale, seed=seed)
    config = P2PSystemConfig(seed=seed)

    # Seconds of each collector pass started inside the build.
    passes: list[float] = []

    def timed(phase, info):
        if phase == "start":
            passes.append(time.perf_counter())
        else:
            passes[-1] = time.perf_counter() - passes[-1]

    gc.callbacks.append(timed)
    try:
        started = time.perf_counter()
        system = P2PSystem(*world, config=config)
        build_s = time.perf_counter() - started
    finally:
        gc.callbacks.remove(timed)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    started = time.perf_counter()
    gc.collect()
    collect_s = time.perf_counter() - started
    del system
    gc.collect()

    tracemalloc.start()
    try:
        system, calls = python_calls(lambda: P2PSystem(*world, config=config))
    finally:
        traced_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    peers = system.peers.values()
    sites = _site_bytes(system)
    return WorldRow(
        scale=scale,
        nodes=len(system.peers),
        memberships=sum(len(peer.memberships) for peer in peers),
        copies=sum(len(peer.docs) for peer in peers),
        nrt_entries=sum(
            len(table) for peer in peers for table in peer.nrt._clusters.values()
        ),
        build_s=build_s,
        gc_passes=len(passes),
        gc_s=sum(passes),
        collect_s=collect_s,
        calls=calls,
        traced_bytes=traced_bytes,
        site_bytes=tuple((name, sites[name]) for name in SITES),
        rss_mib=rss_mib,
    )


def run(
    scales: tuple[float, ...] = (0.03, 0.05, 0.1, 0.2), seed: int = 7
) -> WorldResult:
    """:func:`measure` every scale, each in a fresh interpreter."""
    rows = []
    for scale in scales:
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, str(scale), str(seed)],
            check=True, capture_output=True, text=True,
        )
        fields = json.loads(child.stdout)
        fields["site_bytes"] = tuple(map(tuple, fields["site_bytes"]))
        rows.append(WorldRow(**fields))
    return WorldResult(seed=seed, rows=tuple(rows))


def format_result(result: WorldResult) -> str:
    def mib(n_bytes: float) -> str:
        return f"{n_bytes / _MIB:.1f}"

    rows = []
    for row in result.rows:
        sites = dict(row.site_bytes)
        rows.append(
            [
                row.scale, row.nodes, row.memberships, row.copies, row.nrt_entries,
                f"{row.build_s:.2f}", row.gc_passes, f"{row.gc_s:.3f}",
                f"{row.collect_s:.3f}", row.calls, f"{row.calls / row.copies:.2f}",
                mib(row.traced_bytes), *(mib(sites[name]) for name in SITES),
                mib(row.traced_bytes - sum(sites.values())),
                f"{row.rss_mib:.0f}", f"{row.bytes_per_entry:.0f}",
            ]
        )
    return format_table(
        [
            "scale", "nodes", "memberships", "copies", "NRT entries", "build s",
            "gc passes", "gc s", "collect s", "calls", "calls/copy", "traced MiB",
            *SITES, "other", "RSS MiB", "B/(copy+entry)",
        ],
        rows,
        title=f"WORLD: cost of P2PSystem bootstrap by scale (seed {result.seed}; "
        "sites in MiB)",
    )


def content_calls() -> tuple[int, int]:
    """``(calls, documents + peers)``: the Python-level calls switching the
    content data plane on adds to one world's build, and the size they are
    held against — a manifest per document and a chunk endpoint per peer,
    no hash before a fetch reads it."""
    world = build_world(scale=PROBE_SCALE, seed=PROBE_SEED)
    on = P2PSystemConfig(seed=PROBE_SEED, content=ContentConfig(enabled=True))
    _, without = python_calls(
        lambda: P2PSystem(*world, config=P2PSystemConfig(seed=PROBE_SEED))
    )
    system, with_content = python_calls(lambda: P2PSystem(*world, config=on))
    return with_content - without, len(system.content.manifests) + len(system.peers)


def smoke() -> None:
    """CI gate: no collector pass starts inside a build, calls stay below
    copies, bytes grow no faster than the world, NRT tables stay near a
    pointer per entry, peers share the bootstrap DCRT, the DT costs nothing
    beside ``docs``, a peer is slotted objects over its world's one
    dispatch table, a content-on build adds a few calls per document and
    peer, and a durability-on build encodes one ``store`` body per
    document held."""
    result = run(scales=(0.01, 0.03))
    print(format_result(result))
    for row in result.rows:
        require(
            row.gc_passes == 0,
            f"scale {row.scale}: {row.gc_passes} collector passes in the build",
        )
        require(row.calls < row.copies, f"scale {row.scale}: {row.calls} calls")
        sites = dict(row.site_bytes)
        for label, per_unit, ceiling in (
            ("NRT-table bytes per NRT entry",
             sites["nrt_tables"] / row.nrt_entries, NRT_BYTES_PER_ENTRY),
            ("DCRT bytes per peer", sites["dcrt"] / row.nodes, DCRT_BYTES_PER_PEER),
            ("docs + DT bytes per copy",
             sites["docs_dt"] / row.copies, DOCS_DT_BYTES_PER_COPY),
            ("peer bytes per peer", sites["peers"] / row.nodes, PEER_BYTES_PER_PEER),
        ):
            print(f"scale {row.scale}: {per_unit:.1f} {label}")
            require(
                per_unit <= ceiling,
                f"scale {row.scale}: {per_unit:.1f} {label} (ceiling {ceiling})",
            )
    small, large = (row.bytes_per_entry for row in result.rows)
    # One-sided: a larger world amortises the per-peer constants and holds
    # relatively more (cheaper) NRT entries, so the figure falls with scale;
    # a structure growing faster than ``copies + NRT entries`` raises it.
    require(
        large <= 1.15 * small,
        f"bytes per (copy + NRT entry) {small:.0f} -> {large:.0f}: superlinear",
    )
    added, size = content_calls()
    print(f"content on at scale {PROBE_SCALE} adds {added} calls ({size} documents + peers)")
    require(added < 5 * size, f"content on adds {added} calls for {size}")
    encoded, documents, per_copy = durable_baseline()
    print(
        f"durability on at scale {PROBE_SCALE} encodes {encoded} store bodies "
        f"({documents} documents held); {per_copy:.1f} snapshot bytes per copy"
    )
    require(
        encoded == documents,
        f"durability on encodes {encoded} store bodies for {documents} documents",
    )


def durable_baseline() -> tuple[int, int, float]:
    """``(store bodies encoded, documents held, snapshot bytes per copy)``
    of one durability-on build, whose journals each get a baseline
    snapshot, encoded here by reading every journal's store once.  The
    world's body cache holds one body per distinct row encoded: fewer
    than the documents held means the snapshots bypassed it, more means
    a document was encoded under two rows."""
    world = build_world(scale=PROBE_SCALE, seed=PROBE_SEED)
    config = P2PSystemConfig(
        seed=PROBE_SEED, durability=DurabilityConfig(enabled=True)
    )
    system = P2PSystem(*world, config=config)
    held = {doc_id for peer in system.peers.values() for doc_id in peer.docs}
    snapshot_bytes = sum(
        len(system.journal(node_id).store.load()[0]) for node_id in system.peers
    )
    copies = sum(len(peer.docs) for peer in system.peers.values())
    return len(system.recovery.bodies), len(held), snapshot_bytes / copies
