"""The world-truth ratchet: peer-side modules read no global state.

A peer's protocols (modules under ``overlay/`` other than the world's
own ``system.py`` and ``ledger.py``, ``content/`` and ``reliability/``)
should act on what the peer has heard, not on the simulator's omniscient
view: ``alive_peers``, ``peers_in_cluster``, ``alive_among``,
``system.ledger``, and ``is_alive`` asked of anything but the peer's own
transport.  The reads that remain are listed below per (module,
function); a change may shrink the list, and a new read fails here.
"""

from tests.program_index import ProgramIndex, program

WORLD_TRUTH = {"alive_peers", "peers_in_cluster", "alive_among"}

WORLD_TRUTH_READS = {
    ("content/healer.py", "ContentHealer.run_round"): 1,
    ("content/manifest.py", "ContentManager.chunk_sources"): 1,
    ("content/manifest.py", "ContentManager.fetch"): 1,
    ("content/manifest.py", "ContentManager.live_holders"): 1,
    ("overlay/adaptation.py", "AdaptationCoordinator.elect_leaders"): 4,
    ("overlay/adaptation.py", "AdaptationCoordinator.exchange_reports"): 1,
    ("overlay/adaptation.py", "broadcast_notice"): 2,
    ("overlay/adaptation.py", "plan_category_move"): 2,
    ("overlay/epidemic.py", "dcrt_convergence"): 1,
    ("overlay/misbehavior.py", "arm"): 3,
    ("overlay/recovery.py", "RecoveryCoordinator.run_round"): 2,
    ("overlay/replication_manager.py", "ReplicationManager._hot_docs"): 2,
    ("overlay/replication_manager.py", "ReplicationManager._read_signals"): 3,
    ("overlay/replication_manager.py", "converge"): 3,
    ("overlay/replication_manager.py", "floor_targets"): 1,
    ("overlay/replication_manager.py", "graceful_shutdown"): 3,
    ("overlay/replication_manager.py", "home_candidates"): 1,
}


def world_truth_reads(index: ProgramIndex) -> dict[tuple[str, str], int]:
    """(module, function) -> its reads of world truth, in the modules that
    are to hold only a peer's view of its world."""
    reads: dict[tuple[str, str], int] = {}
    for ref in index.refs:
        module = ref.path.removeprefix("src/repro/")
        if ref.kind != "attr" or not module.startswith(("overlay/", "content/", "reliability/")):
            continue
        receiver = getattr(ref.receiver, "id", None) or getattr(ref.receiver, "attr", None)
        if module not in ("overlay/system.py", "overlay/ledger.py") and (
            ref.name in WORLD_TRUTH
            or (ref.name == "ledger" and (receiver == "system" or "P2PSystem" in (ref.types or ())))
            or (ref.name == "is_alive" and receiver != "transport")
        ):
            where = (module, ".".join(filter(None, (ref.enclosing or (0, "<module>"))[1:])))
            reads[where] = reads.get(where, 0) + 1
    return reads


def test_world_truth_reads_only_shrink():
    assert world_truth_reads(program()) == WORLD_TRUTH_READS
    assert sum(WORLD_TRUTH_READS.values()) == 32


def test_a_new_world_truth_read_fails_the_rule():
    index = ProgramIndex({
        "src/repro/overlay/gossip.py": (
            "class Gossip:\n"
            "    def round(self, system):\n"
            "        for peer in system.alive_peers():\n"
            "            self.system.ledger.holders(peer)\n"
            "        if self.peer.transport.is_alive(3):\n"  # its own transport
            "            self.system.network.is_alive(4)\n"
            "def pick(system):\n"
            "    return system.network.alive_among({1, 2}), system.ledger\n"
        ),
        # The world's own modules and other packages are not checked.
        "src/repro/overlay/system.py": "def f(self):\n    return self.alive_peers()\n",
        "src/repro/sim/network.py": "def g(net):\n    return net.alive_among(())\n",
    })
    assert world_truth_reads(index) == {
        ("overlay/gossip.py", "Gossip.round"): 3,
        ("overlay/gossip.py", "pick"): 2,
    }
