"""Every configuration field earns a caller outside the tests, and every
``PeerHooks`` callback a world that acts on it.

A field of one of the seven dataclasses a world is built from must be
passed as a keyword (to its class or ``dataclasses.replace``) by a call
in ``src/`` outside the class's module, ``benchmarks/`` or ``examples/``:
a value no caller sets is a module constant, not a knob.  A keyword that
only forwards another config's field of the same name
(``nrt_capacity=self.config.nrt_capacity``) counts when that field is set.
"""

import itertools

from tests.program_index import ProgramIndex, callee, program

CONFIGS = (
    "P2PSystemConfig", "PeerConfig", "ReliabilityConfig", "ServiceConfig",
    "ReplicationConfig", "ContentConfig", "DurabilityConfig",
)


def unset_fields(index: ProgramIndex, classes: dict[str, tuple[str, list[str]]]) -> list[str]:
    """``Class.field`` for every field no caller sets; ``classes`` maps a
    class name to its home module's path and its field names."""
    direct, forwards = set(), set()
    for path, call, _, _ in index.calls:
        name = callee(call)
        if name == "replace":
            targets = list(classes)
        elif name in classes and classes[name][0] != path:
            targets = [name]
        else:
            continue
        for keyword, target in itertools.product(call.keywords, targets):
            forwarded = getattr(keyword.value, "attr", None) == keyword.arg and any(
                keyword.arg in fields for other, (_, fields) in classes.items() if other != target)
            (forwards if forwarded else direct).add((target, keyword.arg))
    return [
        f"{name}.{field}"
        for name, (_, fields) in classes.items()
        for field in fields
        if (name, field) not in direct and not (
            (name, field) in forwards
            and any((other, field) in direct for other in classes if other != name))
    ]


def _config_classes() -> dict[str, tuple[str, list[str]]]:
    """Each config's module and fields (its class-level annotations)."""
    index = program()
    return {
        name: (path, [field for owner, field in index.annotations if owner == name])
        for path, owner, name in index.defs if owner is None and name in CONFIGS
    }


def test_every_config_field_is_set_outside_the_tests():
    assert unset_fields(program(), _config_classes()) == []


def test_config_surface_size():
    sizes = {name: len(fields) for name, (_, fields) in _config_classes().items()}
    assert sizes == {
        "P2PSystemConfig": 9, "PeerConfig": 4, "ReliabilityConfig": 11, "ServiceConfig": 4,
        "ReplicationConfig": 3, "ContentConfig": 5, "DurabilityConfig": 2,
    }


def test_peer_hooks_surface():
    # A PeerHooks method exists only for an event the world acts on (what
    # is only counted goes to repro.obs), and the ledger acts on each.
    methods = {owner: sorted(n for _, o, n in program().defs if o == owner and n[0] != "_")
               for owner in ("PeerHooks", "WorldLedger")}
    assert methods["PeerHooks"] == [
        "lookup_holders", "on_cluster_joined", "on_document_dropped", "on_document_stored",
        "on_leave_notice", "on_query_failed", "on_query_response",
    ]
    assert set(methods["PeerHooks"]) <= set(methods["WorldLedger"])


def test_checker_on_synthetic_source():
    classes = {
        "WorldConfig": ("pkg/world.py", ["seed", "capacity", "ttl", "unused"]),
        "NodeConfig": ("pkg/node.py", ["capacity", "ttl", "home", "tuned", "size"]),
    }
    sources = {
        "pkg/world.py": (
            "NodeConfig(capacity=self.config.capacity, ttl=self.config.ttl)\n"
            "WorldConfig(unused=1)\n"  # its own module does not count
        ),
        "pkg/node.py": "NodeConfig(home=2)\n",
        "pkg/run.py": (
            "import dataclasses\n"
            "WorldConfig(seed=1, capacity=4)\n"
            "NodeConfig(size=world.size)\n"  # no config has a ``size``
            "dataclasses.replace(config, tuned=True)\n"
            "other(home=3)\n"
        ),
    }
    # ``ttl`` is only forwarded from a field nobody sets; ``home`` is only
    # set in its own module and by a call of some other function.
    assert unset_fields(ProgramIndex(sources), classes) == [
        "WorldConfig.ttl", "WorldConfig.unused", "NodeConfig.ttl", "NodeConfig.home",
    ]
