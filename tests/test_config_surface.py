"""Every configuration field earns a caller outside the tests, and every
``PeerHooks`` callback a world that acts on it.

A field of one of the seven dataclasses a world is built from must be
passed as a keyword — to a call of its class or to
``dataclasses.replace`` — somewhere in ``src/`` (outside the class's own
module), ``benchmarks/`` or ``examples/``.  A value no such caller sets
is a module constant, not a knob: each independent option doubles what
the tests and benchmarks must cover.

A keyword that only forwards another config's field of the same name
(``nrt_capacity=self.config.nrt_capacity``) counts when that field is
set by a caller.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.content.chunks import ContentConfig
from repro.durability import DurabilityConfig
from repro.overlay.ledger import WorldLedger
from repro.overlay.peer import PeerConfig, PeerHooks
from repro.overlay.replication_manager import ReplicationConfig
from repro.overlay.service import ServiceConfig
from repro.overlay.system import P2PSystemConfig
from repro.reliability import ReliabilityConfig

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "benchmarks", "examples")
CONFIGS = (
    P2PSystemConfig,
    PeerConfig,
    ReliabilityConfig,
    ServiceConfig,
    ReplicationConfig,
    ContentConfig,
    DurabilityConfig,
)


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def unset_fields(
    sources: dict[str, str], classes: dict[str, tuple[str, list[str]]]
) -> list[str]:
    """``Class.field`` for every field no caller sets.

    ``sources`` maps a path to its Python text; ``classes`` maps a class
    name to its home module's path and its field names.
    """
    direct: set[tuple[str, str]] = set()
    forwards: set[tuple[str, str]] = set()
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee(node)
            if callee == "replace":
                targets = list(classes)
            elif callee in classes and classes[callee][0] != path:
                targets = [callee]
            else:
                continue
            for keyword in node.keywords:
                value = keyword.value
                for name in targets:
                    forwarded = (
                        isinstance(value, ast.Attribute)
                        and value.attr == keyword.arg
                        and any(
                            keyword.arg in fields
                            for other, (_, fields) in classes.items()
                            if other != name
                        )
                    )
                    (forwards if forwarded else direct).add((name, keyword.arg))

    def is_set(name: str, field: str) -> bool:
        return (name, field) in direct or (
            (name, field) in forwards
            and any(
                (other, field) in direct for other in classes if other != name
            )
        )

    return [
        f"{name}.{field}"
        for name, (_, fields) in classes.items()
        for field in fields
        if not is_set(name, field)
    ]


def _program_sources() -> dict[str, str]:
    return {
        str(path.relative_to(REPO)): path.read_text()
        for root in ROOTS
        for path in sorted((REPO / root).rglob("*.py"))
    }


def _config_classes() -> dict[str, tuple[str, list[str]]]:
    return {
        cls.__name__: (
            str(Path(inspect.getsourcefile(cls)).resolve().relative_to(REPO)),
            [field.name for field in dataclasses.fields(cls)],
        )
        for cls in CONFIGS
    }


def test_every_config_field_is_set_outside_the_tests():
    assert unset_fields(_program_sources(), _config_classes()) == []


def test_config_surface_size():
    sizes = {name: len(fields) for name, (_, fields) in _config_classes().items()}
    assert sizes == {
        "P2PSystemConfig": 9,
        "PeerConfig": 4,
        "ReliabilityConfig": 11,
        "ServiceConfig": 4,
        "ReplicationConfig": 3,
        "ContentConfig": 5,
        "DurabilityConfig": 2,
    }


def test_peer_hooks_surface():
    # A PeerHooks method exists only for an event the world acts on (what
    # is only counted goes to repro.obs), and the ledger acts on each.
    hooks = sorted(
        name
        for name, value in vars(PeerHooks).items()
        if callable(value) and not name.startswith("_")
    )
    assert hooks == [
        "lookup_holders",
        "on_cluster_joined",
        "on_document_dropped",
        "on_document_stored",
        "on_leave_notice",
        "on_query_failed",
        "on_query_response",
    ]
    assert [name for name in hooks if name not in vars(WorldLedger)] == []


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
    assert unset_fields(sources, classes) == [
        "WorldConfig.ttl",
        "WorldConfig.unused",
        "NodeConfig.ttl",
        "NodeConfig.home",
    ]
