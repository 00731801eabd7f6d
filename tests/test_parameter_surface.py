"""Every default-valued parameter and every public name in ``src/repro/``
earns a caller outside the tests: a default no call in ``src/``,
``benchmarks/`` or ``examples/`` sets is a module constant, and code only
its own test calls leaves ``src/`` with that test.

Both are rules over ``tests/program_index.py``: a reference counts for
what its receiver resolves to (see there).  A call counts where it can
bind (positional arguments and keywords against ``*args`` and
``**kwargs``); ``f(**d)`` with ``d`` a dict built in the same function
passes ``d``'s literal keys.  An argument that only passes on a defaulted
parameter of the enclosing definition under the same name (``order=order``
inside ``maxfair``) counts when that outer parameter is set.
"""

import ast
import re

from tests.program_index import (
    REPO, Key, ProgramIndex, Signature, defaulted_parameters, describe, program,
)

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def candidates(index: ProgramIndex, call: ast.Call, scope) -> list[Key]:
    """The definitions ``call`` can run."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return index.targets("attr", func.attr, index.resolve(func.value, scope))
    return index.targets("name", func.id, None) if isinstance(func, ast.Name) else []


def unset_parameters(index: ProgramIndex, functions: dict[Key, Signature]) -> list[str]:
    """``function(parameter)`` for every defaulted parameter no call sets."""
    direct: set[tuple[Key, str]] = set()
    forwards: dict[tuple[Key, str], set[tuple[Key, str]]] = {}
    for _, call, scope, enclosing in index.calls:
        outer = functions.get(enclosing)
        for key in candidates(index, call, scope):
            signature = functions.get(key)
            if signature is None:
                continue
            # ``**d``'s keys bind by name alone: a caller adds them
            # conditionally, so no signature filter applies.
            passed = [
                (name, None)
                for kw in call.keywords if kw.arg is None
                for name in scope.dict_keys.get(getattr(kw.value, "id", None), ())
                if name in signature.keywords
            ]
            if signature.binds(call):
                for position, value in zip(signature.positional, call.args):
                    if isinstance(value, ast.Starred):
                        break
                    passed.append((position, value))
                passed += [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
            for parameter, value in passed:
                if outer and getattr(value, "id", None) == parameter and parameter in outer.defaulted:
                    forwards.setdefault((key, parameter), set()).add((enclosing, parameter))
                else:
                    direct.add((key, parameter))
    is_set = set(direct)
    while grown := {t for t, origins in forwards.items() if t not in is_set and origins & is_set}:
        is_set |= grown
    return [
        f"{describe(key)}({parameter})"
        for key, signature in functions.items()
        for parameter in signature.defaulted
        if (key, parameter) not in is_set
    ]


def public_names(index: ProgramIndex, prefix: str) -> list[Key]:
    """Every public module-level function and class under ``prefix``, and
    every public method of such a class."""
    return [(path, owner, name) for path, owner, name in index.defs
            if path.startswith(prefix) and name[0] != "_"
            and (owner is None or (path, None, owner) in index.defs and owner[0] != "_")]


def unreferenced_names(index: ProgramIndex, names: list[Key], words: str = "") -> list[str]:
    """``module.name`` / ``Class.method`` for every name in ``names`` that
    nothing references outside its own definition and ``__all__``; each
    word of ``words`` references every definition of that name."""
    referenced = {
        key for ref in index.refs
        for key in index.targets(ref.kind, ref.name, ref.types) if key not in ref.inside
    }
    referenced.update(key for word in WORD.findall(words) for key in index.by_name.get(word, ()))
    return [describe(key) for key in names if key not in referenced]


# The public names only the tests reference, each kept for a reason.
NAME_ALLOWLIST = {
    # §4.2: the reduction from PARTITION that makes ICLB NP-complete, the
    # decision procedures on both sides of it, and the exhaustive oracle
    # MaxFair is checked against on small instances.
    "partition.iclb_decision": "§4.2 ICLB decision, by exhaustion",
    "partition.best_assignment_exhaustive": "§4.2 exhaustive MaxFair oracle",
    "partition.partition_to_iclb": "§4.2 reduction from PARTITION",
    "partition.partition_decision": "§4.2 PARTITION side of the reduction",
    "partition.balanced_partition_decision": "§4.2 BALANCED PARTITION side",
    # Oracles of the fairness property tests (Schur-concavity of Jain).
    "fairness.majorizes": "property-test oracle: majorization order",
    "fairness.lorenz_curve": "property-test oracle: Lorenz dominance",
    # The structural invariants every built instance is checked against.
    "SystemInstance.validate": "structural check the tests run",
}


def test_every_default_parameter_is_set_outside_the_tests():
    functions = defaulted_parameters(program())
    assert functions, "no module of repro was read"
    assert unset_parameters(program(), functions) == []


def test_every_public_name_has_a_caller_outside_the_tests():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    names = unreferenced_names(program(), public_names(program(), "src/repro/"), ci)
    assert sorted(names) == sorted(NAME_ALLOWLIST)


def test_checker_on_synthetic_source():
    index = ProgramIndex({
        "pkg/algo.py": (
            "def place(items, order='desc', seed=0): return rank(items, order=order, seed=seed)\n"
            "def rank(items, order='desc', seed=0, limit=10): return items\n"
            "def _private(items, flag=False): return items\n"
            "def n_chunks(size, chunk_size): return size // chunk_size\n"
            "class Sampler:\n"
            "    def __init__(self, theta, drift=0.0): self.theta = theta\n"
            "    def draw(self, size=1): return size\n"
            "class Document:\n"
            "    def n_chunks(self, chunk_size=4): return chunk_size\n"
            "    def draw(self, count=1): return count\n"
            "class Network:\n"  # ``self.send = self.transmit``: calls of ``send`` set it
            "    def __init__(self): self.send = self.transmit\n"
            "    def transmit(self, message, delivery_id=None): return message\n"
            "class Figure:\n"
            "    def run(self, scale=1.0, thetas=(0.5,)): return scale\n"
        ),
        "pkg/run.py": (
            "place(data, order='asc')\n"
            "Sampler(0.7, 0.1).draw()\n"  # drift set by position
            "other(seed=3)\n"  # a call of some other function
            "n_chunks(size, 8)\n"  # two positional arguments cannot bind to the method
            "sampler.draw(count=2)\n"  # ``count`` is not a parameter of ``Sampler.draw``
            "network.send(message, delivery_id=7)\n"
            "def main(args):\n"  # ``f(**d)`` sets ``d``'s literal keys, however added
            "    kwargs = {}\n"
            "    if args.scale:\n"
            "        kwargs['scale'] = args.scale\n"
            "    figure.run(**kwargs)\n"
        ),
        # A function outside the checked modules sets what it passes on.
        "pkg/tool.py": "def helper(items, limit):\n    return rank(items, limit=limit)\n",
    })
    functions = defaulted_parameters(index, "pkg/algo.py")
    assert {describe(key): spec.defaulted for key, spec in functions.items()} == {
        "algo.place": ["order", "seed"], "algo.rank": ["order", "seed", "limit"],
        "Sampler": ["drift"], "Sampler.draw": ["size"],
        "Document.n_chunks": ["chunk_size"], "Document.draw": ["count"],
        "Network.transmit": ["delivery_id"], "Figure.run": ["scale", "thetas"],
    }
    # ``rank(order)`` is passed on from ``place(order)``, which a caller
    # sets; ``rank(seed)`` from ``place(seed)``, which none does.
    assert unset_parameters(index, functions) == [
        "algo.place(seed)", "algo.rank(seed)", "Sampler.draw(size)",
        "Document.n_chunks(chunk_size)", "Figure.run(thetas)",
    ]


def test_name_checker_on_synthetic_source():
    # ``Table``'s four methods each have one outside reference that the
    # bare-name checker counted and the index does not: a parameter named
    # ``in_flight``, a docstring word under ``benchmarks/``, ``.clear()`` on
    # a ``set()`` and ``self.table.m()`` with ``self.table = Other()``.
    peer = (
        "__all__ = ['Peer', 'orphan']\n"
        "def orphan(): return orphan()\n"  # a definition does not reference itself
        "class Peer:\n"
        "    def __init__(self):\n"
        "        self.table = {table}\n"
        "        self.seen = {seen}\n"
        "    def on_crash(self): pass\n"
        "    def outstanding(self): return 0\n"
        "    def handle(self, in_flight):\n"
        "        self._each('on_crash')\n"
        "        self.table.m()\n"
        "        self.seen.clear()\n"
        "        return in_flight\n"
        "    def traced(self): pass\n"
        "    def smoke(self): pass\n"
        "class Table:\n"
        "    def in_flight(self): pass\n"
        "    def wraps(self): pass\n"
        "    def clear(self): pass\n"
        "    def m(self): pass\n"
        "class Other:\n"
        "    def m(self): pass\n"
    )

    def unreferenced(table: str, seen: str) -> list[str]:
        index = ProgramIndex({
            "src/pkg/peer.py": peer.format(table=table, seen=seen),
            "src/pkg/world.py": "Peer().handle(Table())\n",
            "benchmarks/tracing.py": '"""Counts wraps."""\nwrap(peer.Peer, "traced")\n',
        })
        return unreferenced_names(index, public_names(index, "src/pkg/peer.py"), "pkg.smoke()")

    assert unreferenced("Other()", "set()") == [
        "peer.orphan", "Peer.outstanding",
        "Table.in_flight", "Table.wraps", "Table.clear", "Table.m",
    ]
    # Receivers that do not resolve fall back to the bare name.
    assert unreferenced("make(Other)", "make()") == [
        "peer.orphan", "Peer.outstanding", "Table.in_flight", "Table.wraps",
    ]
