"""Every default-valued parameter and every public name in ``src/repro/``
earns a caller outside the tests.

The rule ``tests/test_config_surface.py`` holds the world configs to,
applied to all of ``repro``:

- a parameter with a default must be set — by keyword or by position —
  by some call in ``src/``, ``benchmarks/`` or ``examples/``.  A default
  no such caller overrides is a module constant, not a parameter: each
  independent option doubles what the tests must cover.
- a public function or class, and a public method of a public class, must
  be referenced outside its own ``def`` and ``__all__``.  Code only its
  own test calls leaves ``src/`` with that test.

Definitions are keyed by (module, class, name).  A call resolves by its
bare name, but counts only for the same-named definitions it can bind to:
no more positional arguments than the definition takes (unless it has
``*args``), and only keywords that are its parameters (unless it has
``**kwargs``).  A class's ``__init__`` is called by the class name.
``self.A = self.B`` makes calls of ``A`` count for ``B``.  ``f(**d)``,
where ``d`` is a dict built in the same function, sets each of ``d``'s
literal keys on every definition named ``f`` that has a parameter of
that name.  An argument that only passes on a defaulted parameter of the
enclosing definition under the same name (``order=order`` inside
``maxfair``) counts when that outer parameter is set.
"""

import ast
import dataclasses
import re

from tests.test_config_surface import REPO, _callee, _program_sources

CHECKED = "src/repro/"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# (module path, class name or None, function name); ``__init__`` is keyed
# by its own name and called by the class name.
Key = tuple[str, "str | None", str]


@dataclasses.dataclass
class Signature:
    positional: list[str]
    keywords: set[str]
    defaulted: list[str]
    star_args: bool
    star_kwargs: bool

    def binds(self, call: ast.Call) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        if len(call.args) > len(self.positional) and not self.star_args:
            return False
        return self.star_kwargs or all(
            kw.arg is None or kw.arg in self.keywords for kw in call.keywords
        )


def _call_name(key: Key) -> str:
    _, owner, name = key
    return owner if name == "__init__" and owner is not None else name


def _describe(key: Key) -> str:
    path, owner, name = key
    module = path.rsplit("/", 1)[-1].removesuffix(".py")
    if owner is None:
        return f"{module}.{name}"
    return f"{owner}" if name == "__init__" else f"{owner}.{name}"


def _signature(node: ast.FunctionDef | ast.AsyncFunctionDef, method: bool) -> Signature:
    args = node.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    )
    if method and not static:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [
        arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return Signature(
        positional=positional,
        keywords=set(positional[len(args.posonlyargs):])
        | {arg.arg for arg in args.kwonlyargs},
        defaulted=defaulted,
        star_args=args.vararg is not None,
        star_kwargs=args.kwarg is not None,
    )


def defaulted_parameters(sources: dict[str, str]) -> dict[Key, Signature]:
    """Every public function and method in ``sources`` that has a
    default, with its signature (a method's leaves out ``self``)."""
    functions: dict[Key, Signature] = {}

    def visit(path: str, body: list, owner: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(path, node.body, node.name)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and node.name != "__init__":
                continue
            signature = _signature(node, owner is not None)
            if signature.defaulted:
                functions[(path, owner, node.name)] = signature

    for path, text in sources.items():
        visit(path, ast.parse(text).body, None)
    return functions


def _aliases(trees: dict[str, ast.AST]) -> dict[str, set[str]]:
    """Name A -> the names B for which ``self.A = self.B`` appears."""
    aliases: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target, value = node.targets[0], node.value
            if all(
                isinstance(side, ast.Attribute)
                and isinstance(side.value, ast.Name)
                and side.value.id == "self"
                for side in (target, value)
            ):
                aliases.setdefault(target.attr, set()).add(value.attr)
    return aliases


def _dict_keys(scope: ast.AST) -> dict[str, set[str]]:
    """Name -> the literal string keys a dict of that name gets in
    ``scope`` (``d = {...}``, ``d = dict(k=...)``, ``d["k"] = ...``)."""
    keys: dict[str, set[str]] = {}
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            value = node.value
            if isinstance(target, ast.Name) and isinstance(value, ast.Dict):
                keys.setdefault(target.id, set()).update(
                    key.value
                    for key in value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
            elif (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and _callee(value) == "dict"
            ):
                keys.setdefault(target.id, set()).update(
                    kw.arg for kw in value.keywords if kw.arg
                )
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                keys.setdefault(target.value.id, set()).add(target.slice.value)
    return keys


def unset_parameters(
    sources: dict[str, str], functions: dict[Key, Signature]
) -> list[str]:
    """``function(parameter)`` for every defaulted parameter no call sets."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    by_name: dict[str, list[Key]] = {}
    for key in functions:
        by_name.setdefault(_call_name(key), []).append(key)
    aliases = _aliases(trees)

    def candidates(name: str) -> list[Key]:
        names, todo = {name}, [name]
        while todo:
            for other in aliases.get(todo.pop(), ()):
                if other not in names:
                    names.add(other)
                    todo.append(other)
        return [key for other in sorted(names) for key in by_name.get(other, ())]

    direct: set[tuple[Key, str]] = set()
    forwards: dict[tuple[Key, str], set[tuple[Key, str]]] = {}

    def record(call: ast.Call, enclosing: Key | None, dicts: dict) -> None:
        outer = functions.get(enclosing) if enclosing is not None else None
        for key in candidates(_callee(call)):
            signature = functions[key]
            # ``**d``'s keys bind by name alone: a caller adds them
            # conditionally, so no signature filter applies.
            passed = [
                (name, None)
                for kw in call.keywords
                if kw.arg is None and isinstance(kw.value, ast.Name)
                for name in dicts.get(kw.value.id, ())
                if name in signature.keywords
            ]
            if signature.binds(call):
                for index, value in enumerate(call.args):
                    if isinstance(value, ast.Starred) or index >= len(
                        signature.positional
                    ):
                        break
                    passed.append((signature.positional[index], value))
                passed += [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
            for parameter, value in passed:
                if (
                    outer is not None
                    and isinstance(value, ast.Name)
                    and value.id == parameter
                    and parameter in outer.defaulted
                ):
                    forwards.setdefault((key, parameter), set()).add(
                        (enclosing, parameter)
                    )
                else:
                    direct.add((key, parameter))

    def visit(path, node, owner, enclosing, dicts):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(path, child, child.name, enclosing, dicts)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (path, owner, child.name) if enclosing is None else None
                visit(path, child, None, key or enclosing, _dict_keys(child))
                continue
            if isinstance(child, ast.Call):
                record(child, enclosing, dicts)
            visit(path, child, owner, enclosing, dicts)

    for path, tree in trees.items():
        visit(path, tree, None, None, _dict_keys(tree))

    is_set = set(direct)
    grown = True
    while grown:
        grown = False
        for target, origins in forwards.items():
            if target not in is_set and not origins.isdisjoint(is_set):
                is_set.add(target)
                grown = True
    return [
        f"{_describe(key)}({parameter})"
        for key, signature in functions.items()
        for parameter in signature.defaulted
        if (key, parameter) not in is_set
    ]


def public_names(sources: dict[str, str]) -> dict[Key, ast.AST]:
    """Every public module-level function and class, and every public
    method of a public class, with its definition."""
    names: dict[Key, ast.AST] = {}
    for path, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            names[(path, None, node.name)] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        names[(path, node.name, item.name)] = item
    return names


def unreferenced_names(
    sources: dict[str, str],
    names: dict[Key, ast.AST],
    word_texts: tuple[str, ...] = (),
) -> list[str]:
    """``module.name`` / ``Class.method`` for every name in ``names`` that
    nothing references outside its own definition and ``__all__``.

    A reference is a ``Name`` or ``Attribute`` in ``sources``; a string in
    ``src/`` that is an identifier (dispatch by name, ``_each("on_crash")``);
    a word in a string under ``benchmarks/`` (the tracer's patches by
    name); or a word in one of ``word_texts``.
    """
    own = {(key[0], node.lineno): key for key, node in names.items()}
    # name -> the sets of definitions each reference to it sits inside
    references: dict[str, set[frozenset[Key]]] = {}
    for text in word_texts:
        for word in WORD.findall(text):
            references.setdefault(word, set()).add(frozenset())

    def visit(path: str, node: ast.AST, inside: frozenset[Key]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in child.targets
            ):
                continue
            found: list[str] = []
            if isinstance(child, ast.Name):
                found = [child.id]
            elif isinstance(child, ast.Attribute):
                found = [child.attr]
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if path.startswith("src/") and child.value.isidentifier():
                    found = [child.value]
                elif path.startswith("benchmarks/"):
                    found = WORD.findall(child.value)
            for name in found:
                references.setdefault(name, set()).add(inside)
            key = own.get((path, getattr(child, "lineno", None)))
            if key is not None and getattr(child, "name", None) == key[2]:
                visit(path, child, inside | {key})
            else:
                visit(path, child, inside)

    for path, text in sources.items():
        visit(path, ast.parse(text), frozenset())
    # A definition does not reference itself.
    return [
        _describe(key)
        for key in names
        if not any(key not in inside for inside in references.get(key[2], ()))
    ]


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


def _checked(sources: dict[str, str]) -> dict[str, str]:
    checked = {
        path: text for path, text in sources.items() if path.startswith(CHECKED)
    }
    assert checked, "no module of repro was read"
    return checked


def test_every_default_parameter_is_set_outside_the_tests():
    sources = _program_sources()
    functions = defaulted_parameters(_checked(sources))
    assert unset_parameters(sources, functions) == []


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = _program_sources()
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    names = unreferenced_names(sources, public_names(_checked(sources)), (ci,))
    assert sorted(names) == sorted(NAME_ALLOWLIST)


def test_checker_on_synthetic_source():
    checked = {
        "pkg/algo.py": (
            "def place(items, order='desc', seed=0):\n"
            "    return rank(items, order=order, seed=seed)\n"
            "def rank(items, order='desc', seed=0, limit=10):\n"
            "    return items\n"
            "def _private(items, flag=False):\n"
            "    return items\n"
            "def n_chunks(size, chunk_size):\n"
            "    return size // chunk_size\n"
            "class Sampler:\n"
            "    def __init__(self, theta, drift=0.0):\n"
            "        self.theta = theta\n"
            "    def draw(self, size=1):\n"
            "        return size\n"
            "class Document:\n"
            "    def n_chunks(self, chunk_size=4):\n"
            "        return chunk_size\n"
            "    def draw(self, count=1):\n"
            "        return count\n"
            # ``self.send = self.transmit``: calls of ``send`` set it.
            "class Network:\n"
            "    def __init__(self):\n"
            "        self.send = self.transmit\n"
            "    def transmit(self, message, delivery_id=None):\n"
            "        return message\n"
            "class Figure:\n"
            "    def run(self, scale=1.0, thetas=(0.5,)):\n"
            "        return scale\n"
        ),
    }
    functions = defaulted_parameters(checked)
    assert {
        _describe(key): spec.defaulted for key, spec in functions.items()
    } == {
        "algo.place": ["order", "seed"],
        "algo.rank": ["order", "seed", "limit"],
        "Sampler": ["drift"],
        "Sampler.draw": ["size"],
        "Document.n_chunks": ["chunk_size"],
        "Document.draw": ["count"],
        "Network.transmit": ["delivery_id"],
        "Figure.run": ["scale", "thetas"],
    }
    sources = {
        **checked,
        "pkg/run.py": (
            "place(data, order='asc')\n"
            "Sampler(0.7, 0.1).draw()\n"  # drift set by position
            "other(seed=3)\n"  # a call of some other function
            # Two positional arguments cannot bind to ``Document.n_chunks``.
            "n_chunks(size, 8)\n"
            # ``count`` is not a parameter of ``Sampler.draw``.
            "sampler.draw(count=2)\n"
            "network.send(message, delivery_id=7)\n"
            # ``f(**d)`` sets ``d``'s literal keys, however they are added.
            "def main(args):\n"
            "    kwargs = {}\n"
            "    if args.scale:\n"
            "        kwargs['scale'] = args.scale\n"
            "    figure.run(**kwargs)\n"
        ),
        # A parameter of a function outside the checked modules is set
        # wherever it comes from.
        "pkg/tool.py": (
            "def helper(items, limit):\n"
            "    return rank(items, limit=limit)\n"
        ),
    }
    # ``rank(order)`` is passed on from ``place(order)``, which a caller
    # sets; ``rank(seed)`` is passed on from ``place(seed)``, which none
    # does.
    assert unset_parameters(sources, functions) == [
        "algo.place(seed)",
        "algo.rank(seed)",
        "Sampler.draw(size)",
        "Document.n_chunks(chunk_size)",
        "Figure.run(thetas)",
    ]


def test_name_checker_on_synthetic_source():
    checked = {
        "src/pkg/peer.py": (
            "__all__ = ['Peer', 'orphan']\n"
            "def orphan():\n"
            "    return orphan()\n"  # a definition does not reference itself
            "class Peer:\n"
            "    def on_crash(self):\n"
            "        pass\n"
            "    def outstanding(self):\n"
            "        return 0\n"
            "    def handle(self):\n"
            "        self._each('on_crash')\n"
            "    def traced(self):\n"
            "        pass\n"
            "    def smoke(self):\n"
            "        pass\n"
        ),
    }
    sources = {
        **checked,
        "src/pkg/world.py": "Peer().handle()\n",
        "benchmarks/tracing.py": "wrap(peer.Peer, 'traced')\n",
    }
    names = public_names(checked)
    assert unreferenced_names(sources, names, ("run: pkg.smoke()",)) == [
        "peer.orphan",
        "Peer.outstanding",
    ]
