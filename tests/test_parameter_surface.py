"""Every default-valued parameter of the algorithm layer earns a caller
outside the tests.

The rule ``tests/test_config_surface.py`` holds the world configs to,
applied to the public functions and methods of ``repro.core`` and
``repro.model``: a parameter with a default must be set — by keyword or by
position — by some call in ``src/``, ``benchmarks/`` or ``examples/``.  A
default no such caller overrides is a module constant, not a parameter:
each independent option doubles what the tests must cover.

A class's ``__init__`` is called by the class name.  An argument that only
passes on a parameter of the enclosing checked function under the same
name (``order=order`` inside ``maxfair``) counts when that outer parameter
is set.
"""

import ast

from tests.test_config_surface import _callee, _program_sources

CHECKED = ("src/repro/core/", "src/repro/model/")


def defaulted_parameters(
    sources: dict[str, str],
) -> dict[str, tuple[str, list[str], list[str]]]:
    """Callee name -> (path, positional parameters, defaulted parameters)
    for every public function and method in ``sources`` that has a
    default.  A method's positional parameters leave out ``self``."""
    functions: dict[str, tuple[str, list[str], list[str]]] = {}

    def visit(path: str, body: list, owner: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(path, node.body, node.name)
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            name = node.name
            if owner is not None:
                positional = positional[1:]
                name = owner if name == "__init__" else name
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            if not defaulted:
                continue
            if name in functions:
                raise ValueError(f"{name} is defined twice; callers are ambiguous")
            functions[name] = (path, positional, defaulted)

    for path, text in sources.items():
        visit(path, ast.parse(text).body, None)
    return functions


def unset_parameters(
    sources: dict[str, str],
    functions: dict[str, tuple[str, list[str], list[str]]],
) -> list[str]:
    """``function(parameter)`` for every defaulted parameter no call sets."""
    direct: set[tuple[str, str]] = set()
    forwards: dict[tuple[str, str], set[tuple[str, str]]] = {}

    def visit(path: str, node: ast.AST, enclosing: ast.FunctionDef | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(path, child, child)
                continue
            if isinstance(child, ast.Call) and _callee(child) in functions:
                callee = _callee(child)
                positional = functions[callee][1]
                passed = []
                for index, value in enumerate(child.args):
                    if isinstance(value, ast.Starred) or index >= len(positional):
                        break
                    passed.append((positional[index], value))
                passed += [(kw.arg, kw.value) for kw in child.keywords if kw.arg]
                # Only a checked function passes its parameters on; a
                # parameter of any other caller counts as set.
                outer = enclosing.name if enclosing is not None else None
                outer_params = set()
                if functions.get(outer, ("",))[0] == path:
                    outer_params = {
                        arg.arg
                        for arg in ast.walk(enclosing.args)
                        if isinstance(arg, ast.arg)
                    }
                for parameter, value in passed:
                    if (
                        isinstance(value, ast.Name)
                        and value.id == parameter
                        and parameter in outer_params
                    ):
                        forwards.setdefault((callee, parameter), set()).add(
                            (outer, parameter)
                        )
                    else:
                        direct.add((callee, parameter))
            visit(path, child, enclosing)

    for path, text in sources.items():
        visit(path, ast.parse(text), None)

    is_set = set(direct)
    grown = True
    while grown:
        grown = False
        for target, origins in forwards.items():
            if target not in is_set and not origins.isdisjoint(is_set):
                is_set.add(target)
                grown = True
    return [
        f"{name}({parameter})"
        for name, (_, _, defaulted) in functions.items()
        for parameter in defaulted
        if (name, parameter) not in is_set
    ]


def test_every_default_parameter_is_set_outside_the_tests():
    sources = _program_sources()
    checked = {
        path: text for path, text in sources.items() if path.startswith(CHECKED)
    }
    assert checked, "no module of repro.core or repro.model was read"
    assert unset_parameters(sources, defaulted_parameters(checked)) == []


def test_checker_on_synthetic_source():
    checked = {
        "pkg/algo.py": (
            "def place(items, order='desc', seed=0):\n"
            "    return rank(items, order=order, seed=seed)\n"
            "def rank(items, order='desc', seed=0, limit=10):\n"
            "    return items\n"
            "def _private(items, flag=False):\n"
            "    return items\n"
            "class Sampler:\n"
            "    def __init__(self, theta, drift=0.0):\n"
            "        self.theta = theta\n"
            "    def draw(self, size=1):\n"
            "        return size\n"
        ),
    }
    functions = defaulted_parameters(checked)
    assert {name: spec[2] for name, spec in functions.items()} == {
        "place": ["order", "seed"],
        "rank": ["order", "seed", "limit"],
        "Sampler": ["drift"],
        "draw": ["size"],
    }
    sources = {
        **checked,
        "pkg/run.py": (
            "place(data, order='asc')\n"
            "Sampler(0.7, 0.1).draw()\n"  # drift set by position
            "other(seed=3)\n"  # a call of some other function
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
        "place(seed)",
        "rank(seed)",
        "draw(size)",
    ]
