"""One index of ``src/``, ``benchmarks/`` and ``examples/`` that the
structural checks are rules over: ``defs`` keyed by (module path, class
or ``None``, name), ``refs`` (names, attributes, identifier strings) and
``calls``.  A receiver resolves through ``self``/``cls``, annotations
(an override's bare parameter takes the overridden one's), assignments
(``x.a = ...`` too), annotated calls, imports, container elements
(``Of``) and both sides of ``a or b``.  Builtin containers and other
packages' objects mean no definition here.  A reference whose receiver
does not resolve falls back to the bare name (``unresolved()`` counts
those that name a method).
"""

import ast
import collections
import dataclasses
import functools
import typing
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
Key = tuple[str, "str | None", str]  # (module path, class or None, name)
Types = typing.Optional[frozenset]  # class names, "module:<path>", function keys

FOREIGN = "<foreign>"
EACH = "<each>"  # the position of ``x`` in ``for x in ...``
MAPPINGS = {"dict", "defaultdict", "OrderedDict", "Mapping", "MutableMapping"}
BUILTINS = {"set", "frozenset", "list", "tuple", "deque", "Counter", "str", "bytes", "int",
            "float", "bool", "Sequence", "Iterable", "Iterator"} | MAPPINGS
ITERATORS = {"sorted", "list", "iter", "set", "frozenset", "tuple", "reversed", "enumerate", "zip"}
LITERALS = {ast.Set: "set", ast.Dict: "dict", ast.List: "list", ast.Tuple: "tuple", ast.JoinedStr: "str"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# kind "name", "attr" or "string"; inside: the definitions it sits in
Ref = collections.namedtuple("Ref", "kind name types inside path enclosing receiver")


class Signature(typing.NamedTuple):
    positional: list[str]
    keywords: set[str]
    defaulted: list[str]
    star_args: bool
    star_kwargs: bool

    def binds(self, call: ast.Call) -> bool:
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        return starred or (len(call.args) <= len(self.positional) or self.star_args) and (
            self.star_kwargs or all(kw.arg in (None, *self.keywords) for kw in call.keywords))


def signature(node: ast.AST, method: bool) -> Signature:
    """A method's leaves out ``self``."""
    args = node.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    positional = positional[method and not _decorated(node, "staticmethod"):]
    defaulted = positional[len(positional) - len(args.defaults):] + [
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    keywords = set(positional[len(args.posonlyargs):]) | {a.arg for a in args.kwonlyargs}
    return Signature(positional, keywords, defaulted, bool(args.vararg), bool(args.kwarg))


def _decorated(node: ast.AST, name: str) -> bool:
    return any(getattr(d, "id", None) == name for d in node.decorator_list)


def callee(call: ast.Call) -> str:
    return getattr(call.func, "attr", None) or getattr(call.func, "id", "")


def describe(key: Key) -> str:
    path, owner, name = key
    module = path.rsplit("/", 1)[-1].removesuffix(".py")
    return f"{module}.{name}" if owner is None else owner if name == "__init__" else f"{owner}.{name}"


def _union(parts) -> Types:
    parts = list(parts)
    return None if None in parts else frozenset().union(*parts)


@dataclasses.dataclass(frozen=True)
class Of:
    """A container and its parameters' types: ``list[C]``, ``tuple[A, B]``, ``dict[K, V]``."""
    base: str
    args: tuple  # of Types

    def item(self, position=None) -> Types:
        """``x[position]``: ``None`` any item, ``EACH`` what ``for`` yields."""
        if self.base in MAPPINGS:
            return self.args[0 if position is EACH else 1]
        fixed = self.base == "tuple" and isinstance(position, int) and position < len(self.args)
        return self.args[position] if fixed else _union(self.args)

    def view(self, method: str) -> Types:
        """What a mapping's ``.keys()``, ``.values()``, ``.items()``, ``.get()`` return."""
        if self.base in MAPPINGS:  # a list's methods return None
            key, value = self.args
            pairs = listing(frozenset({Of("tuple", self.args)}))
            return {"keys": listing(key), "values": listing(value), "items": pairs,
                    "get": value, "pop": value, "setdefault": value}.get(method)


def listing(element: Types) -> frozenset:
    return frozenset({Of("list", (element,))})


class Scope:
    """What one module, class body or function binds."""

    def __init__(self, index, path, node, parent=None, owner=None):
        self.index, self.path, self.node, self.owner = index, path, node, owner
        self.parent = parent.parent if parent and parent.is_class else parent
        self.is_class = isinstance(node, ast.ClassDef)  # invisible to its methods
        # name -> annotation / assigned values / (module, member) / def key
        self.annotated, self.assigned, self.imported, self.functions = {}, {}, {}, {}
        self.opaque: set[str] = set()  # bound some way that does not resolve
        self.clean: set[ast.Name] = set()  # assignment targets bound above
        self.dict_keys: dict[str, set[str]] = {}  # ``d = {"k": ...}``, ``d["k"] = ...``
        self.self_name, self.inherits = None, set()
        if isinstance(node, FUNCTIONS):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if owner and params and not _decorated(node, "staticmethod"):
                self.self_name = params.pop(0).arg
            self.annotated = {a.arg: a.annotation for a in params if a.annotation}
            self.inherits = {a.arg for a in params if not a.annotation and owner}

    def bind_target(self, target, value, path=()) -> None:
        """``target = value``; ``path`` ``(EACH,)`` for ``for target in value``."""
        if isinstance(target, ast.Name):
            self.assigned.setdefault(target.id, []).append((value, path))
            self.clean.add(target)
        for position, part in enumerate(getattr(target, "elts", ())):  # ``a, b = ...``
            if isinstance(part, ast.Starred):
                break
            self.bind_target(part, value, (*path, position))

    def bind(self, node: ast.AST) -> None:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            self.annotated[node.target.id] = node.annotation
            self.clean.add(node.target)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                keys = [getattr(k, "value", 0) for k in getattr(node.value, "keys", ())]
                if isinstance(node.value, ast.Call) and callee(node.value) == "dict":
                    keys = [kw.arg for kw in node.value.keywords]
                if isinstance(target, ast.Subscript):
                    target, keys = target.value, [getattr(target.slice, "value", 0)]
                self.bind_target(target, node.value)
                self.dict_keys.setdefault(getattr(target, "id", ""), set()).update(
                    k for k in keys if isinstance(k, str))
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            self.bind_target(node.target, node.iter, (EACH,))
        elif isinstance(node, ast.AugAssign):
            self.clean.add(node.target)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node not in self.clean:
                self.opaque.add(node.id)
        elif isinstance(node, ast.Import):  # ``import a.b`` binds ``a``
            for alias in node.names:
                module = alias.name if alias.asname else alias.name.split(".")[0]
                self.imported[alias.asname or module] = (module, None)
        elif isinstance(node, ast.ImportFrom):
            self.imported.update({a.asname or a.name: (node.module, a.name) for a in node.names})
        elif isinstance(node, (ast.arg, ast.ExceptHandler)):
            self.opaque.add(getattr(node, "arg", None) or node.name)

    def lookup(self, name: str) -> Types:
        return self.index.cached((self, name), lambda: self._lookup(name))

    def _lookup(self, name: str) -> Types:
        index = self.index
        if name == self.self_name:
            return frozenset({self.owner})
        if name in self.annotated:
            return index.annotation(self.annotated[name])
        if name in self.inherits:
            return index.annotation(index.overridden(self.owner, self.node.name, name))
        if name in self.opaque:
            return None
        if name in self.imported:
            return index.import_of(*self.imported[name], self.path)
        if name in self.assigned:
            return _union(index.unpack(index.resolve(value, self), path)
                          for value, path in self.assigned[name]) or None
        if name in self.functions:
            return frozenset({self.functions[name]})
        if self.parent is not None:
            return self.parent.lookup(name)
        return frozenset({name}) if name in index.bases or name in BUILTINS else None


class ProgramIndex:
    def __init__(self, sources: dict[str, str]):
        self.trees = {path: ast.parse(text) for path, text in sources.items()}
        self.defs: dict[Key, ast.AST] = {}
        self.bases: dict[str, list[str]] = {}
        self.annotations: dict = {}  # (class, attribute) -> annotation
        self.aliases: dict = {}  # (class, A) -> [(``x.B``, scope)] of ``self.A = x.B``
        self.writes: dict = {}  # attribute -> [(receiver, value or None, scope)]
        self.calls: list[tuple[str, ast.Call, Scope, "Key | None"]] = []
        self.scopes = {path: Scope(self, path, tree) for path, tree in self.trees.items()}
        self._memo: dict = {}
        self._busy: set[tuple[str, str]] = set()
        raw: list[tuple] = []
        for path, tree in self.trees.items():
            self._visit(path, tree, self.scopes[path], None, frozenset(), None, raw)
        self.by_name: dict[str, list[Key]] = collections.defaultdict(list)
        for key in self.defs:
            self.by_name[key[2]].append(key)
        self.refs = [Ref(kind, name, receiver and self.resolve(receiver, scope), *rest, receiver)
                     for kind, name, receiver, scope, *rest in raw]

    def _visit(self, path, node, scope, owner, inside, enclosing, raw):
        for child in ast.iter_child_nodes(node):
            if any(getattr(t, "id", None) == "__all__" for t in getattr(child, "targets", ())):
                continue
            scope.bind(child)
            inner, inner_owner, inner_inside, inner_enclosing = scope, owner, inside, enclosing
            if isinstance(child, ast.ClassDef):
                inner, inner_owner = Scope(self, path, child, scope), child.name
                self.bases.setdefault(child.name, []).extend(
                    getattr(b, "attr", getattr(b, "id", "")) for b in child.bases)
                if owner is None and enclosing is None:
                    self.defs[(path, None, child.name)] = child
                    inner_inside = inside | {(path, None, child.name)}
            elif isinstance(child, (*FUNCTIONS, ast.Lambda)):
                inner = Scope(self, path, child, scope, owner)
                if isinstance(child, FUNCTIONS) and enclosing is None:
                    inner_enclosing = (path, owner, child.name)
                    self.defs[inner_enclosing] = child
                    inner_inside = inside | {inner_enclosing}
                    if owner is None:
                        scope.functions[child.name] = inner_enclosing
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                self._record_writes(child, scope)
            elif isinstance(child, ast.Call):
                self.calls.append((path, child, scope, enclosing))
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)) and scope.parent:
                scope.opaque.add(child.name)
            if isinstance(child, ast.Name):
                raw.append(("name", child.id, None, scope, inside, path, enclosing))
            elif isinstance(child, ast.Attribute):
                raw.append(("attr", child.attr, child.value, scope, inside, path, enclosing))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str) and (
                    child.value.isidentifier()):  # dispatch by name
                raw.append(("string", child.value, None, scope, inside, path, enclosing))
            self._visit(path, child, inner, inner_owner, inner_inside, inner_enclosing, raw)

    def _record_writes(self, node, scope):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for part in (p for t in targets for p in getattr(t, "elts", [t])):
            on_self = scope.self_name and getattr(part, "value", None) and (
                getattr(part.value, "id", None) == scope.self_name)
            if isinstance(node, ast.AnnAssign) and (on_self or scope.is_class):
                owner = scope.owner or scope.node.name
                self.annotations[(owner, getattr(part, "attr", None) or part.id)] = node.annotation
            elif isinstance(part, ast.Attribute) and isinstance(node, ast.Assign):
                value = node.value if part in targets else None
                self.writes.setdefault(part.attr, []).append((part.value, value, scope))
                if on_self and isinstance(value, ast.Attribute):
                    self.aliases.setdefault((scope.owner, part.attr), []).append((value, scope))

    # -- classes ------------------------------------------------------------
    def mro(self, cls: str) -> tuple[str, ...]:
        def compute():
            order = [cls]
            for base in (b for b in self.bases.get(cls, ()) if b in self.bases):
                order += [c for c in self.mro(base) if c not in order]
            return tuple(order)
        return self.cached(("mro", cls), compute) or (cls,)

    def descendants(self, cls: str) -> frozenset:
        return self.cached(("below", cls), lambda: frozenset(
            c for c in self.bases if c != cls and cls in self.mro(c)))

    def _own(self, cls: str, name: str) -> list[Key]:
        """``cls``'s ``def name``, or the method ``self.name = x.other`` binds."""
        keys = [key for key in self.by_name.get(name, ()) if key[1] == cls]
        for value, scope in self.aliases.get((cls, name), ()) if (cls, name) not in self._busy else ():
            self._busy.add((cls, name))  # ``self.send = inner.send`` may lead back here
            owners = self.resolve(value.value, scope)
            keys += self.methods(owners, value.attr) if owners else self.by_name.get(value.attr, [])
            self._busy.discard((cls, name))
        return keys

    def methods(self, types: frozenset, name: str) -> list[Key]:
        """What ``x.name`` can mean for ``x`` of ``types``: the first along
        each class's MRO and the overrides below it; a module's ``name``."""
        keys = []
        for cls in (c for c in types if isinstance(c, str)):
            if cls.startswith("module:"):
                keys += [k for k in self.by_name.get(name, ()) if k[1] is None]
                continue
            keys += next(filter(None, (self._own(c, name) for c in self.mro(cls))), [])
            keys += [k for c in sorted(self.descendants(cls)) for k in self._own(c, name)]
        return keys

    def overridden(self, cls: str, method: str, parameter: str):
        """``parameter``'s annotation in the ``method`` ``cls``'s overrides."""
        overridden = (self.defs[k].args for c in self.mro(cls)[1:] for k in self._own(c, method))
        return next((a.annotation for args in overridden
                     for a in args.posonlyargs + args.args + args.kwonlyargs
                     if a.arg == parameter and a.annotation), None)

    def initializer(self, cls: str) -> list[Key]:
        """The ``__init__`` a call of class ``cls`` runs."""
        return next(filter(None, (self._own(c, "__init__") for c in self.mro(cls))), [])

    def member(self, types: Types, attr: str) -> Types:
        """What ``x.attr`` resolves to for ``x`` of ``types``."""
        if types is None or FOREIGN in types:
            return None
        found = []
        for cls in (c for c in types if isinstance(c, str)):
            if cls.startswith("module:"):
                found.append(self.module_member(cls.removeprefix("module:"), attr))
                continue
            annotated = [self.annotations[c, attr] for c in self.mro(cls) if (c, attr) in self.annotations]
            related = set(self.mro(cls)) | self.descendants(cls)
            found += [self.annotation(annotated[0])] if annotated else [
                value and self.resolve(value, scope)
                for receiver, value, scope in self.writes.get(attr, ()) if cls in self.bases
                and (self.resolve(receiver, scope) or set()) & related]
        return _union(found) or None

    def returns(self, key: Key) -> Types:
        node = self.defs[key]
        return frozenset({key[2]}) if isinstance(node, ast.ClassDef) else self.annotation(node.returns)

    # -- modules ------------------------------------------------------------
    def module_file(self, dotted: str, near: str) -> "str | None":
        """``dotted``'s file, from ``src/`` or the directory of ``near``."""
        bases = ["/".join([root, *dotted.split(".")]) for root in ("src", near.rsplit("/", 1)[0])]
        return next((p for b in bases for p in (b + ".py", b + "/__init__.py") if p in self.trees), None)

    def import_of(self, module: str, member: "str | None", near: str) -> Types:
        path = self.module_file(module, near)
        if path is None:
            return frozenset({member if member in BUILTINS else FOREIGN})
        return self.module_member(path, member) if member else frozenset({f"module:{path}"})

    def module_member(self, path: str, name: str) -> Types:
        sub = self.module_file(name, path) if path.endswith("/__init__.py") else None
        return frozenset({f"module:{sub}"}) if sub else self.scopes[path].lookup(name)

    # -- expressions ----------------------------------------------------------
    def annotation(self, node) -> Types:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union([self.annotation(node.left), self.annotation(node.right)])
        if isinstance(node, ast.Subscript):
            base = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            if base in ("Optional", "ClassVar"):
                return self.annotation(node.slice)
            if base in BUILTINS:  # ``tuple[C, ...]`` as ``tuple[C]``
                args = [a for a in getattr(node.slice, "elts", [node.slice])
                        if getattr(a, "value", 0) is not ...]
                return frozenset({Of(base, tuple(map(self.annotation, args)))})
            node = node.value
        if isinstance(node, ast.Constant) and node.value is None:
            return frozenset()
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return frozenset({name}) if name in self.bases or name in BUILTINS else None

    def unpack(self, types: Types, path: tuple) -> Types:
        """``Of.item`` along ``path``; a class iterates as its ``__iter__`` returns."""
        for position in path:
            if position is EACH and types and all(isinstance(t, str) for t in types):
                types = _union(map(self.returns, self.methods(types, "__iter__"))) or None
            types = _union(t.item(position) if isinstance(t, Of) else None for t in types or [None])
        return types

    def cached(self, key, compute) -> Types:
        if key not in self._memo:
            self._memo[key] = None  # a cycle resolves to nothing
            self._memo[key] = compute()
        return self._memo[key]

    def resolve(self, node: ast.expr, scope: Scope) -> Types:
        return self.cached(node, lambda: self._resolve(node, scope))

    def _resolve(self, node: ast.expr, scope: Scope) -> Types:
        if isinstance(node, ast.Name):
            return scope.lookup(node.id)
        if isinstance(node, (ast.IfExp, ast.BoolOp)):
            return _union(self.resolve(part, scope) for part in (
                getattr(node, "values", None) or [node.body, node.orelse]))
        if isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Slice):
            return self.unpack(self.resolve(node.value, scope), (getattr(node.slice, "value", None),))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts:
            return frozenset({Of("tuple", tuple(self.resolve(part, scope) for part in node.elts))})
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            parts = [getattr(node, "elt", None) or node.key, getattr(node, "value", None)]
            return frozenset({Of("dict" if parts[1] else "list", tuple(
                self.resolve(part, scope) for part in parts if part))})
        if type(node) in LITERALS:
            return frozenset({LITERALS[type(node)]})
        if isinstance(node, ast.Constant):
            return frozenset({type(node.value).__name__} - {"NoneType"})
        if isinstance(node, ast.Attribute):
            return self.member(self.resolve(node.value, scope), node.attr)
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        owners = self.resolve(func.value, scope) if isinstance(func, ast.Attribute) else None
        if owners and all(isinstance(t, Of) for t in owners):
            return _union(t.view(func.attr) for t in owners)
        if getattr(func, "id", None) in ITERATORS and node.args:
            items = [self.unpack(self.resolve(arg, scope), (EACH,)) for arg in node.args]
            pairs = {"enumerate": [frozenset({"int"}), items[0]], "zip": items}.get(func.id)
            return listing(frozenset({Of("tuple", tuple(pairs))}) if pairs else items[0])
        keys = self.methods(owners, func.attr) if owners and FOREIGN not in owners else []
        kinds = frozenset(keys) or self.resolve(func, scope) or frozenset()
        if kinds and all(isinstance(k, tuple) for k in kinds):
            return _union(map(self.returns, kinds))
        known = self.bases.keys() | BUILTINS | {FOREIGN}
        return kinds if kinds and all(k in known for k in kinds) else None

    # -- what a reference or call can mean --------------------------------------
    def targets(self, kind: str, name: str, types: Types) -> list[Key]:
        """The definitions a reference can mean; a class's name means its
        ``__init__`` too, and ``self.name = x.other`` makes ``other``."""
        if kind == "attr" and types is not None:
            modules = any(str(t).startswith("module:") for t in types)
            return self.methods(types, name) + (self.initializer(name) if modules else [])
        if kind == "name":
            return [k for k in self.by_name.get(name, ()) if k[1] is None] + self.initializer(name)
        # a string, or a receiver that does not resolve: the bare name
        aliased = [v.attr for (_, n), values in self.aliases.items() if n == name for v, _ in values]
        return [k for n in (name, *aliased) for k in self.by_name.get(n, ())] + self.initializer(name)

    def unresolved(self) -> int:
        """Attribute references that fall back to the bare name of a method."""
        methods = {key[2] for key in self.defs if key[1] is not None}
        return sum(r.kind == "attr" and r.types is None and r.name in methods for r in self.refs)


@functools.cache
def program() -> ProgramIndex:
    """The index of this repository's program, built once per process."""
    return ProgramIndex({str(path.relative_to(REPO)): path.read_text()
                         for root in ("src", "benchmarks", "examples")
                         for path in sorted((REPO / root).rglob("*.py"))})


def defaulted_parameters(index: ProgramIndex, prefix: str = "src/repro/") -> dict[Key, Signature]:
    """Every public function and method under ``prefix`` (of a public
    class) that has a default, with its signature."""
    return {
        (path, owner, name): spec
        for (path, owner, name), node in index.defs.items()
        if isinstance(node, FUNCTIONS) and path.startswith(prefix)
        and (name == "__init__" or name[0] != "_") and (owner or "x")[0] != "_"
        and (spec := signature(node, owner is not None)).defaulted
    }
