"""The prose docs may only point at things that exist.

Three cheap checks per document, none of which reads meaning: a
back-ticked ``repro.a[.b[.c]]`` dotted name must import or resolve, a
``python -m repro.x`` must name something runnable, and a back-ticked
repo path must be on disk.  A deletion that leaves its mentions behind
fails here rather than in a reader's shell.

``docs/architecture.md`` also keeps one table per registry — chaos
invariants, chaos actions, peer component ↔ message kinds — and each is
compared with the registry it restates, in both directions.
"""

import importlib.util
import pkgutil
import re

import pytest

from repro.chaos import ACTIONS, INVARIANTS
from repro.content import ContentConfig
from repro.overlay.peer import PeerConfig
from repro.overlay.service import ServiceConfig

from tests.helpers import MicroOverlay
from tests.program_index import REPO

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/api.md", "docs/architecture.md"]
PATH_ROOTS = ("src/", "tests/", "benchmarks/", "examples/", ".github/")

INLINE_SPAN = re.compile(r"`([^`\n]+)`")
#: the whole span is a dotted name, so schema tags (``repro.wire/v1``)
#: and globs (``repro.experiments.*``) are not candidates.
DOTTED_NAME = re.compile(r"repro(?:\.\w+)+")
MODULE_RUN = re.compile(r"python3? -m (repro(?:\.\w+)*)")


def _resolves(dotted: str) -> bool:
    """The longest importable prefix is a module, the rest its attributes."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def _runnable(module: str) -> bool:
    """``python -m module`` runs a plain module or a package's ``__main__``."""
    try:
        spec = importlib.util.find_spec(module)
        if spec is not None and spec.submodule_search_locations is not None:
            spec = importlib.util.find_spec(module + ".__main__")
    except ModuleNotFoundError:
        return False
    return spec is not None


def dangling_references(text: str) -> list[str]:
    """Every reference in ``text`` that points at nothing."""
    dangling = [f"python -m {m}" for m in MODULE_RUN.findall(text) if not _runnable(m)]
    # Fenced blocks hold shell transcripts and sample output; only prose
    # spans are read as names and paths.
    prose = "".join(text.split("```")[::2])
    for span in INLINE_SPAN.findall(prose):
        if DOTTED_NAME.fullmatch(span):
            if not _resolves(span):
                dangling.append(span)
            continue
        for token in span.split():
            if not token.startswith(PATH_ROOTS) or re.search(r"[*<{…]", token):
                continue
            # A pytest node id names a file before its first ``::``.
            if not (REPO / token.split("::")[0]).exists():
                dangling.append(token)
    return dangling


@pytest.mark.parametrize("doc", DOCS)
def test_doc_references_exist(doc):
    assert dangling_references((REPO / doc).read_text()) == []


def test_checker_flags_each_kind_of_dangling_reference():
    text = (
        "See `repro.sim.engine.Simulator`, `repro.wire/v1`, `tests/golden/`, "
        "`tests/test_engine.py::TestRunBounds` and `src/repro/*/x.py`.\n"
        "Gone: `repro.nope`, `repro.sim.engine.Nope`, `tests/test_nope.py`, "
        "`python3 benchmarks/nope/run.py --flag`.\n"
        "```\npython -m repro.live soak\npython -m repro.sim\n"
        "python -m repro.nope --list\n```\n"
    )
    assert dangling_references(text) == [
        "python -m repro.sim", "python -m repro.nope", "repro.nope", "repro.sim.engine.Nope",
        "tests/test_nope.py", "benchmarks/nope/run.py",
    ]


# -- the registry tables of docs/architecture.md -------------------------
def doc_table(text: str, first_header: str) -> list[dict[str, str]]:
    """Rows (``header cell -> cell``) of the markdown table whose header
    row starts with ``first_header``; ``[]`` if there is none."""

    def cells(line):
        return [cell.strip() for cell in line.strip("| \n").split("|")]

    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.startswith(f"| {first_header} |"):
            rows = []
            for row in lines[index + 2 :]:
                if not row.startswith("|"):
                    break
                rows.append(dict(zip(cells(line), cells(row))))
            return rows
    return []


def component_kinds() -> set[tuple[str, str]]:
    """``(peer attribute, kind)`` for every kind a full-stack peer's
    components register — together, every kind in the peer's dispatch
    table."""
    config = PeerConfig(service=ServiceConfig(enabled=True), content=ContentConfig(enabled=True))
    peer = MicroOverlay().add_peer(0, config=config)
    attributes = {name: getattr(peer, name) for name in type(peer).__slots__}
    pairs = {
        (f"peer.{attribute}", kind)
        for attribute, value in attributes.items()
        if any(value is component for component in peer.components)
        for kind in getattr(value, "registrations", dict)()
    }
    assert {kind for _, kind in pairs} == set(peer._dispatch)
    return pairs


def registry_disagreements(text: str, registered: dict[str, set]) -> list[str]:
    """Rows of ``text``'s three registry tables that name nothing
    registered, and registrations no row names."""

    def names(table, *columns):
        return {tuple(row[c].strip("`") for c in columns) for row in doc_table(text, table)}

    documented = {
        "invariant": names("invariant", "invariant", "group", "trigger"),
        "action": names("action", "action", "group"),
        "kind": {
            (row["attribute"].strip("`"), kind)
            for row in doc_table(text, "attribute")
            for kind in INLINE_SPAN.findall(row["kinds owned"])
        },
    }
    return [
        f"{what} {problem}: {' | '.join(row)}"
        for what, rows in documented.items()
        for problem, stray in (
            ("row names nothing registered", rows - registered[what]),
            ("registered but in no row", registered[what] - rows),
        )
        for row in sorted(stray)
    ]


def test_architecture_tables_match_the_registries():
    registered = {
        "invariant": {(n, e.group, e.when) for n, e in INVARIANTS.items()},
        "action": {(name, action.group) for name, action in ACTIONS.items()},
        "kind": component_kinds(),
    }
    text = (REPO / "docs/architecture.md").read_text()
    assert registry_disagreements(text, registered) == []
    assert len(registered["invariant"]) == len(INVARIANTS) == 22
    assert len({kind for _, kind in registered["kind"]}) == 24


def test_table_checker_flags_drift_in_both_directions():
    text = (
        "| invariant | group | trigger |\n|---|---|---|\n"
        "| `kept` | `core` | `quiescence` |\n"
        "| `regrouped` | `core` | `adapt` |\n"
        "| `deleted` | `content` | `converge` |\n"
        "\nprose ends a table\n| `not-a-row` | `core` | `adapt` |\n\n"
        "| action | group | effect |\n|---|---|---|\n"
        "| `crash` | `core` | dies |\n| `gone` | `core` | was removed |\n\n"
        "| attribute | component | kinds owned | state |\n|---|---|---|---|\n"
        "| `peer.queries` | `Q` | `query`, `busy` | `.cache` |\n"
        "| `peer.service` | `S` | — | queue |\n"
    )
    registered = {
        "invariant": {("kept", "core", "quiescence"), ("regrouped", "overload", "adapt"),
                      ("undocumented", "core", "workload")},
        "action": {("crash", "core"), ("heal", "core")},
        "kind": {("peer.queries", "query"), ("peer.channel", "ack")},
    }
    assert registry_disagreements(text, registered) == [
        "invariant row names nothing registered: deleted | content | converge",
        "invariant row names nothing registered: regrouped | core | adapt",
        "invariant registered but in no row: regrouped | overload | adapt",
        "invariant registered but in no row: undocumented | core | workload",
        "action row names nothing registered: gone | core",
        "action registered but in no row: heal | core",
        "kind row names nothing registered: peer.queries | busy",
        "kind registered but in no row: peer.channel | ack",
    ]
