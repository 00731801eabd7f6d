"""The prose docs may only point at things that exist.

Three cheap checks per document, none of which reads meaning: a
back-ticked ``repro.a[.b[.c]]`` dotted name must import or resolve, a
``python -m repro.x`` must name something runnable, and a back-ticked
repo path must be on disk.  A deletion that leaves its mentions behind
fails here rather than in a reader's shell.
"""

import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/api.md",
    "docs/architecture.md",
]
PATH_ROOTS = ("src/", "tests/", "benchmarks/", "examples/", ".github/")

INLINE_SPAN = re.compile(r"`([^`\n]+)`")
#: the whole span is a dotted name, so schema tags (``repro.wire/v1``)
#: and globs (``repro.experiments.*``) are not candidates.
DOTTED_NAME = re.compile(r"repro(?:\.\w+)+")
MODULE_RUN = re.compile(r"python3? -m (repro(?:\.\w+)*)")


def _resolves(dotted: str) -> bool:
    """The longest importable prefix is a module and the rest are
    attributes of it."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def _runnable(module: str) -> bool:
    """``python -m module`` has something to run: a package needs a
    ``__main__`` submodule, a plain module only needs to exist."""
    try:
        spec = importlib.util.find_spec(module)
        if spec is not None and spec.submodule_search_locations is not None:
            spec = importlib.util.find_spec(module + ".__main__")
    except ModuleNotFoundError:
        return False
    return spec is not None


def dangling_references(text: str) -> list[str]:
    """Every reference in ``text`` that points at nothing."""
    dangling = [
        f"python -m {module}"
        for module in MODULE_RUN.findall(text)
        if not _runnable(module)
    ]
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
        "python -m repro.sim",
        "python -m repro.nope",
        "repro.nope",
        "repro.sim.engine.Nope",
        "tests/test_nope.py",
        "benchmarks/nope/run.py",
    ]
