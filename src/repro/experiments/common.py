"""Shared helpers for the experiment modules.

The paper-scale configuration (|D| = 200k, |N| = 20k, |S| = 500,
|C| = 100) is feasible for the algorithmic experiments; the discrete-event
experiments run at a reduced, shape-preserving scale.  :data:`ALGO_SCALE`
and :data:`DES_SCALE` are the ``run(scale=...)`` defaults; the CLI's
``--scale`` (``1.0`` = full paper scale) is the one override.
"""

from __future__ import annotations

import argparse
import math
import os

import numpy as np

from repro.chaos.scenario import FEATURES
from repro.core.fairness import jain_fairness
from repro.core.maxfair import Assignment
from repro.core.popularity import CategoryStats

__all__ = [
    "require",
    "describe",
    "ALGO_SCALE",
    "DES_SCALE",
    "add_shared_arguments",
    "add_fuzz_arguments",
    "precheck_output_path",
    "fairness_of_assignment",
    "frozen_capacity_fairness",
]

#: default scale for the pure-algorithm experiments (F2-F5, T1).
ALGO_SCALE = 0.25
#: default scale for the discrete-event experiments (E1-E3).
DES_SCALE = 0.05


def require(condition: bool, message: object) -> None:
    """One gate of an experiment's ``smoke()`` run (the CI entry point).

    Raises instead of asserting, so ``python -O`` cannot skip a gate.
    """
    if not condition:
        raise AssertionError(message)


def describe(module) -> str:
    """An experiment's one-line description: its docstring's first line."""
    return module.__doc__.strip().splitlines()[0].strip()


def _positive_scale(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def add_shared_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the flags every experiment understands.

    Parsed once here so each CLI front-end (the experiment runner, future
    tools) exposes identical names and semantics: ``--scale``, ``--seed``,
    ``--metrics-out``, ``--metrics-deterministic``, ``--trace``.
    """
    parser.add_argument(
        "--scale",
        type=_positive_scale,
        default=None,
        help="override the system scale factor (1.0 = full paper scale)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="root random seed"
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "dump a repro.obs metrics snapshot (JSONL) here after the "
            "experiments finish"
        ),
    )
    parser.add_argument(
        "--metrics-deterministic",
        action="store_true",
        help=(
            "drop wall-clock histograms from the --metrics-out snapshot so "
            "identical seeds produce byte-identical files"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "enable the repro.obs trace log; traced events are included "
            "in the --metrics-out snapshot"
        ),
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_fuzz_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the fuzz-only flags.

    The seed-count flag is ``--fuzz-seeds`` (distinct from the shared
    ``--seed``, the first seed of the sweep).  A sweep of no seeds or no
    steps would print ``0/0 seeds failing`` and turn a CI gate green
    without running anything, so both counts are rejected below 1 (exit 2,
    the message names the flag).
    """
    parser.add_argument(
        "--fuzz-seeds",
        type=_positive_int,
        default=10,
        help="fuzz only: number of consecutive seeds to run (from --seed)",
    )
    parser.add_argument(
        "--steps",
        type=_positive_int,
        default=None,
        help="fuzz only: scheduled fault-injection steps per seed",
    )
    parser.add_argument(
        "--check-invariants",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fuzz only: assert system-wide invariants at every quiescent step",
    )
    parser.add_argument(
        "--repro-out",
        metavar="PATH",
        default=None,
        help=(
            "fuzz only: write the shrunk pytest reproducer here when a "
            "seed violates an invariant (nothing is written on success)"
        ),
    )
    parser.add_argument(
        "--features",
        metavar="A,B,...",
        default="",
        help=(
            "fuzz only: comma-separated world features, each switching on "
            "its subsystem, its chaos actions and its invariants together: "
            + ", ".join(FEATURES)
            + " (recovery implies content)"
        ),
    )


def precheck_output_path(path: str | None, flag: str) -> str | None:
    """Verify an output ``path`` is writable before any work runs.

    Returns an error message naming the offending ``flag`` (or ``None``
    when fine) — a typo'd output path should not cost the user the whole
    experiment run.  Non-destructive: an existing file is not truncated,
    and no empty file is left behind if the run never writes one (the
    fuzz ``--repro-out`` contract is "nothing on success").
    """
    if path is None:
        return None
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        return f"cannot write {flag} path {path!r}: {exc}"
    if not existed:
        try:
            os.remove(path)
        except OSError:
            pass
    return None


def fairness_of_assignment(stats: CategoryStats, assignment: Assignment) -> float:
    """Jain fairness of the normalized cluster popularities of an assignment."""
    weights = stats.storage_weight
    load = np.zeros(assignment.n_clusters)
    capacity = np.zeros(assignment.n_clusters)
    for category_id, cluster in enumerate(assignment.category_to_cluster):
        if cluster >= 0:
            load[cluster] += stats.popularity[category_id]
            capacity[cluster] += weights[category_id]
    values = np.divide(
        load, capacity, out=np.zeros(assignment.n_clusters), where=capacity > 0
    )
    return jain_fairness(values)


def frozen_capacity_fairness(
    original_stats: CategoryStats,
    new_popularity: np.ndarray,
    assignment: Assignment,
) -> float:
    """Fairness of a *changed* load against the *original* capacities.

    This is how Section 5 evaluates robustness: content popularity moved,
    but the resource structure (who stores what, with which capacity) is
    still the one the original MaxFair placement produced — rebalancing has
    not run.
    """
    hybrid = original_stats.with_popularity(new_popularity)
    return fairness_of_assignment(hybrid, assignment)
