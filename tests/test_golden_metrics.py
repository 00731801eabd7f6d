"""Byte-identity goldens for --metrics-deterministic snapshots.

The golden files under ``tests/golden/`` were captured at the commit
*before* the hot-path optimizations (zero-fault network fast path,
precomputed Zipf CDF sampling, vectorized system construction, cached
P2PSystem views) and the registry-based runner dispatch.  These tests
re-run the same invocations and require byte-identical output: the
optimizations must not change a single simulated event, RNG draw, or
accumulated float.

Regenerate (only for an *intentional* behavior change)::

    PYTHONPATH=src python -m repro.experiments F2 E2 --scale 0.02 --seed 7 \
        --metrics-out tests/golden/metrics_hotpath.jsonl --metrics-deterministic
    PYTHONPATH=src python -m repro.experiments FUZZ --fuzz-seeds 2 --steps 25 \
        --seed 3 --metrics-out tests/golden/metrics_chaos.jsonl \
        --metrics-deterministic
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    # Covers build_system vectorization, Zipf workload sampling, the
    # fault-free network fast path, and the P2PSystem load view E2
    # reads once per world.
    "metrics_hotpath.jsonl": [
        "F2", "E2", "--scale", "0.02", "--seed", "7",
        "--metrics-deterministic",
    ],
    # Covers the faulty network paths (drops, partitions, churn) the
    # fast path must not short-circuit.
    "metrics_chaos.jsonl": [
        "FUZZ", "--fuzz-seeds", "2", "--steps", "25", "--seed", "3",
        "--metrics-deterministic",
    ],
}


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_deterministic_snapshot_matches_pre_optimization_golden(
    golden_name, tmp_path
):
    golden = GOLDEN_DIR / golden_name
    out = tmp_path / golden_name
    argv = CASES[golden_name] + ["--metrics-out", str(out)]
    # A fresh interpreter per case: the obs registry keeps (zeroed)
    # metrics registered by whatever ran earlier in the process, and the
    # snapshot lists every registered metric — so in-process runs would
    # depend on test ordering.  The goldens were captured this way too.
    repo_root = GOLDEN_DIR.parents[1]
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")  # scale overrides would diverge
    }
    env["PYTHONPATH"] = str(repo_root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        capture_output=True,
        text=True,
        cwd=str(repo_root),
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == golden.read_bytes(), (
        f"{golden_name}: metrics snapshot diverged from the "
        "pre-optimization golden — a hot-path change altered observable "
        "behavior"
    )
