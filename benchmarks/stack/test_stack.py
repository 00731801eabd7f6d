"""The stack benchmark's own test.  Outside ``testpaths``; run it explicitly::

    python -m pytest benchmarks/stack/test_stack.py

Every workload runs once untraced and once traced at a tenth of its segment
size, each in a fresh process as the driver runs them (about a minute and a half in all).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

STACK_DIR = Path(__file__).resolve().parent
SPEC = json.loads((STACK_DIR.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7

#: per-layer metrics a workload owns: its run must measure them (not 0).
OWNED = {
    "sim_query_bare": [
        "sim.engine.events_per_op", "sim.engine.self_us_per_event",
        "sim.network.msgs_per_op", "sim.network.bytes_per_op",
        "sim.network.self_us_per_msg", "overlay.peer.handle_self_us_per_msg",
        "overlay.peer.start_query_us", "overlay.peer.forwards_per_query",
        "overlay.peer.hops_mean", "overlay.system.bootstrap_s",
        "overlay.system.run_workload_self_us_per_op",
        "overlay.system.sim_latency_p50_s", "model.system.build_s",
        "core.popularity.stats_s", "core.maxfair.assign_s",
        "core.replication.plan_s",
    ],
    "sim_query_fullstack": [
        "sim.network.drop_share", "transport.self_us_per_msg",
        "reliability.channel.sends_per_op", "reliability.channel.retry_share",
        "reliability.channel.failovers_per_op",
        "reliability.channel.self_us_per_send",
        "overlay.service.self_us_per_query", "overlay.service.max_depth",
        "overlay.cache.self_us_per_op", "overlay.cache.hit_share",
        "overlay.replication_manager.round_ms",
        "overlay.system.sim_latency_p99_s",
        "durability.journal.records_per_op", "durability.journal.record_us",
        "durability.journal.compact_ms",
        "durability.journal.wal_bytes_per_record",
        "durability.store.memory_append_us",
    ],
    "sim_fetch_churn": [
        "reliability.detector.round_ms",
        "reliability.detector.probes_per_round",
        "overlay.system.recover_node_ms", "overlay.system.heal_round_ms",
        "overlay.system.reconcile_round_ms",
        "content.manifest.fetch_start_us", "content.chunks.hash_us_per_chunk",
        "content.fetcher.self_us_per_chunk",
        "content.fetcher.chunks_per_fetch",
        "content.fetcher.wire_bytes_per_doc_byte", "content.healer.round_ms",
        "durability.journal.compactions", "durability.journal.load_ms",
    ],
    "live_query_loopback": [
        "transport.wire.encode_us_per_frame",
        "transport.wire.decode_us_per_frame", "transport.wire.bytes_per_frame",
        "transport.wire.frames_per_op", "live.transport.send_self_us_per_msg",
        "live.loop.residual_us_per_op", "live.client.latency_p99_ms",
        "live.client.lateness_p99_ms", "live.client.fetches_per_s",
        "reliability.channel.sends_per_op", "overlay.peer.hops_mean",
        "content.fetcher.chunks_per_fetch",
    ],
    "placement_paper": [
        "model.system.build_s", "core.popularity.stats_s",
        "core.maxfair.assign_s", "core.replication.plan_s",
        "core.reassign.reassign_s", "core.reassign.moves",
    ],
}
#: reported by every traced run.
OWNED_BY_ALL = [
    "durability.store.file_append_us", "trace.overhead_ratio", "trace.coverage",
]


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (payload, exact numbers), one process each."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(STACK_DIR / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
                 "--size", "0.1"],
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            assert done.returncode == 0, (name, trace, done.stdout[-2000:])
            lines = done.stdout.splitlines()
            exact = next(
                json.loads(line[len("exact: "):])
                for line in lines if line.startswith("exact: ")
            )
            results[name, trace] = (json.loads(lines[-1]), exact)
    return results


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/stack"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(runs, name):
    payload, _ = runs[name, 0]
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert payload["attempted"] >= 1
    assert payload["attempted"] >= payload["failed"] >= 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(payload["metrics"]) == set(declared)
    for metric, entry in payload["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[metric]
        assert entry["value"] > 0, (metric, entry)
    assert payload["metrics"]["success_rate"]["value"] <= 1.0
    assert payload["metrics"]["load_fairness"]["value"] <= 1.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(runs, name):
    payload, _ = runs[name, 1]
    assert payload["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(payload["metrics"]) == set(declared)
    for metric, entry in payload["metrics"].items():
        assert entry["unit"] == declared[metric]
        assert entry["value"] >= 0, (metric, entry)
    for metric in OWNED[name] + OWNED_BY_ALL:
        assert payload["metrics"][metric]["value"] > 0, metric
    if name != "live_query_loopback":
        assert payload["metrics"]["trace.coverage"]["value"] >= 0.8


@pytest.mark.parametrize("name", [n for n in WORKLOADS if n.startswith("sim_")])
def test_tracing_does_not_perturb_the_simulation(runs, name):
    untraced, traced = runs[name, 0][1], runs[name, 1][1]
    assert len(untraced) >= 30
    assert untraced == traced


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_file_parses_and_parents_resolve(runs, name):
    path = STACK_DIR / "out" / f"spans-{name}-{SEED}.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["type"] == "meta" and records[0]["workload"] == name
    spans = records[1:]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans)
    for span in spans:
        assert span["type"] == "span"
        assert span["parent"] is None or span["parent"] in ids
        assert span["end_us"] >= span["start_us"] >= 0
        assert span["op"] % 64 == 0 and span["op_kind"] in ("query", "fetch")
    if name != "placement_paper":  # has no operation ids: aggregates only
        assert spans
        assert any(span["parent"] is not None for span in spans)
