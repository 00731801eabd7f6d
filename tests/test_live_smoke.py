"""Live runtime smoke: real processes, real sockets, tiny workloads.

These tests run the actual ``python -m repro.live`` server binary as
subprocesses and drive it with the in-process soak supervisor — the
same code path the CI ``live-smoke`` job exercises at full scale (30 s,
500 queries, kill/restart, injected loss).  Here the workloads are
sized for the unit suite: a few seconds each, strict on correctness,
lenient on rate thresholds that need statistics to be meaningful.
"""

import json
import re

import pytest

from repro.live import LiveWorld, SoakConfig, run_soak_sync
from repro.live.node import format_routes, parse_routes


def test_parse_routes_round_trip():
    routes = {0: ("127.0.0.1", 7000), 3: ("10.0.0.2", 7003)}
    assert parse_routes(format_routes(routes)) == routes
    assert parse_routes("0:7000") == {0: ("127.0.0.1", 7000)}
    with pytest.raises(ValueError, match="bad route"):
        parse_routes("0:1:2:3")


@pytest.mark.parametrize(
    "spec, names",
    [
        ("0:7000,0:7001", "'0:7001'.*routed twice"),
        ("0:7000,1:99999", "'1:99999'.*port outside"),
        ("-1:7000", "'-1:7000'.*negative node id"),
        ("0:7000,x:7001", "'x:7001'.*integers"),
    ],
)
def test_parse_routes_rejects_a_broken_route_map(spec, names, capsys):
    """A supervisor typo must not shadow a node or bind the wrong port:
    the error names the offending part, and the CLI exits 2 with it."""
    from repro.live.__main__ import main

    with pytest.raises(ValueError, match=names):
        parse_routes(spec)
    with pytest.raises(SystemExit) as exit_info:
        main(["node", "--node-id", "0", f"--routes={spec}"])
    assert exit_info.value.code == 2
    assert re.search(f"--routes: bad route {names}", capsys.readouterr().err)


def test_soak_config_validation():
    with pytest.raises(ValueError, match="n_peers"):
        SoakConfig(n_peers=0)
    with pytest.raises(ValueError, match="duration"):
        SoakConfig(duration=0)
    with pytest.raises(ValueError, match="kill_restart"):
        SoakConfig(n_peers=1, kill_restart=True)


def test_live_soak_queries_and_fetches(tmp_path):
    """Seed + 2 peers over loopback UDP: every query answered, every
    chunked fetch verified, zero decode errors."""
    metrics_path = tmp_path / "soak.jsonl"
    summary = run_soak_sync(
        SoakConfig(
            n_peers=2,
            duration=2.0,
            n_queries=30,
            n_fetches=4,
            kill_restart=False,
            min_success=0.99,
            metrics_path=str(metrics_path),
            world=LiveWorld(n_docs=8, n_categories=4, doc_size_bytes=8192,
                            chunk_size=4096),
        )
    )
    assert summary["passed"], summary
    assert summary["queries"] == 30
    assert summary["queries_ok"] == 30
    assert summary["fetches"] == 4
    assert summary["fetches_ok"] == 4
    assert summary["client_decode_errors"] == 0

    events = [
        json.loads(line)
        for line in metrics_path.read_text().splitlines()
    ]
    kinds = {event["event"] for event in events}
    assert {"servers_up", "bootstrapped", "query", "fetch", "summary"} <= kinds
    assert events[-1]["event"] == "summary"
    # Every fetch event records its chunk count (multi-chunk transfers).
    assert all(e["chunks"] == 2 for e in events if e["event"] == "fetch")


def test_soak_fails_on_one_frame_the_client_cannot_decode(monkeypatch):
    """Failover recovers the query, so the success rate stays at 1.0; the
    undecodable frame (a codec bug: every process of a soak runs the same
    code) still fails the soak."""
    from repro.live import transport

    decode, broken = transport.decode_frame, []

    def decode_one_response_wrongly(data):
        message = decode(data)
        if message.kind == "query_response" and not broken:
            broken.append(message)
            raise transport.WireDecodeError("injected")
        return message

    monkeypatch.setattr(transport, "decode_frame", decode_one_response_wrongly)
    summary = run_soak_sync(
        SoakConfig(
            n_peers=2,
            duration=2.0,
            n_queries=10,
            n_fetches=0,
            kill_restart=False,
            world=LiveWorld(n_docs=8, n_categories=4, doc_size_bytes=8192,
                            chunk_size=4096),
        )
    )
    assert broken and summary["client_decode_errors"] == 1
    assert summary["success_rate"] >= summary["min_success"]
    assert not summary["passed"], summary


def test_live_soak_survives_kill_restart(tmp_path):
    """One peer SIGKILLed mid-run and restarted: reliability failover
    keeps the workload running (lenient rate — tiny sample)."""
    metrics_path = tmp_path / "chaos.jsonl"
    summary = run_soak_sync(
        SoakConfig(
            n_peers=3,
            duration=4.5,
            n_queries=45,
            n_fetches=4,
            loss=0.01,
            kill_restart=True,
            min_success=0.9,
            metrics_path=str(metrics_path),
            world=LiveWorld(n_docs=8, n_categories=4, doc_size_bytes=8192,
                            chunk_size=4096),
        )
    )
    assert summary["passed"], summary
    events = [
        json.loads(line)
        for line in metrics_path.read_text().splitlines()
    ]
    kinds = [event["event"] for event in events]
    assert "kill" in kinds and "restart" in kinds
    assert kinds.index("kill") < kinds.index("restart")
