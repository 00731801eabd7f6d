"""``python -m repro.live`` — run a live node or a loopback soak.

Subcommands::

    node   one overlay server process (used by the soak supervisor)
    soak   spawn a seed + N peers, drive queries and chunk fetches,
           kill/restart one peer mid-run, and gate on the success rate

Examples::

    python -m repro.live soak --peers 4 --duration 30 \\
        --queries 500 --fetches 20 --loss 0.02 --metrics soak.jsonl
    python -m repro.live node --node-id 0 --routes "0:7000,1:7001"
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys

from repro.live.node import LiveWorld, parse_routes, run_node
from repro.live.soak import SoakConfig, run_soak_sync


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    world = LiveWorld()
    parser.add_argument("--n-docs", type=int, default=world.n_docs)
    parser.add_argument("--n-categories", type=int, default=world.n_categories)
    parser.add_argument("--doc-bytes", type=int, default=world.doc_size_bytes)
    parser.add_argument("--chunk-bytes", type=int, default=world.chunk_size)


def _world_from(args: argparse.Namespace) -> LiveWorld:
    return LiveWorld(
        n_docs=args.n_docs,
        n_categories=args.n_categories,
        doc_size_bytes=args.doc_bytes,
        chunk_size=args.chunk_bytes,
    )


def _routes(spec: str) -> dict[int, tuple[str, int]]:
    try:
        return parse_routes(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Live (asyncio/UDP) runtime for the overlay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run one overlay server process")
    node.add_argument("--node-id", type=int, required=True)
    node.add_argument(
        "--routes",
        type=_routes,
        required=True,
        help="comma-separated id:port or id:host:port for every node",
    )
    node.add_argument("--loss", type=float, default=0.0)
    node.add_argument("--seed", type=int, default=0)
    node.add_argument("--heartbeat", type=float, default=0.5)
    node.add_argument(
        "--state-dir",
        default=None,
        help="directory for this node's WAL + snapshot; a restart "
        "pointing at the same directory recovers its holdings",
    )
    _add_world_args(node)

    soak = sub.add_parser("soak", help="supervised seed+N-peer soak run")
    soak.add_argument("--peers", type=int, default=4)
    soak.add_argument("--duration", type=float, default=30.0)
    soak.add_argument("--queries", type=int, default=500)
    soak.add_argument("--fetches", type=int, default=20)
    soak.add_argument("--loss", type=float, default=0.0)
    soak.add_argument("--min-success", type=float, default=0.99)
    soak.add_argument("--metrics", default=None, help="JSONL event file")
    soak.add_argument(
        "--state-dir",
        default=None,
        help="root for per-node durability state; the mid-run restart "
        "reuses the killed node's directory and the soak gates on its "
        "recovered holdings being served again",
    )
    soak.add_argument("--seed", type=int, default=1)
    soak.add_argument(
        "--no-kill",
        action="store_true",
        help="skip the mid-run kill/restart of one peer",
    )
    _add_world_args(soak)
    return parser


def main(argv: list[str]) -> int:
    logging.basicConfig(
        level=logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    args = build_parser().parse_args(argv)
    if args.command == "node":
        asyncio.run(
            run_node(
                args.node_id,
                args.routes,
                _world_from(args),
                loss=args.loss,
                heartbeat_interval=args.heartbeat,
                seed=args.seed,
                state_dir=args.state_dir,
            )
        )
        return 0
    summary = run_soak_sync(
        SoakConfig(
            n_peers=args.peers,
            duration=args.duration,
            n_queries=args.queries,
            n_fetches=args.fetches,
            loss=args.loss,
            kill_restart=not args.no_kill,
            min_success=args.min_success,
            metrics_path=args.metrics,
            state_dir=args.state_dir,
            seed=args.seed,
            world=_world_from(args),
        )
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
