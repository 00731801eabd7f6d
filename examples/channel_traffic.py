"""What the ack/retry channel carries: sends, retries and dead letters by kind.

The reliability layer routes a few message kinds (``RELIABLE_KINDS``)
through a per-peer ack/retry channel.  This probe counts, for each kind,
the channel's fresh sends, its retransmissions and its dead letters
(deliveries it gave up on or refused), per operation, on:

* the three simulated workloads of ``benchmarks/stack/`` (a fixed number
  of segments each, seed 7; an op is a query or a chunked fetch);
* the eight chaos-fuzz cells of CI, seeds from 7 (six of 25 steps by
  default, as CI runs them), invariants on (an op is a query);
* SCENARIO and CACHE-QOS (an op is a query).

It wraps three ``ReliableChannel`` methods for the length of the run and
changes nothing else; the group re-requests and give-ups of category
moves are read from their ``repro.obs`` counters.

Run:  PYTHONPATH=src python examples/channel_traffic.py
      PYTHONPATH=src python examples/channel_traffic.py --fuzz-seeds 50 --steps 40
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro import obs
from repro.experiments import cache_qos, fuzz, scenario
from repro.reliability.channel import ReliableChannel

#: the chaos-fuzz cells of CI, in its order ("" is the default world).
CELLS = (
    "",
    "overload",
    "overload,adaptive",
    "scenario",
    "content",
    "recovery",
    "overload,content",
    "overload,adaptive,scenario,content,recovery",
)
#: the kinds the channel carried before transfers left it, in table order.
KINDS = (
    "publish_request", "publish_reply", "join_request", "join_reply",
    "reassign_notice", "transfer_request", "transfer_data",
)
#: the ``repro.obs`` counters of a category move's group deadline.
GROUP_COUNTERS = ("overlay.group_rerequests", "overlay.group_abandoned")


class Tally:
    """Per-kind channel counts, collected by wrapping the channel's class."""

    def __init__(self) -> None:
        self.sends: Counter = Counter()
        self.retries: Counter = Counter()
        self.dead: Counter = Counter()

    def install(self) -> None:
        send, transmit, dead_letter = (
            ReliableChannel.send,
            ReliableChannel._transmit,
            ReliableChannel._dead_letter,
        )
        tally = self

        def counted_send(channel, dst, kind, payload, *args, **kwargs):
            tally.sends[kind] += 1
            return send(channel, dst, kind, payload, *args, **kwargs)

        def counted_transmit(channel, out):
            if out.attempt:
                tally.retries[out.kind] += 1
            return transmit(channel, out)

        def counted_dead_letter(channel, dst, kind):
            tally.dead[kind] += 1
            return dead_letter(channel, dst, kind)

        ReliableChannel.send = counted_send
        ReliableChannel._transmit = counted_transmit
        ReliableChannel._dead_letter = counted_dead_letter

    def take(self) -> tuple[Counter, Counter, Counter]:
        """The counts since the last ``take``."""
        counts = (self.sends, self.retries, self.dead)
        self.sends, self.retries, self.dead = Counter(), Counter(), Counter()
        return counts


def _group_counts() -> tuple[int, ...]:
    return tuple(obs.counter(name).value for name in GROUP_COUNTERS)


def _sim_workloads(segments: int):
    """``(name, run)`` for the benchmark's simulated workloads."""
    stack = Path(__file__).resolve().parents[1] / "benchmarks" / "stack"
    sys.path.insert(0, str(stack))
    from workloads import SimFetchChurn, SimQuery

    def runner(workload: SimQuery | SimFetchChurn):
        def run() -> int:
            workload.setup(7)
            ops = sum(
                workload.segment(workload.prepare(index))[0]
                for index in range(segments)
            )
            workload.teardown()
            return ops

        return workload.name, run

    return [
        runner(SimQuery("sim_query_bare", full_stack=False, queries=5000)),
        runner(SimQuery("sim_query_fullstack", full_stack=True, queries=2000)),
        runner(SimFetchChurn(cycles=10)),
    ]


def _fuzz_cell(features: str, seeds: int, steps: int):
    def run() -> int:
        result = fuzz.run(
            seed=7,
            seeds=seeds,
            steps=steps,
            features=frozenset(filter(None, features.split(","))),
        )
        return result.total_queries

    return f"fuzz [{features or 'default'}]", run


def _scenario() -> int:
    return sum(scenario.run(seed=7).n_queries)


def _cache_qos() -> int:
    result = cache_qos.run(seed=7)
    return result.static.n_queries + result.adaptive.n_queries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--segments", type=int, default=3)
    parser.add_argument("--fuzz-seeds", type=int, default=6)
    parser.add_argument("--steps", type=int, default=25)
    args = parser.parse_args()
    runs = _sim_workloads(args.segments)
    runs += [_fuzz_cell(cell, args.fuzz_seeds, args.steps) for cell in CELLS]
    runs += [("SCENARIO", _scenario), ("CACHE-QOS", _cache_qos)]

    tally = Tally()
    tally.install()
    print("Channel sends / retries / dead letters per op, by kind; then the")
    print("category-move groups asked for again and given up (counts).")
    print()
    print("| run | ops | " + " | ".join(f"`{k}`" for k in KINDS) + " | re-asked | given up |")
    print("|---|---:|" + "---|" * len(KINDS) + "---:|---:|")
    for name, run in runs:
        before = _group_counts()
        ops = run()
        sends, retries, dead = tally.take()
        cells = [
            f"{sends[k] / ops:.3f} / {retries[k] / ops:.3f} / {dead[k] / ops:.3f}"
            if sends[k] or dead[k] else "–"
            for k in KINDS
        ]
        extra = [str(b - a) for a, b in zip(before, _group_counts())]
        print(f"| {name} | {ops} | " + " | ".join(cells + extra) + " |")


if __name__ == "__main__":
    main()
