"""The stack benchmark: five workloads, end to end and layer by layer.

One run of one workload (what ``BENCHMARK.json`` names as the command)::

    python3 benchmarks/stack/run.py --workload sim_query_bare \\
        --seed 7 --seconds 10 --trace 0

prints a report and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  It exits
non-zero when the outputs are not correct.

Without ``--workload`` the command runs a *set*: every workload, each in a
fresh process, untraced and then traced, and checks that every exact number
is the same in both (``--trace 0`` or ``--trace 1`` runs only that half).
``--check-repeat`` runs two untraced sets back to back and prints, for every
(metric, workload) pair, both values, their relative difference and the
bound.  README.md explains the workloads, the metrics and the span files.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

STACK_DIR = Path(__file__).resolve().parent
SRC_DIR = STACK_DIR.parents[1] / "src"
if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {SRC_DIR / 'repro'} is missing")
sys.path[:0] = [str(SRC_DIR), str(STACK_DIR)]

from harness import (  # noqa: E402
    OUT_DIR,
    REPO_ROOT,
    HostSpeed,
    load_spec,
    peak_rss_mib,
    pin_allocator,
    ratio,
)

#: seconds of untraced measuring a traced run makes first, on the world of
#: the set-up before the last, to have a base for ``trace.overhead_ratio``.
BASELINE_SECONDS = 1.0
EXACT_PREFIX = "exact: "


def workloads(size: float = 1.0) -> dict:
    """The five workloads; ``size`` scales the operations in a segment."""
    from live import LiveLoopback
    from workloads import Placement, SimFetchChurn, SimQuery

    def scaled(count: int) -> int:
        return max(1, round(count * size))

    every = [
        SimQuery("sim_query_bare", full_stack=False, queries=scaled(5000)),
        SimQuery("sim_query_fullstack", full_stack=True, queries=scaled(2000)),
        SimFetchChurn(cycles=scaled(10)),
        LiveLoopback(queries=scaled(1000), fetches=scaled(200)),
        Placement(),
    ]
    return {workload.name: workload for workload in every}


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def file_store_probe(tracer) -> float:
    """Microseconds per fsync'd ``FileStore`` append, in a temp dir.

    Diagnostic only: no end-to-end run uses ``FileStore``.  The disk is the
    sandbox's, not a device's.  At most 2,000 appends or one second.
    """
    from repro.durability import FileStore, encode_record

    OUT_DIR.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(dir=OUT_DIR)
    store = FileStore(root)
    try:
        record = encode_record(("store", 1, 262_144, [0]))
        deadline = perf_counter() + 1.0
        for _ in range(2000):
            store.append(record)
            if perf_counter() > deadline:
                break
    finally:
        store.close()
        shutil.rmtree(root)
    calls, total_ns, _ = tracer.totals()[("durability.store", "file_append")]
    return total_ns / calls / 1e3


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: float = 1.0):
    """Set up, measure and check one workload; returns (payload, report)."""
    from layers import Aggregates, time_metrics
    from tracing import SAMPLE_EVERY, Tracer

    pin_allocator()
    spec = load_spec()
    workload = workloads(size)[name]
    tracer = Tracer() if trace else None
    baseline = None
    file_append_us = 0.0
    setup_times = []
    for repeat in range(workload.setup_repeats):
        last = repeat == workload.setup_repeats - 1
        if last and tracer is not None:
            tracer.install()
            workload.tracer = tracer
            file_append_us = file_store_probe(tracer)
        gc.collect()
        with HostSpeed() as host:
            workload.setup(seed)
        setup_times.append(host.scale(host.seconds))
        if not last:
            if tracer is not None and repeat == workload.setup_repeats - 2:
                baseline = workload.measure(BASELINE_SECONDS)
            workload.teardown()
    setup_totals = tracer.totals() if tracer is not None else {}
    # The world just built is not garbage: keep the collector off it.
    gc.collect()
    gc.freeze()
    measured = workload.measure(seconds)
    workload.teardown()

    report = [f"workload {name}  seed {seed}  seconds {seconds:g}  "
              f"trace {int(trace)}"]
    q1, median, q3 = statistics.quantiles(
        (s.rate for s in measured.segments), n=4
    )
    report.append(
        f"  ops_per_s: median {median:.1f}  quartiles {q1:.1f} .. {q3:.1f}  "
        f"over {len(measured.segments)} segments"
    )
    speeds = [s.speed for s in measured.segments]
    report.append(
        f"  host speed while they ran: median {statistics.median(speeds):.3f}"
        f"  range {min(speeds):.3f} .. {max(speeds):.3f}  (1.0 = reference)"
    )
    report.append(
        f"  ops_attempted {measured.attempted}  ops_failed {measured.failed}"
    )
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": measured.ops_per_s,
            "op_latency_ms": measured.op_latency_ms,
            "peak_rss_mb": peak_rss_mib(),
            "success_rate": 1.0 - ratio(measured.failed, measured.attempted),
            "load_fairness": measured.load_fairness,
        }
        declared = spec["end_to_end"]
    else:
        timed = Aggregates(tracer.totals())
        values = time_metrics(
            timed, Aggregates(setup_totals), tracer.sums, tracer.events,
            measured.ops_after_warmup,
        )
        values["durability.store.file_append_us"] = file_append_us
        values.update(measured.counts)
        coverage = measured.coverage
        if coverage is None:
            coverage = ratio(timed.self_ns() / 1e9, measured.timed_seconds)
        values["trace.coverage"] = coverage
        values["trace.overhead_ratio"] = ratio(
            baseline.ops_per_s, measured.ops_per_s
        )
        values["trace.spans"] = len(tracer.spans) + tracer.spans_dropped
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
        written = tracer.write_spans(path, {
            "workload": name, "seed": seed, "sample_every": SAMPLE_EVERY,
            "spans_dropped": tracer.spans_dropped,
        })
        report.append(f"  {written} spans -> {path.relative_to(REPO_ROOT)}")
        declared = spec["per_layer"]
    names = [metric["name"] for metric in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }
    width = max(len(n) for n in names)
    for metric_name, metric in metrics.items():
        report.append(
            f"  {metric_name:<{width}}  {metric['value']:.6g} {metric['unit']}"
        )
    for problem in measured.problems:
        report.append(f"  NOT CORRECT: {problem}")
    report.append(EXACT_PREFIX + json.dumps(measured.exact, sort_keys=True))
    payload = {
        "correct": not measured.problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }
    return payload, report


# ----------------------------------------------------------------------
# sets
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: int):
    """One run in a fresh process; returns (payload, exact, exit code)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        if not line.startswith(EXACT_PREFIX):
            print(line)
    if done.returncode and not lines:
        return None, {}, done.returncode
    exact = next(
        (json.loads(line[len(EXACT_PREFIX):])
         for line in lines if line.startswith(EXACT_PREFIX)), {},
    )
    return json.loads(lines[-1]), exact, done.returncode


def run_set(seed: int, seconds: float, traces: tuple[int, ...]) -> dict:
    """Every workload, untraced and/or traced; checks exact numbers agree."""
    results: dict = {}
    ok = True
    for name in workloads():
        exacts = {}
        results[name] = {}
        for trace in traces:
            payload, exacts[trace], code = run_child(name, seed, seconds, trace)
            ok = ok and code == 0 and payload is not None and payload["correct"]
            if payload is not None:
                results[name]["per_layer" if trace else "end_to_end"] = {
                    metric: entry["value"]
                    for metric, entry in payload["metrics"].items()
                }
                results[name].setdefault("ops", {})[str(trace)] = {
                    "attempted": payload["attempted"],
                    "failed": payload["failed"],
                    "correct": payload["correct"],
                }
        if len(exacts) == 2:
            differing = sorted(
                key for key in exacts[0].keys() | exacts[1].keys()
                if exacts[0].get(key) != exacts[1].get(key)
            )
            results[name]["exact_numbers_compared"] = len(exacts[0])
            results[name]["exact_numbers_differing"] = differing
            if differing:
                ok = False
                print(f"  NOT DETERMINISTIC: {name}: traced and untraced runs "
                      f"differ on {differing}")
            elif exacts[0]:
                print(f"  determinism: {len(exacts[0])} exact numbers of "
                      f"{name} identical with and without tracing")
    return {"ok": ok, "seed": seed, "seconds": seconds, "workloads": results}


def check_repeat(seed: int, seconds: float) -> dict:
    """Two untraced sets back to back, compared against the bounds."""
    spec = load_spec()
    first = run_set(seed, seconds, (0,))
    second = run_set(seed, seconds, (0,))
    ok = first["ok"] and second["ok"]
    rows = []
    print(f"{'workload':<22}{'metric':<16}{'first':>14}{'second':>14}"
          f"{'worse by':>9}{'bound':>8}")
    for name in first["workloads"]:
        for metric in spec["end_to_end"]:
            a = first["workloads"][name]["end_to_end"][metric["name"]]
            b = second["workloads"][name]["end_to_end"][metric["name"]]
            worse = (a - b if metric["better"] == "higher" else b - a) / a
            within = worse <= metric["bound"]
            ok = ok and within
            rows.append({
                "workload": name, "metric": metric["name"], "first": a,
                "second": b, "worse_by": worse, "bound": metric["bound"],
                "within": within,
            })
            print(f"{name:<22}{metric['name']:<16}{a:>14.6g}{b:>14.6g}"
                  f"{worse:>+9.2%}{metric['bound']:>8.0%}"
                  f"{'' if within else '  OUT OF BOUND'}")
    return {"ok": ok, "seed": seed, "seconds": seconds, "pairs": rows}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument(
        "--size", type=float, default=1.0,
        help="scale the operations in a segment (with --workload; the "
        "harness's own test runs at 0.1, measurements at 1)",
    )
    args = parser.parse_args(argv)
    if args.workload is not None:
        payload, report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
        print("\n".join(report))
        print(json.dumps(payload))
        return 0 if payload["correct"] else 1
    if args.check_repeat:
        summary = check_repeat(args.seed, args.seconds)
    else:
        traces = (0, 1) if args.trace is None else (args.trace,)
        summary = run_set(args.seed, args.seconds, traces)
    # No gain is claimed by the change that defines the benchmark.
    summary["claim"] = None
    print(json.dumps(summary))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
