"""Command-line front door for the experiments.

Installed as ``repro-experiments``; also runnable as
``python -m repro.experiments``::

    repro-experiments --list
    repro-experiments F2 F5
    repro-experiments all
    repro-experiments fuzz --fuzz-seeds 25 --check-invariants
    repro-experiments F2 --scale 1.0         # full paper scale

Dispatch goes through :data:`repro.experiments.EXPERIMENTS` (id ->
module) and each module's ``run`` signature; the shared flags are defined
once in :mod:`repro.experiments.common`.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro import obs
from repro.chaos import parse_features
from repro.experiments import EXPERIMENTS
from repro.experiments.common import (
    add_fuzz_arguments,
    add_shared_arguments,
    describe,
    precheck_output_path,
)

__all__ = ["main"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation of 'Towards High Performance "
            "Peer-to-Peer Content and Resource Sharing Systems' (CIDR 2003)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e.g. F2 F5 E1), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    add_shared_arguments(parser)
    add_fuzz_arguments(parser)
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for exp_id, module in EXPERIMENTS.items():
            print(f"  {exp_id:4s} {describe(module)}")
        return 0

    wanted = (
        list(EXPERIMENTS)
        if [e.lower() for e in args.experiments] == ["all"]
        else [e.upper() for e in args.experiments]
    )
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known ids: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    # A fuzz gate whose features were silently dropped would pass vacuously.
    if args.features and "FUZZ" not in wanted:
        print(
            "--features applies to fuzz only, and fuzz is not among the "
            f"requested experiments ({', '.join(wanted)})",
            file=sys.stderr,
        )
        return 2

    try:
        features = parse_features(args.features)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    # Fail before running anything: a typo'd output path should not cost
    # the user the whole experiment run.  Both output flags get the same
    # precheck, and the error message names the flag that is wrong.
    for path, flag in (
        (args.metrics_out, "--metrics-out"),
        (args.repro_out, "--repro-out"),
    ):
        error = precheck_output_path(path, flag)
        if error is not None:
            print(error, file=sys.stderr)
            return 2

    obs.reset()  # a fresh observation window per CLI invocation
    if args.trace:
        obs.TRACE.enable()
    fuzz_failed = False
    try:
        for exp_id in wanted:
            module = EXPERIMENTS[exp_id]
            accepted = inspect.signature(module.run).parameters
            started = time.perf_counter()
            kwargs = {}
            if args.scale is not None and "scale" in accepted:
                kwargs["scale"] = args.scale
            if "seed" in accepted:
                kwargs["seed"] = args.seed
            if exp_id == "FUZZ":
                kwargs["seeds"] = args.fuzz_seeds
                kwargs["check_invariants"] = args.check_invariants
                kwargs["features"] = features
                if args.steps is not None:
                    kwargs["steps"] = args.steps
            with obs.Timer(obs.histogram(f"experiment.{exp_id.lower()}_s")):
                result = module.run(**kwargs)
            elapsed = time.perf_counter() - started
            print(module.format_result(result))
            print(f"[{exp_id} completed in {elapsed:.1f}s]")
            print()
            if exp_id == "FUZZ" and result.failing_seeds:
                fuzz_failed = True
                if args.repro_out is not None and result.minimal_repro:
                    with open(args.repro_out, "w", encoding="utf-8") as handle:
                        handle.write(result.minimal_repro)
                    print(f"[fuzz reproducer -> {args.repro_out}]")
        if args.metrics_out is not None:
            lines = obs.dump_jsonl(
                args.metrics_out,
                obs.REGISTRY,
                obs.TRACE if args.trace else None,
                deterministic=args.metrics_deterministic,
            )
            print(f"[metrics snapshot: {lines} records -> {args.metrics_out}]")
    finally:
        if args.trace:
            obs.TRACE.disable()
    # Invariant violations must fail the invocation (CI gates on this);
    # 1 is distinct from the argument-error exit code 2.
    return 1 if fuzz_failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
