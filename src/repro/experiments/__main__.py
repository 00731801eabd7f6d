"""``python -m repro.experiments`` and the ``repro-experiments`` script —
delegate to the CLI runner."""

import sys

from repro.experiments.runner import main


def cli() -> int:
    """The installed ``repro-experiments`` entry point."""
    return main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(cli())
