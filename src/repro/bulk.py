"""Build in bulk: the cyclic collector stays off while a world is built.

A build allocates over a hundred thousand container objects and frees
almost none of them, so every collection pass started inside it walks
survivors: about a quarter of a full-stack world's set-up went to some
150 passes that freed almost nothing.  :func:`collector_paused` turns
the collector off for the length of one build and back on when it
returns or raises; a build nested in another, or made while the caller
already had the collector off, leaves it as it found it.
"""

from __future__ import annotations

import functools
import gc

__all__ = ["collector_paused"]


def collector_paused(build):
    """``build`` with the cyclic collector off while it runs."""

    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused
