"""The ``healing`` round: scrub corrupt copies (``ContentManager.scrub``),
then run the replica loop (``replication_manager.converge``) over every
manifest, so a corrupt copy never counts toward the floor."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.content.manifest import ContentManager

__all__ = ["ContentHealer"]

#: the loop's budget in a healing round: at most this many floor fetches,
#: so one round stays bounded after mass churn.
HEAL_FETCH_LIMIT = 16


class ContentHealer:
    """Round-driven under-replication repair over one content manager."""

    def __init__(self, manager: "ContentManager") -> None:
        self.manager = manager

    def run_round(self) -> dict:
        """Scrub, then one loop pass over every manifest; the loop's report."""
        # Imported here: repro.overlay's package init builds P2PSystem,
        # which imports this package.
        from repro.overlay.replication_manager import converge

        manager = self.manager
        for peer in manager.system.alive_peers():
            if peer.content_state.corrupt:
                manager.scrub(peer)
        return converge(
            manager.system, sorted(manager.manifests), budget=HEAL_FETCH_LIMIT
        )

