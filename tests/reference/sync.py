"""Row-object blocked-list pull: the spec of the columnar delta sync.

``sync_for_as`` answers one pull with a :class:`SyncResult` holding live
:class:`~repro.core.globaldb.GlobalEntry` rows, and ``apply_sync`` folds
it into a :class:`~repro.core.reporting.GlobalView`.  The shipped
``ServerDB.sync_batch_for_as`` / ``GlobalView.apply_batch`` must leave
every view bit-identical to these (``TestSyncWireFormatProperties``),
and must beat them by >= 3x at cohort scale (the fleet pull-storm
bench guard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.globaldb import SYNC_HEADER_BYTES, GlobalEntry, ServerDB
from repro.core.reporting import GlobalView

__all__ = ["SyncResult", "sync_for_as", "apply_sync"]


@dataclass(frozen=True)
class SyncResult:
    """What one pull transfers: a full snapshot or an incremental diff.

    ``entries`` holds every entry the client must (re)store; ``removed``
    the URLs it must drop (always empty on a full sync — the client
    replaces its view wholesale).  ``version`` is the shard version the
    client should present as ``since_version`` on its next pull.
    """

    asn: int
    version: int
    full: bool
    entries: List[GlobalEntry] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def transferred(self) -> int:
        """Rows on the wire — what delta sync is minimizing."""
        return len(self.entries) + len(self.removed)

    @property
    def wire_bytes(self) -> int:
        """Estimated bytes on the wire (same cost model as SyncBatch)."""
        total = SYNC_HEADER_BYTES
        for entry in self.entries:
            total += (
                len(entry.url) + 1 + 24  # three packed floats
                + 2  # stage code
                + len(entry.last_uuid)
            )
        for url in self.removed:
            total += len(url) + 1
        return total


def sync_for_as(
    server: ServerDB,
    asn: int,
    now: float,
    since_version: Optional[int] = None,
    min_reporters: int = 1,
    min_votes: float = 0.0,
    plane_weights: Optional[Dict[str, float]] = None,
) -> SyncResult:
    """Serve one client pull from ``server``, incrementally when possible.

    Same full/delta decision, rows, row order and serve counters as
    ``server.sync_batch_for_as``, as row objects taken from the shard.
    """
    shard = server._shards.get(asn)
    if shard is None:
        server.full_syncs_served += 1
        return SyncResult(asn=asn, version=0, full=True)
    server._evict_expired(shard, now)
    stale = (
        since_version is None
        or since_version < shard.floor
        or since_version > shard.version
    )
    if stale:
        server.full_syncs_served += 1
        return SyncResult(
            asn=asn,
            version=shard.version,
            full=True,
            entries=server.blocked_for_as(
                asn,
                now,
                min_reporters=min_reporters,
                min_votes=min_votes,
                plane_weights=plane_weights,
            ),
        )
    server.delta_syncs_served += 1
    if since_version == shard.version:
        return SyncResult(asn=asn, version=shard.version, full=False)
    changed: List[GlobalEntry] = []
    removed: List[str] = []
    stats = server._stats_fn(plane_weights)
    for url in shard.touched_since(since_version):
        entry = shard.entries.get(url)
        if entry is not None and stats(url, asn).passes(
            min_reporters, min_votes
        ):
            changed.append(entry)
        else:
            removed.append(url)
    return SyncResult(
        asn=asn,
        version=shard.version,
        full=False,
        entries=changed,
        removed=removed,
    )


def apply_sync(view: GlobalView, result: SyncResult, now: float) -> None:
    """Fold one :class:`SyncResult` into ``view``."""
    if result.full:
        view._entries = {entry.url: entry for entry in result.entries}
    else:
        for url in result.removed:
            view._entries.pop(url, None)
        for entry in result.entries:
            view._entries[entry.url] = entry
    view.version = result.version
    view.synced_asn = result.asn
    view.last_synced = now
