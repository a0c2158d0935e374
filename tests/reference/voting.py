"""Vote statistics from scratch: the spec of the incremental ledger.

``VotingLedger`` keeps s_{j,k} incrementally as per-key d-histograms.
These functions rebuild the histogram by walking every reporter of the
key, O(reporters) on purpose, so the property tests can assert the
incremental path agrees exactly (bit-identical floats: both sum
``count / d`` over the same sorted buckets).
"""

from __future__ import annotations

from typing import Dict

from repro.core.voting import DEFAULT_PLANE, VoteStats, VotingLedger, _hist_votes

__all__ = ["recompute_stats", "recompute_plane_stats"]


def recompute_stats(ledger: VotingLedger, url: str, asn: int) -> VoteStats:
    """From-scratch reference for ``ledger.stats(url, asn)``."""
    reporters = ledger._by_key.get((url, asn), set())
    hist: Dict[int, int] = {}
    for client_id in reporters:
        d = len(ledger._by_client.get(client_id, ()))
        if d:
            hist[d] = hist.get(d, 0) + 1
    return VoteStats(votes=_hist_votes(hist), reporters=len(reporters))


def recompute_plane_stats(
    ledger: VotingLedger, url: str, asn: int, plane: str
) -> VoteStats:
    """From-scratch reference for ``ledger.stats_for_plane``: walk the
    key's reporters, keep those assigned to ``plane``, rebuild the
    histogram."""
    plane_of = ledger._plane_of
    hist: Dict[int, int] = {}
    reporters = 0
    for client_id in ledger._by_key.get((url, asn), set()):
        if plane_of.get(client_id, DEFAULT_PLANE) != plane:
            continue
        reporters += 1
        d = len(ledger._by_client.get(client_id, ()))
        if d:
            hist[d] = hist.get(d, 0) + 1
    return VoteStats(votes=_hist_votes(hist), reporters=reporters)
