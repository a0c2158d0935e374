"""Per-client fleet pull sweep: the spec of the group-applied sweep.

:class:`SpecCohort` is a :class:`~repro.core.fleet.ClientCohort` whose
pull sweep serves due clients one at a time, with the O(population)
cost shape (per-client batch lookups, wire-size property reads) the
fleet layer had before sweeps were applied per group.  The grouped
sweep must reproduce it bit for bit (``TestGroupedSweepProperties``,
``tests/data/plane_golden.json``) and beat it by >= 3x on the 100k
storm (the fleet bench guard).
"""

from __future__ import annotations

from typing import Dict

import repro.core.fleet as fleet
from repro.core.fleet import ClientCohort, CohortAs, FleetMetrics
from repro.core.globaldb import SYNC_HEADER_BYTES

__all__ = ["SpecCohort", "run_spec_fleet_storm"]


class SpecCohort(ClientCohort):
    """A cohort served by the per-client reference sweep."""

    def _service_pulls(self, st: CohortAs, now: float) -> None:
        """Serve every client whose periodic pull came due, one at a time.

        Clients due in the same sweep that share a since-version also
        share one server-built ``SyncBatch``.
        """
        server, metrics = self.server, self.metrics
        order, next_pull = st.pull_order, st.next_pull_at
        versions = st.versions
        batch_cache: Dict[int, object] = {}
        n = st.n
        served = 0
        while served < n:
            i = order[st.pull_ptr % n]
            if next_pull[i] > now:
                break
            since = versions[i]
            batch = batch_cache.get(since)
            if batch is None:
                batch = server.sync_batch_for_as(
                    st.asn, now,
                    since_version=None if since < 0 else since,
                )
                batch_cache[since] = batch
                metrics.batches_built += 1
            versions[i] = batch.version
            rows = batch.transferred
            if rows:
                st.rows_received[i] += rows
                st.bytes_received[i] += batch.wire_bytes
                metrics.sync_rows += rows
                metrics.sync_bytes += batch.wire_bytes
            else:
                metrics.sync_bytes += SYNC_HEADER_BYTES  # empty delta
            next_pull[i] += self.pull_interval
            st.pulls += 1
            metrics.pulls_served += 1
            st.pull_ptr += 1
            served += 1
            if (
                st.target_version is not None
                and st.unconverged
                and since < st.target_version <= batch.version
            ):
                st.unconverged -= 1
                if st.unconverged == 0 and st.wave_started_at is not None:
                    st.converged_at = now
            for group in st.groups:
                gt = group.target_version
                if (
                    gt is not None
                    and group.unconverged
                    and since < gt <= batch.version
                ):
                    group.unconverged -= 1


def run_spec_fleet_storm(**kwargs) -> FleetMetrics:
    """:func:`repro.core.fleet.run_fleet_storm` with every cohort it
    builds a :class:`SpecCohort`.  Same keyword arguments; in-process
    only (a sharded storm's workers would not see the swap)."""
    shipped = fleet.ClientCohort
    fleet.ClientCohort = SpecCohort
    try:
        return fleet.run_fleet_storm(**kwargs)
    finally:
        fleet.ClientCohort = shipped
