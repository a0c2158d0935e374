"""Library performance: event-kernel and policy-lookup throughput.

Not a paper artefact — a regression guard for the substrate itself.  The
pilot study pushes ~10^6 events through the kernel and consults censor
policies on every protocol stage; if either slows down an order of
magnitude, every experiment in this repo does too.
"""

import json
import pathlib

import pytest

from repro.censor.actions import DnsAction, DnsVerdict
from repro.censor.policy import CensorPolicy, Matcher, Rule
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.records import BlockType
from record_engine_bench import (
    run_session_request_storm,
    run_spawn_join_storm,
    run_timer_storm,
)

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def test_kernel_event_throughput(benchmark):
    """~10k timeout events per round."""
    result = benchmark(run_timer_storm)
    assert result > 0


def test_kernel_spawn_join_throughput(benchmark):
    """Process trees: spawn, barrier-join, value propagation."""
    total = benchmark(run_spawn_join_storm)
    assert total == 40 * 27  # 3^3 leaves per root


def make_big_policy(n_domains=500):
    policy = CensorPolicy(name="big")
    domains = {f"blocked{i}.example.com" for i in range(n_domains)}
    policy.add_rule(
        Rule(matcher=Matcher(domains=domains),
             dns=DnsVerdict(DnsAction.NXDOMAIN))
    )
    return policy


def test_policy_lookup_throughput(benchmark):
    """Suffix-set domain matching must stay O(#labels) per query."""
    policy = make_big_policy()

    def lookups():
        hits = 0
        for i in range(2000):
            if policy.on_dns_query(f"www.blocked{i % 600}.example.com").action \
                    is DnsAction.NXDOMAIN:
                hits += 1
        return hits

    hits = benchmark(lookups)
    # Three full 600-cycles hit 500 each; the 200-remainder all hit.
    assert hits == 3 * 500 + 200


def make_crowdsourced_server(n_entries=5000, n_ases=10, urls_per_client=25):
    server = ServerDB(entry_ttl=None)
    urls = [f"http://site{i}.example.com/" for i in range(n_entries // n_ases)]
    index = 0
    for asn_offset in range(n_ases):
        asn = 30000 + asn_offset
        for start in range(0, len(urls), urls_per_client):
            uuid = server.register(now=float(index))
            index += 1
            server.post_update(
                uuid,
                [
                    ReportItem(
                        url=url,
                        asn=asn,
                        stages=(BlockType.BLOCK_PAGE,),
                        measured_at=1.0,
                    )
                    for url in urls[start : start + urls_per_client]
                ],
                now=2.0,
            )
    return server


def test_globaldb_pull_throughput(benchmark):
    """Per-AS pulls must scale with the shard, not the whole table."""
    server = make_crowdsourced_server()
    per_as = 5000 // 10

    def pulls():
        total = 0
        for asn_offset in range(10):
            total += len(server.blocked_for_as(30000 + asn_offset, now=3.0))
        return total

    total = benchmark(pulls)
    assert total == 10 * per_as


def test_globaldb_delta_sync_throughput(benchmark):
    """A no-change delta pull must be O(1), not a snapshot rebuild."""
    server = make_crowdsourced_server()
    versions = {
        30000 + off: server.version_for_as(30000 + off) for off in range(10)
    }

    def pulls():
        transferred = 0
        for asn, version in versions.items():
            result = server.sync_batch_for_as(
                asn, now=3.0, since_version=version
            )
            assert not result.full
            transferred += result.transferred
        return transferred

    assert benchmark(pulls) == 0


def test_session_request_throughput(benchmark):
    """End-to-end request path with tracing on — every served response
    must carry a non-empty, monotonically stamped stage trace."""
    responses = benchmark(run_session_request_storm, rounds=10)
    assert responses
    for response in responses:
        trace = response.trace
        assert trace is not None and len(trace) > 0
        stamps = [event.t for event in trace.events]
        assert stamps == sorted(stamps)


# Workloads that never enter the session/measurement layer — the refactor
# budget says the trace bus must be free when no session is running.
ENGINE_FAST_PATH = ("kernel_timer_storm", "kernel_spawn_join_storm")


def _recorded_seconds(label):
    if not BENCH_JSON.exists():
        pytest.skip(f"{BENCH_JSON.name} not present")
    history = json.loads(BENCH_JSON.read_text())
    if label not in history:
        pytest.skip(f"label {label!r} not recorded in {BENCH_JSON.name}")
    return history[label]["seconds"]


class TestSessionLayerOverhead:
    """Guard on the recorded interleaved A/B pair in BENCH_engine.json.

    ``before-session`` (commit c0895d8) and ``after-session`` were
    recorded as interleaved per-workload subprocess pairs — the only
    comparison that holds on a drifting single-core box.  The budget:
    the session layer adds <5% to the engine fast path.  The session
    request storm itself is allowed to pay for tracing (its cost is
    recorded and tracked, not capped here).
    """

    @pytest.mark.parametrize("workload", ENGINE_FAST_PATH)
    def test_fast_path_within_budget(self, workload):
        before = _recorded_seconds("before-session")
        after = _recorded_seconds("after-session")
        ratio = after[workload] / before[workload]
        assert ratio < 1.05, (
            f"{workload}: session layer added {(ratio - 1) * 100:.1f}% "
            f"to the engine fast path (budget 5%)"
        )

    def test_session_storm_cost_is_recorded(self):
        """The request-path cost must be tracked in both labels so the
        trajectory stays visible across PRs."""
        for label in ("before-session", "after-session"):
            assert "session_request_storm" in _recorded_seconds(label)


class TestTracingOffOverhead:
    """``TraceMode.OFF`` must make the session layer's tracing free.

    ``before-session-r2`` re-records the pre-tracing request storm
    (commit c0895d8's code) interleaved with ``after-fleet``'s
    ``session_request_storm_notrace`` — the original ``before-session``
    number is from an earlier, faster epoch of this drifting box and is
    not comparable to anything recorded now.  Budget: the disabled-trace
    path (one predicate check per emission site) stays within 5% of the
    pre-tracing cost.
    """

    def test_notrace_storm_within_budget(self):
        before = _recorded_seconds("before-session-r2")
        after = _recorded_seconds("after-fleet")
        ratio = (
            after["session_request_storm_notrace"]
            / before["session_request_storm"]
        )
        assert ratio < 1.05, (
            f"TraceMode.OFF request storm is {(ratio - 1) * 100:.1f}% over "
            f"the pre-tracing cost (budget 5%)"
        )

    def test_full_trace_cost_stays_recorded(self):
        """Full-mode tracing is allowed to cost — but the price must stay
        visible next to the free path."""
        after = _recorded_seconds("after-fleet")
        assert "session_request_storm" in after
        assert "session_request_storm_notrace" in after
