"""Failure-injection tests: C-Saw must degrade gracefully, not crash.

The threat model (§3) says the adversary can block, modify, or reject
any connection at any time — including connections to C-Saw's own
infrastructure.  These tests break things on purpose: the collection
service, every relay, every transport at once, and the record TTLs.
"""

import pytest

from repro.censor.actions import HttpAction, HttpVerdict, IpAction, IpVerdict
from repro.censor.policy import Matcher, Rule
from repro.core import BlockStatus, CSawClient, CSawConfig, ServerDB
from repro.core.reporting import COLLECTOR_HOSTNAME, ensure_collector
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN, ISP_B_ASN


@pytest.fixture()
def scenario():
    return ScenarioCompiler().compile(pakistan_spec(seed=1234, with_proxy_fleet=False))


def joined_request(world, client, url):
    def proc():
        response = yield from client.request(url)
        yield response.measurement_process
        return response

    return world.run_process(proc())


class TestCollectorBlocked:
    def test_reports_fail_but_browsing_continues(self, scenario):
        """The censor blocks the global DB's collection endpoint (§5):
        uploads fail silently and are retried later; the client keeps
        measuring and circumventing on local knowledge alone."""
        world = scenario.world
        server = ServerDB()
        client = CSawClient(
            world, "fi-1", [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports("fi-1"),
            server_db=server,
        )

        def flow():
            yield from client.install()
            # Now the censor blackholes the collector.
            collector_ip = world.network.hosts_by_name[COLLECTOR_HOSTNAME].ip
            policy = world.network.ases[ISP_A_ASN].censor.policy
            policy.add_rule(
                Rule(matcher=Matcher(ips={collector_ip}, domains={COLLECTOR_HOSTNAME}),
                     ip=IpVerdict(IpAction.DROP), label="block-collector")
            )
            response = yield from client.request(scenario.spec.urls["youtube"])
            yield response.measurement_process
            posted = yield from client.reporting.post_reports(client.new_ctx())
            # Circumvention still works; the report upload failed.
            assert response.ok
            assert posted == 0
            assert client.local_db.pending_reports()  # still queued
            # Censor relents; the retry succeeds.
            policy.remove_rules("block-collector")
            posted_later = yield from client.reporting.post_reports(
                client.new_ctx()
            )
            assert posted_later == 1

        world.run_process(flow())

    def test_reports_over_tor_survive_collector_ip_block(self, scenario):
        """Reports carried over Tor are unaffected by an IP block on the
        collector as seen from the client's ISP (the exit fetches it)."""
        world = scenario.world
        server = ServerDB()
        client = CSawClient(
            world, "fi-2", [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports("fi-2"),
            server_db=server,
            report_transport=scenario.make_transports(
                "fi-2-report", include=["tor"]
            )[0],
        )

        def flow():
            yield from client.install()
            collector_ip = world.network.hosts_by_name[COLLECTOR_HOSTNAME].ip
            policy = world.network.ases[ISP_A_ASN].censor.policy
            policy.add_rule(
                Rule(matcher=Matcher(ips={collector_ip}),
                     ip=IpVerdict(IpAction.DROP), label="block-collector-2")
            )
            response = yield from client.request(scenario.spec.urls["youtube"])
            yield response.measurement_process
            posted = yield from client.reporting.post_reports(client.new_ctx())
            assert posted == 1  # Tor carried it out
            policy.remove_rules("block-collector-2")

        world.run_process(flow())


class TestAllRelaysBlocked:
    def test_total_relay_blackout_serves_failure_not_crash(self, scenario):
        """Censor blocks every Tor relay and every Lantern proxy for a
        client with no viable local fix: the request completes with a
        failed result rather than hanging or raising."""
        world = scenario.world
        relay_ips = set(scenario.tor.public_relay_ips()) | {
            p.ip for p in scenario.lantern.proxies
        }
        policy = world.network.ases[ISP_B_ASN].censor.policy
        policy.add_rule(
            Rule(matcher=Matcher(ips=relay_ips), ip=IpVerdict(IpAction.DROP),
                 label="relay-blackout")
        )
        client = CSawClient(
            world, "fi-3", [scenario.isps[ISP_B_ASN]],
            transports=scenario.make_transports(
                "fi-3", include=["tor", "lantern"]
            ),
        )
        response = joined_request(world, client, scenario.spec.urls["youtube"])
        assert not response.ok
        assert response.status is BlockStatus.BLOCKED
        policy.remove_rules("relay-blackout")

    def test_lantern_rotation_recovers_from_single_proxy_block(self, scenario):
        world = scenario.world
        lantern = scenario.make_transports("fi-4", include=["lantern"])[0]
        victim = lantern._proxy()
        policy = world.network.ases[ISP_A_ASN].censor.policy
        policy.add_rule(
            Rule(matcher=Matcher(ips={victim.ip}), ip=IpVerdict(IpAction.RST),
                 label="one-proxy")
        )
        client_host, access = world.add_client("fi-4c", [scenario.isps[ISP_A_ASN]])

        def flow():
            ctx = world.new_ctx(client_host, access, stream="fi-4")
            first = yield from lantern.fetch(world, ctx, scenario.spec.urls["youtube"])
            assert first.failed  # hit the blocked proxy, rotated away
            second = yield from lantern.fetch(world, ctx, scenario.spec.urls["youtube"])
            assert second.ok

        world.run_process(flow())
        policy.remove_rules("one-proxy")


class TestChurnUnderShortTtl:
    def test_rapid_policy_flapping_converges(self, scenario):
        """Censor adds and removes a rule repeatedly; with a short TTL the
        client tracks the current truth without wedging."""
        world = scenario.world
        url = "http://flappy.example.com/"
        world.web.add_site("flappy.example.com", location="us-east")
        world.web.add_page(url, size_bytes=40_000)
        policy = world.network.ases[ISP_A_ASN].censor.policy
        rule = Rule(
            matcher=Matcher(domains={"flappy.example.com"}),
            http=HttpVerdict(
                HttpAction.BLOCKPAGE_REDIRECT,
                blockpage_ip=scenario.blockpages["block.isp-a.pk"].ip,
            ),
            label="flappy",
        )
        client = CSawClient(
            world, "fi-5", [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports("fi-5"),
            config=CSawConfig(record_ttl=30.0, probe_probability=1.0),
        )

        def flow():
            statuses = []
            for round_index in range(6):
                if round_index % 2 == 1:
                    policy.add_rule(rule)
                else:
                    policy.remove_rules("flappy")
                yield world.env.timeout(60.0)  # let the record expire
                response = yield from client.request(url)
                yield response.measurement_process
                statuses.append(response.status)
            return statuses

        statuses = world.run_process(flow())
        expected = [
            BlockStatus.NOT_BLOCKED, BlockStatus.BLOCKED,
            BlockStatus.NOT_BLOCKED, BlockStatus.BLOCKED,
            BlockStatus.NOT_BLOCKED, BlockStatus.BLOCKED,
        ]
        assert statuses == expected


class TestDegenerateConfigurations:
    def test_client_with_no_transports_still_serves_direct(self, scenario):
        client = CSawClient(
            scenario.world, "fi-6", [scenario.isps[ISP_A_ASN]], transports=[]
        )
        ok = joined_request(
            scenario.world, client, scenario.spec.urls["small-unblocked"]
        )
        assert ok.ok and ok.path == "direct"
        blocked = joined_request(scenario.world, client, scenario.spec.urls["youtube"])
        # Nothing to circumvent with: the block page outcome is surfaced.
        assert blocked.status is BlockStatus.BLOCKED

    def test_world_without_public_resolver_still_detects(self):
        scenario = ScenarioCompiler().compile(
            pakistan_spec(seed=4321, with_proxy_fleet=False)
        )
        world = scenario.world
        world.public_resolver = None  # no GDNS anywhere
        client = CSawClient(
            world, "fi-7", [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports("fi-7", include=["tor"]),
        )
        response = joined_request(
            world, client, scenario.spec.urls["table5/dns-servfail"]
        )
        assert response.status is BlockStatus.BLOCKED
