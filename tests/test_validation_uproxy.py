"""Tests for client-side URL validation/dissent (§5) and the uProxy-style
friend relay (§2.2)."""

import pytest

from repro.circumvent import FriendProxyTransport
from repro.core import BlockStatus, BlockType, CSawClient, ReportItem, ServerDB
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import CLEAN_ASN, ISP_A_ASN, ISP_B_ASN


@pytest.fixture()
def scenario():
    return ScenarioCompiler().compile(pakistan_spec(seed=606, with_proxy_fleet=False))


class TestDissent:
    def test_dissent_removes_own_vouch_only(self, scenario):
        server = ServerDB(entry_ttl=None)
        a = server.register(now=0.0)
        b = server.register(now=1.0)
        item = ReportItem(
            url="http://x.example/", asn=1,
            stages=(BlockType.BLOCK_PAGE,), measured_at=1.0,
        )
        server.post_update(a, [item], now=2.0)
        server.post_update(b, [item], now=2.0)
        dropped = server.post_dissent(a, "http://x.example/", 1, now=3.0)
        assert not dropped  # b still vouches
        stats = server.stats_for("http://x.example/", 1)
        assert stats.reporters == 1
        dropped = server.post_dissent(b, "http://x.example/", 1, now=4.0)
        assert dropped
        assert server.entry("http://x.example/", 1) is None

    def test_dissent_from_non_reporter_is_harmless(self, scenario):
        server = ServerDB(entry_ttl=None)
        reporter = server.register(now=0.0)
        bystander = server.register(now=1.0)
        item = ReportItem(
            url="http://x.example/", asn=1,
            stages=(BlockType.BLOCK_PAGE,), measured_at=1.0,
        )
        server.post_update(reporter, [item], now=2.0)
        dropped = server.post_dissent(bystander, "http://x.example/", 1, 3.0)
        assert not dropped
        assert server.stats_for("http://x.example/", 1).reporters == 1

    def test_dissent_requires_registration(self, scenario):
        from repro.core import RegistrationError

        server = ServerDB()
        with pytest.raises(RegistrationError):
            server.post_dissent("ghost", "http://x.example/", 1, 0.0)

    def test_client_validate_corrects_false_report(self, scenario):
        """A false global entry for an actually-unblocked URL: the user
        validates, the local record flips, and their vouch is withdrawn."""
        world = scenario.world
        server = ServerDB(entry_ttl=None)
        client = CSawClient(
            world, "val-1", [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports("val-1"),
            server_db=server,
        )
        url = scenario.spec.urls["small-unblocked"]

        def flow():
            yield from client.install()
            # The client itself once (wrongly) reported this URL.
            server.post_update(
                client.reporting.uuid,
                [ReportItem(url=url, asn=client.asn,
                            stages=(BlockType.BLOCK_PAGE,), measured_at=0.0)],
                now=world.env.now,
            )
            outcome = yield from client.validate(url)
            return outcome

        outcome = world.run_process(flow())
        assert outcome.status is BlockStatus.NOT_BLOCKED
        assert client.local_db.lookup(url)[0] is BlockStatus.NOT_BLOCKED
        assert server.entry(url, client.asn) is None  # vouch withdrawn

    def test_client_validate_confirms_real_blocking(self, scenario):
        world = scenario.world
        client = CSawClient(
            world, "val-2", [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports("val-2"),
        )

        def flow():
            outcome = yield from client.validate(scenario.spec.urls["youtube"])
            return outcome

        outcome = world.run_process(flow())
        assert outcome.blocked
        assert client.local_db.lookup(scenario.spec.urls["youtube"])[0] is (
            BlockStatus.BLOCKED
        )


class TestFriendProxy:
    def make_friend(self, scenario, name="friend-laptop", bw=8e6):
        return scenario.world.network.add_host(
            name, "us-east", bandwidth_bps=bw
        )

    def test_online_friend_relays(self, scenario):
        world = scenario.world
        friend = self.make_friend(scenario)
        transport = FriendProxyTransport(friend, online_probability=1.0)
        client, access = world.add_client("up-1", [scenario.isps[ISP_B_ASN]])
        ctx = world.new_ctx(client, access, stream="up-1")
        result = world.run_process(
            transport.fetch(world, ctx, scenario.spec.urls["youtube"])
        )
        assert result.ok
        assert result.transport == "uproxy"

    def test_offline_friend_times_out(self, scenario):
        world = scenario.world
        friend = self.make_friend(scenario, "friend-off")
        transport = FriendProxyTransport(friend, online_probability=0.0)
        client, access = world.add_client("up-2", [scenario.isps[ISP_B_ASN]])
        ctx = world.new_ctx(client, access, stream="up-2")
        t0 = world.env.now
        result = world.run_process(
            transport.fetch(world, ctx, scenario.spec.urls["youtube"])
        )
        assert result.failed
        assert result.failure_stage == "tcp"
        assert world.env.now - t0 == pytest.approx(21.0)

    def test_presence_flaps_per_session(self, scenario):
        import random

        world = scenario.world
        friend = self.make_friend(scenario, "friend-flap")
        transport = FriendProxyTransport(
            friend, online_probability=0.5, rng=random.Random(13),
            session_length=600.0,
        )
        client, access = world.add_client("up-3", [scenario.isps[CLEAN_ASN]])
        outcomes = []

        def flow():
            for _ in range(20):
                ctx = world.new_ctx(client, access, stream="up-3")
                result = yield from transport.fetch(
                    world, ctx, scenario.spec.urls["small-unblocked"]
                )
                outcomes.append(result.ok)
                yield world.env.timeout(700.0)  # next presence session

        world.run_process(flow())
        assert any(outcomes) and not all(outcomes)

    def test_probability_validation(self, scenario):
        friend = self.make_friend(scenario, "friend-bad")
        with pytest.raises(ValueError):
            FriendProxyTransport(friend, online_probability=1.5)
        with pytest.raises(ValueError):
            FriendProxyTransport(friend, online_probability=-0.1)

    def test_csaw_learns_to_avoid_flaky_friend(self, scenario):
        """With a flaky friend and a reliable Lantern pool, the moving
        averages steer C-Saw away from the friend over time."""
        import random

        world = scenario.world
        friend = self.make_friend(scenario, "friend-flaky", bw=3e6)
        client = CSawClient(
            world, "up-4", [scenario.isps[ISP_B_ASN]],
            transports=[
                FriendProxyTransport(
                    friend, online_probability=0.4,
                    rng=random.Random(5), session_length=300.0,
                ),
                scenario.make_transports("up-4", include=["lantern"])[0],
            ],
        )
        paths = []

        def flow():
            for _ in range(14):
                response = yield from client.request(scenario.spec.urls["youtube"])
                yield response.measurement_process
                paths.append(response.path)
                yield world.env.timeout(400.0)

        world.run_process(flow())
        # Steady state prefers the dependable relay.
        assert paths[-4:].count("lantern") >= 3
