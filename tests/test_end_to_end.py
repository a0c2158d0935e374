"""Life-of-a-deployment integration test: everything, in one story.

One world, several users, several days of virtual time:

1. users install (CAPTCHA, registration, blocked-list pull);
2. they browse — discovery costs once, local fixes thereafter,
   crowdsourced knowledge spreads through the global DB;
3. the censor escalates mid-story (a blocking wave) and C-Saw detects it
   within the browsing cadence;
4. one user migrates to another AS and inherits the crowd's knowledge;
5. a Sybil attacker floods the DB and is filtered/revoked;
6. the observatory analytics read coherent numbers off the result.
"""

import pytest

from repro.censor.actions import HttpAction, HttpVerdict
from repro.censor.policy import Matcher, Rule
from repro.core import (
    BlockStatus,
    BlockType,
    CSawClient,
    CSawConfig,
    MeasurementAnalytics,
    ReportItem,
    ReputationAnalyzer,
    ServerDB,
)
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN, ISP_B_ASN


@pytest.fixture(scope="module")
def story():
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=31337, with_proxy_fleet=False)
    )
    world = scenario.world
    server = ServerDB(entry_ttl=None)
    config = CSawConfig(
        record_ttl=6 * 3600.0,
        report_interval=1800.0,
        download_interval=1800.0,
    )
    users = [
        CSawClient(
            world,
            f"e2e-user-{index}",
            [scenario.isps[ISP_A_ASN] if index % 2 == 0 else scenario.isps[ISP_B_ASN]],
            transports=scenario.make_transports(f"e2e-user-{index}"),
            server_db=server,
            config=config,
        )
        for index in range(6)
    ]
    log = {"responses": []}

    def user_process(user, rng):
        yield world.env.timeout(rng.uniform(0, 1800))
        yield from user.install()
        user.start_background(until=36 * 3600.0)
        urls = [
            scenario.spec.urls["youtube"],
            scenario.spec.urls["porn"],
            scenario.spec.urls["small-unblocked"],
            scenario.spec.urls["large-unblocked"],
        ]
        while world.env.now < 36 * 3600.0:
            yield world.env.timeout(rng.expovariate(1.0 / 1200.0))
            url = rng.choice(urls)
            response = yield from user.request(url)
            yield response.measurement_process
            log["responses"].append((world.env.now, user.name, url, response))

    def censor_process():
        # Hour 12: ISP-A starts blocking the large unblocked site.
        yield world.env.timeout(12 * 3600.0)
        policy = world.network.ases[ISP_A_ASN].censor.policy
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"www.bigmedia.example.com"}),
                http=HttpVerdict(
                    HttpAction.BLOCKPAGE_REDIRECT,
                    blockpage_ip=scenario.blockpages["block.isp-a.pk"].ip,
                ),
                label="wave",
            )
        )

    for index, user in enumerate(users):
        world.env.process(
            user_process(user, world.rngs.fork(f"e2e-{index}").stream("b"))
        )
    world.env.process(censor_process())
    world.env.run()
    return scenario, server, users, log


class TestDeploymentStory:
    def test_everyone_registered_and_reported(self, story):
        scenario, server, users, log = story
        assert server.client_count == 6
        assert server.update_count > 0
        assert all(user.reporting.registered for user in users)

    def test_blocked_content_served_throughout(self, story):
        _scenario, _server, _users, log = story
        blocked_serves = [
            r for _t, _u, url, r in log["responses"]
            if "youtube" in url or "hotstuff" in url
        ]
        assert blocked_serves
        ok_fraction = sum(1 for r in blocked_serves if r.ok) / len(blocked_serves)
        assert ok_fraction > 0.95

    def test_steady_state_uses_local_fixes(self, story):
        _scenario, _server, _users, log = story
        late = [
            r for t, _u, url, r in log["responses"]
            if "youtube" in url and t > 6 * 3600.0 and r.ok
        ]
        fix_fraction = sum(
            1 for r in late if r.path in ("https", "domain-fronting")
        ) / len(late)
        assert fix_fraction > 0.7

    def test_wave_detected_and_shared(self, story):
        scenario, server, _users, log = story
        entry = server.entry(
            "http://www.bigmedia.example.com/", ISP_A_ASN
        )
        assert entry is not None
        # Detected after the censor moved at hour 12, within a few hours.
        assert 12 * 3600.0 <= entry.first_measured_at <= 20 * 3600.0
        assert BlockType.BLOCK_PAGE in entry.stages
        # ISP-B never blocked it: no cross-AS contamination.
        assert server.entry(
            "http://www.bigmedia.example.com/", ISP_B_ASN
        ) is None

    def test_migration_inherits_crowd_knowledge(self, story):
        scenario, server, users, _log = story
        world = scenario.world
        traveller = users[0]  # lives on ISP-A

        def migrate():
            count = yield from traveller.migrate([scenario.isps[ISP_B_ASN]])
            return count

        count = world.run_process(migrate())
        assert traveller.asn == ISP_B_ASN
        assert count >= 1  # ISP-B's blocked list came down
        assert traveller.global_view.lookup(scenario.spec.urls["youtube"]) is not None

    def test_sybil_flood_filtered_and_revoked(self, story):
        scenario, server, _users, _log = story
        world = scenario.world
        sybil = server.register(now=world.env.now)
        fakes = [
            ReportItem(
                url=f"http://sybil-{i}.example/",
                asn=ISP_A_ASN,
                stages=(BlockType.BLOCK_PAGE,),
                measured_at=world.env.now,
            )
            for i in range(120)
        ]
        server.post_update(sybil, fakes, now=world.env.now)
        filtered = server.blocked_for_as(
            ISP_A_ASN, now=world.env.now, min_votes=0.05
        )
        assert not any("sybil-" in e.url for e in filtered)
        revoked = ReputationAnalyzer(server).enforce()
        assert sybil in revoked
        honest_left = server.client_count
        assert honest_left == 6  # only the attacker lost their identity

    def test_analytics_are_coherent(self, story):
        scenario, server, _users, _log = story
        analytics = MeasurementAnalytics(server)
        per_as = analytics.reporters_per_as()
        assert set(per_as) <= {ISP_A_ASN, ISP_B_ASN}
        assert all(count >= 1 for count in per_as.values())
        summary_a = analytics.as_summary(ISP_A_ASN)
        assert summary_a.blocked_urls >= 2  # youtube, porn, + the wave
        varied = analytics.mechanism_heterogeneity()
        # YouTube blocks differently on ISP-A (http) vs ISP-B (dns).
        assert "youtube.com" in varied
