"""Tests for adaptive circumvention selection (§4.3.2)."""

import pytest

from repro.core.circumvention import CircumventionModule, fix_defeats
from repro.core.config import CSawConfig
from repro.core.records import BlockType
from repro.scenarios import ScenarioCompiler, pakistan_spec


@pytest.fixture()
def scenario():
    return ScenarioCompiler().compile(pakistan_spec(seed=55, with_proxy_fleet=False))


def make_module(scenario, include=None, config=None, name="cm"):
    transports = scenario.make_transports(name, include=include)
    return CircumventionModule(
        scenario.world, transports, config=config, rng_stream=f"cm/{name}"
    )


class TestFixDefeats:
    def test_public_dns_only_dns(self):
        assert fix_defeats("public-dns", [BlockType.DNS_SERVFAIL])
        assert not fix_defeats("public-dns", [BlockType.DNS_SERVFAIL, BlockType.HTTP_TIMEOUT])
        assert not fix_defeats("public-dns", [])

    def test_https_only_http(self):
        assert fix_defeats("https", [BlockType.BLOCK_PAGE])
        assert fix_defeats("https", [BlockType.HTTP_RST])
        assert not fix_defeats("https", [BlockType.SNI_TIMEOUT])

    def test_ip_hostname_dns_and_http(self):
        assert fix_defeats(
            "ip-as-hostname", [BlockType.DNS_REDIRECT, BlockType.HTTP_TIMEOUT]
        )
        assert not fix_defeats("ip-as-hostname", [BlockType.IP_TIMEOUT])

    def test_fronting_defeats_everything(self):
        assert fix_defeats(
            "domain-fronting",
            [BlockType.DNS_TIMEOUT, BlockType.IP_TIMEOUT, BlockType.SNI_RST],
        )

    def test_unknown_fix_never_defeats(self):
        assert not fix_defeats("bogus", [BlockType.BLOCK_PAGE])


class TestSelection:
    def test_local_fix_preferred_over_relays(self, scenario):
        module = make_module(scenario, name="s1")
        choice = module.choose(scenario.spec.urls["youtube"], [BlockType.BLOCK_PAGE])
        assert choice.name == "https"  # cheapest fix covering http blocking

    def test_relay_when_no_fix_covers(self, scenario):
        module = make_module(
            scenario, include=["https", "tor", "lantern"], name="s2"
        )
        choice = module.choose(
            scenario.spec.urls["youtube"], [BlockType.IP_TIMEOUT]
        )
        assert choice.name in ("tor", "lantern")

    def test_moving_average_picks_faster_relay(self, scenario):
        module = make_module(scenario, include=["tor", "lantern"], name="s3")
        url = scenario.spec.urls["youtube"]
        for _ in range(5):
            module.record_plt("tor", url, 12.0)
            module.record_plt("lantern", url, 4.0)
        assert module.relay_for(url).name == "lantern"
        for _ in range(20):
            module.record_plt("tor", url, 1.0)
        assert module.relay_for(url).name == "tor"

    def test_every_nth_access_explores(self, scenario):
        config = CSawConfig(explore_every_n=5)
        module = make_module(
            scenario, include=["tor", "lantern"], config=config, name="s4"
        )
        url = scenario.spec.urls["youtube"]
        for _ in range(10):
            module.record_plt("lantern", url, 2.0)
            module.record_plt("tor", url, 20.0)
        picks = [
            module.choose(url, [BlockType.IP_TIMEOUT]).name for _ in range(50)
        ]
        # Exploitation picks lantern; every 5th pick may go anywhere.
        assert picks.count("lantern") >= 35
        assert "tor" in picks  # exploration happened at least once

    def test_anonymity_preference_restricts_to_anonymous(self, scenario):
        config = CSawConfig(prefer_anonymity=True)
        module = make_module(scenario, config=config, name="s5")
        choice = module.choose(scenario.spec.urls["youtube"], [BlockType.BLOCK_PAGE])
        assert choice.provides_anonymity  # tor, never the https fix

    def test_failed_fix_blacklisted_per_url(self, scenario):
        module = make_module(scenario, name="s6")
        url = scenario.spec.urls["youtube"]
        stages = [BlockType.DNS_REDIRECT, BlockType.HTTP_TIMEOUT]
        first = module.local_fix_for(url, stages)
        assert first.name == "ip-as-hostname"
        module.mark_fix_failed(url, "ip-as-hostname")
        second = module.local_fix_for(url, stages)
        assert second.name == "domain-fronting"
        # Other URLs are unaffected.
        porn = scenario.spec.urls["porn"]
        assert module.local_fix_for(porn, stages).name == "ip-as-hostname"

    def test_unavailable_fix_skipped(self, scenario):
        module = make_module(scenario, name="s7")
        # small-unblocked does not support fronting; an SNI-blocked URL
        # there has no viable local fix.
        choice = module.local_fix_for(
            scenario.spec.urls["small-unblocked"], [BlockType.SNI_TIMEOUT]
        )
        assert choice is None

    def test_duplicate_transport_rejected(self, scenario):
        module = make_module(scenario, include=["tor"], name="s8")
        with pytest.raises(ValueError):
            module.register(scenario.make_transports("s8b", include=["tor"])[0])

    def test_estimate_uses_priors_for_unseen(self, scenario):
        module = make_module(scenario, include=["tor", "lantern"], name="s9")
        assert module.estimate_plt("tor", "http://x.example/") == pytest.approx(5.0)
        assert module.estimate_plt("lantern", "http://x.example/") == pytest.approx(3.0)
