"""Table 6 — impact of the direct-path probe probability p on median PLT.

A blocked URL is served through Tor; with probability p each access also
probes the direct path, which competes with the tunnel for the client's
resources.  paper: median PLT grows from 5.6 s (p=0) to 8.1 s (p=0.75);
recommendation p ≤ 0.25.
"""

import pytest

from conftest import run_once
from repro.analysis import percentile, render_table
from repro.censor.actions import IpAction, IpVerdict
from repro.censor.policy import Matcher, Rule
from repro.core import CSawClient, CSawConfig
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN

P_VALUES = (0.0, 0.25, 0.5, 0.75)
ACCESSES = 60
PAPER_MEDIANS = {0.0: 5.6, 0.25: 6.9, 0.5: 7.5, 0.75: 8.1}


def run_experiment():
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=401, with_proxy_fleet=False)
    )
    world = scenario.world
    # An IP-blackholed page: no local fix applies, Tor is the only way,
    # and every probe burns the full 21 s TCP timeout in the background.
    hostname = "t6-blocked.example.com"
    world.web.add_site(hostname, location="us-east")
    world.web.add_page(f"http://{hostname}/", size_bytes=360_000)
    url = f"http://{hostname}/"
    host_ip = world.network.hosts_by_name[hostname].ip
    policy = world.network.ases[ISP_A_ASN].censor.policy
    policy.add_rule(
        Rule(matcher=Matcher(domains={hostname}, ips={host_ip}),
             ip=IpVerdict(IpAction.DROP))
    )

    medians = {}
    for p in P_VALUES:
        client = CSawClient(
            world,
            f"t6-client-p{int(p * 100)}",
            [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports(
                f"t6-p{int(p * 100)}", include=["tor"]
            ),
            config=CSawConfig(probe_probability=p, explore_every_n=10**6),
        )
        plts = []

        def one():
            response = yield from client.request(url)
            plts.append(response.plt)
            yield response.measurement_process

        # Seed the local_DB with the blocked status first.
        world.run_process(one())
        plts.clear()
        for _ in range(ACCESSES):
            world.run_process(one())
        medians[p] = percentile(plts, 50)
    return medians


def test_table6_probe_probability(benchmark, report):
    medians = run_once(benchmark, run_experiment)
    rows = [
        [f"{p:g}", f"{PAPER_MEDIANS[p]:g}", f"{medians[p]:.2f}"]
        for p in P_VALUES
    ]
    report(render_table(
        ["p", "paper median PLT (s)", "measured median PLT (s)"],
        rows,
        title=f"Table 6 — direct-path probe probability ({ACCESSES} accesses "
        "of an IP-blocked URL via Tor)\npaper: higher p inflates PLT; "
        "recommend p <= 0.25",
    ))
    # Monotone non-decreasing in p, with a visible total increase.
    assert medians[0.25] >= medians[0.0] * 0.98
    assert medians[0.75] > medians[0.0] * 1.05
    assert medians[0.75] >= medians[0.25] * 0.98
