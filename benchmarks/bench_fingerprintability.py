"""§8 — fingerprintability of C-Saw users.

A surveilling censor scores subscribers on C-Saw-shaped traffic patterns
(paired redundant flows, relay failovers after blocking).  The paper
argues selective redundancy keeps these signals rare; the strawman that
duplicates *every* request is trivially identifiable.

Setup: one censoring AS with traffic observation on; N C-Saw users
browsing a mixed (mostly unblocked) workload, M plain-browser users on
the same workload.  Report the censor's precision/recall against each
C-Saw variant.
"""

import pytest

from conftest import run_once
from repro.analysis import render_table
from repro.censor.fingerprint import FingerprintAnalyzer
from repro.core import CSawClient, CSawConfig
from repro.circumvent import DirectTransport
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN

N_CSAW = 6
N_PLAIN = 12
REQUESTS = 25


def run_variant(selective: bool):
    scenario = ScenarioCompiler().compile(pakistan_spec(seed=701 if selective else 702,
                                   with_proxy_fleet=False))
    world = scenario.world
    box = world.network.ases[ISP_A_ASN].censor
    box.observe_traffic = True
    relay_ips = set(scenario.tor.public_relay_ips()) | {
        p.ip for p in (h for h in scenario.lantern.proxies)
    }

    # A mixed workload: mostly unblocked pages, occasionally blocked ones.
    urls = [
        scenario.spec.urls["small-unblocked"],
        scenario.spec.urls["large-unblocked"],
        scenario.spec.urls["youtube"],
    ]

    csaw_clients = [
        CSawClient(
            world,
            f"fpb-csaw-{index}-{selective}",
            [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports(
                f"fpb-csaw-{index}-{selective}", include=["tor", "lantern"]
            ),
            config=CSawConfig(),
        )
        for index in range(N_CSAW)
    ]
    plain = [
        world.add_client(f"fpb-plain-{index}-{selective}", [scenario.isps[ISP_A_ASN]])
        for index in range(N_PLAIN)
    ]
    direct = DirectTransport()

    def drive():
        rng = world.rngs.stream(f"fpb/{selective}")
        for round_index in range(REQUESTS):
            yield world.env.timeout(rng.uniform(5, 30))
            for client in csaw_clients:
                url = rng.choices(urls, weights=[5, 4, 1])[0]
                if not selective:
                    client.local_db.clear()  # strawman: every URL "new"
                response = yield from client.request(url)
                yield response.measurement_process
            for host, access in plain:
                url = rng.choices(urls, weights=[5, 4, 1])[0]
                ctx = world.new_ctx(host, access, stream="fpb-plain")
                yield from direct.fetch(world, ctx, url)

    world.run_process(drive())
    analyzer = FingerprintAnalyzer(box, relay_ips)
    truth = [c.host.ip for c in csaw_clients]
    return analyzer.evaluate(truth, threshold=0.25)


def test_fingerprintability_selective_vs_always(benchmark, report):
    def experiment():
        return {
            "C-Saw (selective redundancy)": run_variant(selective=True),
            "always-redundant strawman": run_variant(selective=False),
        }

    results = run_once(benchmark, experiment)
    rows = [
        [label, f"{r['recall']:.0%}", f"{r['precision']:.0%}",
         int(r["labelled"])]
        for label, r in results.items()
    ]
    report(render_table(
        ["variant", "censor recall", "censor precision", "users labelled"],
        rows,
        title="§8 — fingerprintability: can the censor spot C-Saw users?\n"
        f"({N_CSAW} C-Saw users, {N_PLAIN} plain users, {REQUESTS} rounds)",
    ))
    selective = results["C-Saw (selective redundancy)"]
    strawman = results["always-redundant strawman"]
    # Duplicating everything is trivially identifiable; selective
    # redundancy meaningfully reduces the censor's coverage.
    assert strawman["recall"] >= 0.9
    assert selective["recall"] <= strawman["recall"]