"""Figure 6 — (a) how many redundant requests are enough, (b) URL
aggregation savings.

(a) 1, 2, or 3 duplicate requests for an uncensored page, each over its
    own fresh Tor circuit; the user sees the fastest copy.  paper: going
    from 1→2 improves the median by ~30 %; a third copy does not improve
    the median but inflates the 95th percentile (client load).
(b) Crawling the Alexa-top-15-style sites with aggregation on/off:
    ~55 % fewer local_DB records with aggregation.
"""

import pytest

from conftest import run_once
from repro.analysis import percentile, render_table
from repro.circumvent import TorTransport
from repro.core import BlockStatus, LocalDatabase
from repro.workloads.corpus import build_corpus
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import CLEAN_ASN

RUNS_6A = 120


def run_fig6a():
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=301, with_proxy_fleet=False)
    )
    world = scenario.world
    url = scenario.spec.urls["youtube"]
    client, access = world.add_client("fig6a-client", [scenario.isps[CLEAN_ASN]])
    series = {}
    for copies in (1, 2, 3):
        transport = TorTransport(
            scenario.tor.client(f"fig6a-{copies}"), fresh_circuit_per_fetch=True
        )
        plts = []

        def one_round():
            ctx = world.new_ctx(client, access, stream=f"fig6a/{copies}")

            def copy():
                ctx.load.enter()
                try:
                    result = yield from transport.fetch(world, ctx, url)
                finally:
                    ctx.load.exit()
                return result

            t0 = world.env.now
            procs = [world.env.process(copy()) for _ in range(copies)]
            yield world.env.any_of(procs)  # fastest copy wins
            plts.append(world.env.now - t0)
            yield world.env.all_of(procs)  # drain the losers

        for _ in range(RUNS_6A):
            world.run_process(one_round())
        series[copies] = plts
    return series


def test_fig6a_redundant_request_count(benchmark, report):
    series = run_once(benchmark, run_fig6a)
    rows = [
        [f"{k} request(s)", f"{percentile(v, 50):.2f}",
         f"{percentile(v, 95):.2f}"]
        for k, v in series.items()
    ]
    report(render_table(
        ["redundant requests", "median PLT (s)", "p95 PLT (s)"],
        rows,
        title=f"Figure 6a — duplicate requests over separate Tor circuits "
        f"({RUNS_6A} runs)\npaper: 1→2 improves median ~30%; a 3rd copy "
        "does not improve the median but inflates the tail",
    ))
    m1 = percentile(series[1], 50)
    m2 = percentile(series[2], 50)
    m3 = percentile(series[3], 50)
    # The second copy buys a clear median win (paper: ~30 %; our Tor
    # variance model yields ~10 % — direction preserved).
    assert m2 < 0.93 * m1
    # The third copy buys little median and costs tail (client load).
    assert m3 > 0.8 * m2
    assert percentile(series[3], 95) > 0.95 * percentile(series[2], 95)


def run_fig6b():
    corpus = build_corpus(n_sites=15, seed=302, cdn_probability=0.0)
    results = {}
    for aggregation in (False, True):
        db = LocalDatabase(ttl=1e9, aggregation=aggregation)
        for site in corpus.sites:
            # Crawl every page of the site; all uncensored (the paper's
            # Alexa-top-15 crawl found them unblocked).
            for path in site.page_paths:
                db.record_measurement(
                    f"http://{site.hostname}{path}",
                    BlockStatus.NOT_BLOCKED,
                    [],
                )
        results[aggregation] = db.record_count
    return results


def test_fig6b_url_aggregation(benchmark, report):
    results = run_once(benchmark, run_fig6b)
    reduction = 1.0 - results[True] / results[False]
    report(render_table(
        ["mode", "local_DB records"],
        [
            ["no aggregation", results[False]],
            ["with aggregation", results[True]],
            ["reduction", f"{reduction:.0%} (paper: ~55%)"],
        ],
        title="Figure 6b — URL aggregation on an Alexa-top-15-style crawl",
    ))
    assert results[True] == 15  # one base record per unblocked site
    assert 0.40 <= reduction <= 0.85
