"""Table 1 — filtering mechanisms of ISP-A vs ISP-B (the case study).

Runs C-Saw's detection flowchart from vantages inside both ISPs against
YouTube and the blocked-content categories, and checks that the inferred
mechanisms reproduce Table 1:

  ISP-A / YouTube : HTTP blocking — redirected to a block page
  ISP-B / YouTube : DNS blocking (local-host resolution) + HTTP/S drops
  ISP-A / rest    : HTTP blocking — block page
  ISP-B / rest    : HTTP blocking — block page via iframe
"""

import pytest

from conftest import run_once
from repro.analysis import render_table
from repro.core.detection import measure_direct_path
from repro.core.records import BlockStatus, BlockType
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN, ISP_B_ASN


def classify(scenario, isp, url, scheme="http"):
    world = scenario.world
    client, access = world.add_client(
        f"t1-{isp.asn}-{abs(hash(url)) % 10**8}-{scheme}", [isp]
    )
    ctx = world.new_ctx(client, access, stream=f"t1/{isp.asn}/{url}/{scheme}")
    target = url.replace("http://", f"{scheme}://")
    return world.run_process(measure_direct_path(world, ctx, target))


def run_experiment():
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=42, with_proxy_fleet=False)
    )
    results = {}
    for isp_name, asn in (("ISP-A", ISP_A_ASN), ("ISP-B", ISP_B_ASN)):
        isp = scenario.isps[asn]
        results[(isp_name, "youtube")] = classify(
            scenario, isp, scenario.spec.urls["youtube"]
        )
        results[(isp_name, "youtube-https")] = classify(
            scenario, isp, scenario.spec.urls["youtube"], scheme="https"
        )
        results[(isp_name, "rest")] = classify(
            scenario, isp, scenario.spec.urls["porn"]
        )
    return results


def describe(outcome):
    if outcome.status is not BlockStatus.BLOCKED:
        return "no blocking"
    return " + ".join(stage.value for stage in outcome.stages)


def test_table1_filtering_mechanisms(benchmark, report):
    results = run_once(benchmark, run_experiment)

    rows = [
        ["YouTube (http)", describe(results[("ISP-A", "youtube")]),
         describe(results[("ISP-B", "youtube")])],
        ["YouTube (https)", describe(results[("ISP-A", "youtube-https")]),
         describe(results[("ISP-B", "youtube-https")])],
        ["Rest (porn/political/...)", describe(results[("ISP-A", "rest")]),
         describe(results[("ISP-B", "rest")])],
    ]
    report(render_table(
        ["Website/Category", "ISP-A (measured)", "ISP-B (measured)"],
        rows,
        title="Table 1 — filtering mechanisms, as inferred by C-Saw\n"
        "paper: ISP-A = HTTP block page; ISP-B = DNS to local host + "
        "HTTP/HTTPS request dropped; rest = block page (iframe on ISP-B)",
    ))

    # ISP-A: HTTP blocking via block page, single-stage.
    a_yt = results[("ISP-A", "youtube")]
    assert a_yt.stages == [BlockType.BLOCK_PAGE]
    # ISP-B: multi-stage — DNS redirect plus dropped requests.
    b_yt = results[("ISP-B", "youtube")]
    assert BlockType.DNS_REDIRECT in b_yt.stages
    assert BlockType.HTTP_TIMEOUT in b_yt.stages
    # ISP-B blocks HTTPS too (SNI) — ISP-A does not.
    assert results[("ISP-A", "youtube-https")].status is BlockStatus.NOT_BLOCKED
    assert results[("ISP-B", "youtube-https")].status is BlockStatus.BLOCKED
    # Rest: block pages on both.
    assert BlockType.BLOCK_PAGE in results[("ISP-A", "rest")].stages
    assert BlockType.BLOCK_PAGE in results[("ISP-B", "rest")].stages
