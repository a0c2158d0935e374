"""Figure 5 — impact of redundant requests on PLTs.

(a) Blocked pages under four blocking types, serial vs parallel
    redundancy: the parallel approach cuts PLT by ~46-64 % because
    detection time is a large fraction of the total.
(b) Small unblocked page (95 KB): "2 copies (with delay)" ≈ "1 copy";
    plain "2 copies" pays the client-load cost.
(c) Larger unblocked page (316 KB): staggering the duplicate clearly
    beats always-duplicating (client load dominates).

100 requests per curve with inter-arrival times U[1 s, 5 s] (paper setup).
"""

import pytest

from conftest import run_once
from repro.analysis import mean, percentile, render_table
from repro.censor.actions import (
    DnsAction,
    DnsVerdict,
    HttpAction,
    HttpVerdict,
    IpAction,
    IpVerdict,
)
from repro.censor.policy import Matcher, Rule
from repro.core import CSawClient, CSawConfig
from repro.runner import TrialSpec, merge_values, run_trials
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN

# Figure 5a page sizes per blocking type (from the figure's annotations).
FIG5A_PAGES = {
    "tcp-ip": 1_469_000,
    "dns-servfail": 340_000,
    "dns-nxdomain+tcp-ip": 1_342_000,
    "blockpage": 85_000,
}
FIG5A_RUNS = 12
FIG5BC_REQUESTS = 100


def build_fig5a_world():
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=201, with_proxy_fleet=False)
    )
    world = scenario.world
    policy = world.network.ases[ISP_A_ASN].censor.policy
    urls = {}
    for key, size in FIG5A_PAGES.items():
        hostname = f"fig5a-{key.replace('+', '-')}.example.com"
        world.web.add_site(hostname, location="us-east", bandwidth_bps=100e6)
        world.web.add_page(f"http://{hostname}/", size_bytes=size)
        urls[key] = f"http://{hostname}/"
        host_ip = world.network.hosts_by_name[hostname].ip
        if key == "tcp-ip":
            rule = Rule(
                matcher=Matcher(domains={hostname}, ips={host_ip}),
                ip=IpVerdict(IpAction.DROP),
            )
        elif key == "dns-servfail":
            rule = Rule(
                matcher=Matcher(domains={hostname}),
                dns=DnsVerdict(DnsAction.SERVFAIL),
            )
        elif key == "dns-nxdomain+tcp-ip":
            rule = Rule(
                matcher=Matcher(domains={hostname}, ips={host_ip}),
                dns=DnsVerdict(DnsAction.NXDOMAIN),
                ip=IpVerdict(IpAction.DROP),
            )
        else:  # blockpage
            rule = Rule(
                matcher=Matcher(domains={hostname}),
                http=HttpVerdict(
                    HttpAction.BLOCKPAGE_REDIRECT,
                    blockpage_ip=scenario.blockpages["block.isp-a.pk"].ip,
                ),
            )
        policy.add_rule(rule)
    return scenario, urls


def run_fig5a():
    scenario, urls = build_fig5a_world()
    world = scenario.world
    results = {}
    for mode in ("serial", "parallel"):
        for key, url in urls.items():
            client = CSawClient(
                world,
                f"f5a-{mode}-{key}",
                [scenario.isps[ISP_A_ASN]],
                # rotation 0: a fresh circuit per fetch, so both modes
                # average over circuit quality instead of riding one draw.
                transports=scenario.make_transports(
                    f"f5a-{mode}-{key}", include=["tor"], tor_rotation=0.0
                ),
                config=CSawConfig(redundancy_mode=mode),
            )
            plts = []
            for _ in range(FIG5A_RUNS):
                client.local_db.clear()  # every run sees a fresh URL

                def one():
                    response = yield from client.request(url)
                    yield response.measurement_process
                    return response

                response = world.run_process(one())
                assert response.ok, (mode, key)
                plts.append(response.plt)
            results[(mode, key)] = mean(plts)
    return results


def test_fig5a_serial_vs_parallel_blocked_pages(benchmark, report):
    results = run_once(benchmark, run_fig5a)
    rows = []
    reductions = {}
    for key in FIG5A_PAGES:
        serial = results[("serial", key)]
        parallel = results[("parallel", key)]
        reduction = 1.0 - parallel / serial
        reductions[key] = reduction
        rows.append(
            [key, f"{FIG5A_PAGES[key] // 1000} KB", f"{serial:.1f}",
             f"{parallel:.1f}", f"{reduction:.0%}"]
        )
    report(render_table(
        ["blocking type", "page", "serial PLT (s)", "parallel PLT (s)",
         "reduction"],
        rows,
        title="Figure 5a — serial vs parallel redundant requests on blocked "
        "pages\npaper: parallel cuts PLT by 45.8%-64.1%",
    ))
    # Detection time is the dominant cost for timeout-style blocking; for
    # block pages (fast detection) the win is smaller — our block-page
    # detection is faster than the paper's 1.8 s, so the gain shrinks.
    for key in ("tcp-ip", "dns-servfail", "dns-nxdomain+tcp-ip"):
        assert reductions[key] >= 0.40, (key, reductions[key])
    assert reductions["blockpage"] >= -0.10  # parallel never clearly worse
    assert max(reductions.values()) >= 0.5


_FIG5BC_MODES = {
    "1 copy": dict(max_redundant_requests=1, aggregation_enabled=False),
    "2 copies": dict(max_redundant_requests=2, aggregation_enabled=False),
    "2 copies (with delay)": dict(
        max_redundant_requests=2,
        redundant_delay=2.0,
        aggregation_enabled=False,
    ),
}


def _fig5bc_arm(size_key, label, mode_index, config_kwargs):
    """One redundancy mode on its own fresh scenario (same seed, so all
    modes see identical topology/web state and differ only in config)."""
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=202, with_proxy_fleet=False)
    )
    world = scenario.world
    hostname = f"fig5-{size_key}.example.com"
    size = 95_000 if size_key == "small" else 316_000
    from repro.simnet.web import WebPage

    world.web.add_site(
        hostname,
        location="us-east",
        bandwidth_bps=100e6,
        catch_all=lambda path: WebPage(
            url=f"http://{hostname}{path}", size_bytes=size
        ),
    )
    client = CSawClient(
        world,
        f"f5bc-{size_key}-mode{mode_index}",
        [scenario.isps[ISP_A_ASN]],
        transports=scenario.make_transports(
            f"f5bc-{size_key}-{label}", include=["tor"]
        ),
        config=CSawConfig(**config_kwargs),
    )
    rng = world.rngs.stream(f"fig5bc/{size_key}/{label}")
    plts = []

    def request_one(index):
        response = yield from client.request(
            f"http://{hostname}/page-{index}"
        )
        plts.append(response.plt)
        yield response.measurement_process

    def driver():
        for index in range(FIG5BC_REQUESTS):
            yield world.env.timeout(rng.uniform(1.0, 5.0))
            world.env.process(request_one(index))

    world.run_process(driver())
    world.env.run()  # drain outstanding requests
    return plts


def run_fig5bc(size_key):
    # Independent trials, one per redundancy mode, fanned via the runner.
    specs = [
        TrialSpec(
            name=label,
            fn=_fig5bc_arm,
            kwargs=dict(size_key=size_key, label=label,
                        mode_index=mode_index, config_kwargs=config_kwargs),
        )
        for mode_index, (label, config_kwargs) in enumerate(_FIG5BC_MODES.items())
    ]
    return merge_values(run_trials(specs))


def _bc_table(series, title):
    rows = []
    for label, values in series.items():
        rows.append(
            [label, len(values), f"{percentile(values, 50):.2f}",
             f"{percentile(values, 90):.2f}", f"{percentile(values, 99):.2f}"]
        )
    return render_table(
        ["mode", "n", "p50 (s)", "p90 (s)", "p99 (s)"], rows, title=title
    )


def test_fig5b_small_unblocked_page(benchmark, report):
    series = run_once(benchmark, lambda: run_fig5bc("small"))
    report(_bc_table(
        series,
        "Figure 5b — redundancy on a small unblocked page (95 KB, "
        f"{FIG5BC_REQUESTS} requests, inter-arrival U[1s,5s])\n"
        "paper: '2 copies (with delay)' performs like '1 copy'",
    ))
    one = percentile(series["1 copy"], 50)
    delayed = percentile(series["2 copies (with delay)"], 50)
    # Staggered duplicates cost (almost) nothing for small pages.
    assert delayed == pytest.approx(one, rel=0.25)


def test_fig5c_large_unblocked_page(benchmark, report):
    series = run_once(benchmark, lambda: run_fig5bc("large"))
    report(_bc_table(
        series,
        "Figure 5c — redundancy on a larger unblocked page (316 KB)\n"
        "paper: '2 copies (with delay)' performs much better than '2 copies'",
    ))
    plain = percentile(series["2 copies"], 50)
    delayed = percentile(series["2 copies (with delay)"], 50)
    assert delayed < plain
