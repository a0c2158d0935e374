#!/usr/bin/env python
"""Adaptive circumvention across two differently-censoring ISPs (§2.3).

Rebuilds the paper's Pakistan case study: ISP-A blocks YouTube at the
HTTP layer (block page), ISP-B uses multi-stage blocking (DNS redirect to
a local host plus HTTP/HTTPS drops).  A C-Saw client behind each ISP
accesses YouTube repeatedly; watch each client converge onto the cheapest
circumvention that its censor cannot defeat:

- behind ISP-A: plain HTTPS (censor only filters cleartext HTTP);
- behind ISP-B: domain fronting (SNI filtering kills HTTPS; the DPI even
  drops Host:<ip> requests, so ip-as-hostname is learned to fail).

Run:  python examples/adaptive_circumvention.py
"""

from repro.core import CSawClient
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN, ISP_B_ASN


def drive(scenario, isp, label: str, accesses: int = 8) -> None:
    world = scenario.world
    client = CSawClient(
        world,
        f"adaptive-{label}",
        [isp],
        transports=scenario.make_transports(f"adaptive-{label}"),
    )
    print(f"--- client behind {label} ---")

    def session():
        for index in range(accesses):
            response = yield from client.request(scenario.spec.urls["youtube"])
            yield response.measurement_process
            stages = ",".join(s.value for s in response.stages) or "-"
            print(
                f"  access {index}: via {response.path:16s} "
                f"plt={response.plt:6.2f}s  blocking=[{stages}]"
            )
        estimate = {
            name: round(client.circumvention.estimate_plt(
                name, scenario.spec.urls["youtube"]), 2)
            for name in client.circumvention.transports
            if name != "direct"
        }
        print(f"  learned PLT estimates: {estimate}\n")

    world.run_process(session())


def main() -> None:
    scenario = ScenarioCompiler().compile(pakistan_spec(seed=7, with_proxy_fleet=False))
    drive(scenario, scenario.isps[ISP_A_ASN], "ISP-A (HTTP block page)")
    drive(scenario, scenario.isps[ISP_B_ASN], "ISP-B (DNS + HTTP/HTTPS drops)")


if __name__ == "__main__":
    main()
