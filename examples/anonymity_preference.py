#!/usr/bin/env python
"""Performance vs anonymity: the user-preference knob (§4.4).

Two users behind the same HTTP-blocking ISP access the same blocked site.
The performance-preferring user converges onto the HTTPS local fix
(fast, but the censor can see *who* is connecting where at the IP layer).
The anonymity-preferring user refuses local fixes entirely and rides Tor
— slower, but the censor cannot attribute the content to them.

Run:  python examples/anonymity_preference.py
"""

from repro.core import CSawClient, CSawConfig
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN


def drive(scenario, client, label: str, accesses: int = 6) -> None:
    world = scenario.world
    print(f"--- {label} ---")

    def session():
        for index in range(accesses):
            response = yield from client.request(scenario.spec.urls["youtube"])
            yield response.measurement_process
            anonymous = (
                "anonymous" if response.path == "tor" else "attributable"
            )
            print(
                f"  access {index}: via {response.path:10s} "
                f"plt={response.plt:6.2f}s  ({anonymous})"
            )
        print()

    world.run_process(session())


def main() -> None:
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=17, with_proxy_fleet=False)
    )

    performance_user = CSawClient(
        scenario.world,
        "perf-user",
        [scenario.isps[ISP_A_ASN]],
        transports=scenario.make_transports("perf-user"),
        config=CSawConfig(prefer_anonymity=False),
    )
    anonymity_user = CSawClient(
        scenario.world,
        "anon-user",
        [scenario.isps[ISP_A_ASN]],
        transports=scenario.make_transports("anon-user"),
        config=CSawConfig(prefer_anonymity=True),
    )

    drive(scenario, performance_user, "performance preference (default)")
    drive(scenario, anonymity_user, "anonymity preference")

    print(
        "The paper's §4.4: \"If a user prefers performance over anonymity, "
        "the C-Saw proxy always picks local-fixes (whenever available). If "
        "a user prefers anonymity over performance, C-Saw always chooses "
        "an anonymous circumvention approach (e.g., Tor).\""
    )


if __name__ == "__main__":
    main()
