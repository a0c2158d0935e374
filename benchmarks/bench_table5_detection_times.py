"""Table 5 — average blocking-detection time per mechanism (50 runs each).

paper:  TCP/IP 21 s · DNS SERVFAIL 10.6 s · DNS REFUSED 0.025 s ·
        HTTP block page 1.8 s · TCP/IP + DNS 32.7 s
"""

import pytest

from conftest import run_once
from repro.analysis import mean, render_table
from repro.core.detection import measure_direct_path
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN

RUNS = 50

PAPER_SECONDS = {
    "tcp-ip": 21.0,
    "dns-servfail": 10.6,
    "dns-refused": 0.025,
    "http-blockpage": 1.8,
    "tcp-ip+dns": 32.7,
}
TOLERANCES = {  # acceptance bands (seconds)
    "tcp-ip": (19.0, 24.0),
    "dns-servfail": (9.0, 14.0),
    "dns-refused": (0.0, 0.6),
    "http-blockpage": (0.4, 4.0),
    "tcp-ip+dns": (29.0, 38.0),
}


def run_experiment():
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=44, with_proxy_fleet=False)
    )
    world = scenario.world
    client, access = world.add_client("t5-client", [scenario.isps[ISP_A_ASN]])
    averages = {}
    for key in PAPER_SECONDS:
        times = []
        for run in range(RUNS):
            ctx = world.new_ctx(client, access, stream=f"t5/{key}")
            outcome = world.run_process(
                measure_direct_path(world, ctx, scenario.spec.urls[f"table5/{key}"])
            )
            assert outcome.blocked, (key, outcome)
            times.append(outcome.detection_time)
        averages[key] = mean(times)
    return averages


def test_table5_detection_times(benchmark, report):
    averages = run_once(benchmark, run_experiment)
    rows = [
        [key, f"{PAPER_SECONDS[key]:g}", f"{averages[key]:.3f}"]
        for key in PAPER_SECONDS
    ]
    report(render_table(
        ["blocking type", "paper avg (s)", "measured avg (s)"],
        rows,
        title=f"Table 5 — average detection time ({RUNS} runs per type)",
    ))
    for key, (low, high) in TOLERANCES.items():
        assert low <= averages[key] <= high, (key, averages[key])
    # Ordering must match the paper exactly.
    assert (
        averages["dns-refused"]
        < averages["http-blockpage"]
        < averages["dns-servfail"]
        < averages["tcp-ip"]
        < averages["tcp-ip+dns"]
    )
