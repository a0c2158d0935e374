"""Everything a simulation allocates is reclaimed by refcount alone.

``Environment.run`` pauses the cyclic collector for the whole event loop
on that premise (DESIGN.md §6).  One reference cycle on the request path
would keep every finished session — its trace, fetch results, responses
and detection outcome — alive until a full collection, so memory would
grow with the number of requests.

Each entry point below runs once to warm lazy imports and caches, then
again with the collector disabled; once its result is dropped,
``gc.collect()`` must find nothing.  To locate a cycle behind a failure,
set ``gc.set_debug(gc.DEBUG_SAVEALL)`` before that collection and read
the types in ``gc.garbage`` (``gc.get_referrers`` walks back from one).
"""

import gc

import pytest

from repro.core import CSawClient, CSawConfig, TraceMode
from repro.core.detection import measure_direct_path
from repro.core.fleet import run_fleet_storm
from repro.scenarios import ScenarioRunner, load_spec, shipped_packs
from repro.workloads.pilot import PilotConfig, run_pilot
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN


def cyclic_garbage(entry_point) -> int:
    """Objects left in reference cycles by one run of ``entry_point``."""
    entry_point()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        entry_point()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def test_pilot():
    def pilot():
        run_pilot(PilotConfig(seed=3, n_users=12, n_ases=3, n_sites=150,
                              duration_days=6.0, requests_per_user=12))

    assert cyclic_garbage(pilot) == 0


@pytest.mark.parametrize("pack", [name for name, _ in shipped_packs()])
def test_scenario_pack(pack):
    def run():
        ScenarioRunner(workers=1).run(load_spec(pack))

    assert cyclic_garbage(run) == 0


def test_fleet_storm():
    def storm():
        run_fleet_storm(seed=4, n_ases=3, clients_per_as=50, urls_per_as=5)

    assert cyclic_garbage(storm) == 0


def test_direct_path_detection():
    def detect_all():
        scenario = ScenarioCompiler().compile(
            pakistan_spec(seed=5, with_proxy_fleet=False)
        )
        world = scenario.world
        host, access = world.add_client("gc-detect", [scenario.isps[ISP_A_ASN]])
        for url in scenario.spec.urls.values():
            ctx = world.new_ctx(host, access, stream=f"gc/{url}")
            # No trace passed: the outcome gets its own default trace.
            world.run_process(measure_direct_path(world, ctx, url))

    assert cyclic_garbage(detect_all) == 0


# A URL each transport is the one to circumvent in the case-study world.
TRANSPORT_URLS = {
    "public-dns": "table5/dns-servfail",
    "hold-on": "table5/dns-servfail",
    "https": "youtube",
    "ip-as-hostname": "youtube",
    "domain-fronting": "youtube",
    "tor": "table5/tcp-ip",
    "lantern": "table5/tcp-ip",
}


@pytest.mark.parametrize("mode", [mode.value for mode in TraceMode])
@pytest.mark.parametrize("transport", sorted(TRANSPORT_URLS))
def test_request_per_transport(transport, mode):
    paths = []

    def request():
        scenario = ScenarioCompiler().compile(
            pakistan_spec(seed=5, with_proxy_fleet=False)
        )
        client = CSawClient(
            scenario.world,
            "gc",
            [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports("gc", include=[transport]),
            config=CSawConfig(trace_mode=mode),
        )

        def proc():
            response = yield from client.request(
                scenario.spec.urls[TRANSPORT_URLS[transport]]
            )
            yield response.measurement_process
            paths.append(response.path)

        scenario.world.run_process(proc())

    assert cyclic_garbage(request) == 0
    # Both runs were served through the transport under test.
    assert paths == [transport, transport]
