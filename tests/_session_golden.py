"""Golden capture for the MeasurementSession refactor.

Runs a fixed-seed request battery (Pakistan case study, both ISPs, every
Table-5 blocking mechanism) plus a small pilot study and returns the
externally observable results — ``BlockStatus``, stage lists, serving
path, and PLTs — with every float rendered via ``float.hex()`` so the
comparison is bit-exact.

``tests/data/session_refactor_golden.json`` was generated from the
pre-refactor tree (commit c0895d8, the last commit before the session
layer landed); ``tests/test_determinism_regression.py`` asserts the
refactored request path reproduces it bit-for-bit.  Regenerate only when
a change *intends* to alter measurement results:

    PYTHONPATH=src python -c "import json; from tests._session_golden \
        import capture; print(json.dumps(capture(), indent=1, sort_keys=True))" \
        > tests/data/session_refactor_golden.json
"""

from __future__ import annotations

from repro.core import CSawClient, CSawConfig
from repro.workloads.pilot import PilotConfig, PilotStudy
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN, ISP_B_ASN

#: Original PilotReport fields (pre-refactor vintage): new report fields
#: must not invalidate the golden, so the capture names these explicitly.
PILOT_FIELDS = (
    "users",
    "unique_blocked_urls",
    "unique_blocked_domains",
    "unique_ases",
    "distinct_block_types",
    "urls_dns_blocked",
    "urls_tcp_timeout",
    "urls_blockpage",
    "unique_updates",
    "cdn_domains_detected",
    "full_syncs",
    "delta_syncs",
    "sync_rows_received",
)

_URL_KEYS = (
    "small-unblocked",
    "youtube",
    "table5/dns-servfail",
    "table5/dns-refused",
    "table5/tcp-ip",
    "table5/tcp-ip+dns",
)


def _run_request(world, client, url):
    def proc():
        response = yield from client.request(url)
        yield response.measurement_process
        return response

    return world.run_process(proc())


def capture() -> dict:
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=13, with_proxy_fleet=False)
    )
    world = scenario.world

    def make(name, isp, config=None):
        return CSawClient(
            world,
            name,
            [isp],
            transports=scenario.make_transports(name),
            config=config,
        )

    client_a = make("golden-a", scenario.isps[ISP_A_ASN])
    client_b = make("golden-b", scenario.isps[ISP_B_ASN])
    probing = make(
        "golden-probe",
        scenario.isps[ISP_A_ASN],
        config=CSawConfig(probe_probability=1.0),
    )

    plan = [(client_a, scenario.spec.urls[key]) for key in _URL_KEYS]
    plan += [
        # Blocked-flow repeat: the second access rides the local fix.
        (client_a, scenario.spec.urls["youtube"]),
        (client_a, "http://no-such-site.example/"),
        # ISP-B: DNS redirect + HTTP drop multi-stage, then SNI filtering.
        (client_b, scenario.spec.urls["youtube"]),
        (client_b, "https://www.youtube.com/"),
        (client_b, scenario.spec.urls["youtube"]),
        # Probabilistic direct probe on the blocked flow (p = 1).
        (probing, scenario.spec.urls["table5/tcp-ip"]),
        (probing, scenario.spec.urls["table5/tcp-ip"]),
    ]

    requests = []
    for client, url in plan:
        response = _run_request(world, client, url)
        requests.append(
            {
                "client": client.name,
                "url": url,
                "status": response.status.value,
                "stages": [stage.value for stage in response.stages],
                "path": response.path,
                "ok": response.ok,
                "corrected": response.corrected,
                "probe_ran": response.probe_ran,
                "plt": float(response.plt).hex(),
                "effective_plt": float(response.effective_plt).hex(),
                "detection_time": (
                    float(response.detection.detection_time).hex()
                    if response.detection is not None
                    else None
                ),
            }
        )

    study = PilotStudy(
        PilotConfig(
            seed=11,
            n_users=6,
            n_sites=120,
            requests_per_user=10,
            duration_days=8.0,
            n_ases=4,
        )
    )
    report = study.run()
    return {
        "requests": requests,
        "scenario_clock": float(world.env.now).hex(),
        "pilot": {name: getattr(report, name) for name in PILOT_FIELDS},
        "pilot_clock": float(study.world.env.now).hex(),
    }
