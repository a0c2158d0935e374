"""Behavioral fingerprints for the three canonical scenario specs.

The Pakistan case study, the centralized country and the §7.5 blocking
wave are declarative :class:`~repro.scenarios.spec.ScenarioSpec` objects
(``repro.scenarios.library``).  The contract is *bit-identical behavior
under the same seed*: the fingerprints below were captured from the
pre-DSL imperative builders (commit a39839e) into
``tests/data/scenario_golden.json``, and the golden tests re-compute
them by compiling (and, for the wave, running) the specs.

A fingerprint exercises the world end to end — direct-path measurements
from every ISP over every scenario URL (stage sequences *and* exact float
timings), a C-Saw client converging onto a fix with its full ``stats()``
dict, and the global-DB rows it produced — so any drift in topology,
censor rules, RNG stream wiring, or transport assembly shows up as a
diff, not just "roughly the same world".

Floats travel as ``repr`` strings so JSON round-trips keep full
precision (bit-identical means bit-identical).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "scenario_golden.json")


def _freeze(value: Any) -> Any:
    """Floats -> repr strings, recursively (exact JSON round-trip)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _freeze(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_freeze(v) for v in value]
    return value


def _probe(world, isp, stream: str, url: str) -> List[Any]:
    from repro.core.detection import measure_direct_path

    client, access = world.add_client(f"fp-{stream.replace('/', '-')}", [isp])
    ctx = world.new_ctx(client, access, stream=f"fp/{stream}")
    outcome = world.run_process(measure_direct_path(world, ctx, url))
    return [
        outcome.status.value,
        [s.value for s in outcome.stages],
        repr(outcome.detection_time),
        repr(outcome.elapsed),
        outcome.suspected_blockpage,
    ]


def _server_rows(server) -> List[Any]:
    rows = [
        [
            entry.url,
            entry.asn,
            [s.value for s in entry.stages],
            repr(entry.measured_at),
            repr(entry.first_measured_at),
        ]
        for entry in server.all_entries()
    ]
    return sorted(rows, key=lambda row: (row[0], row[1]))


def case_study_fingerprint(seed: int = 3) -> Dict[str, Any]:
    """Probes + one converging C-Saw client on the Pakistan world."""
    from repro.core import CSawClient, ServerDB
    from repro.scenarios import ScenarioCompiler, pakistan_spec
    from repro.scenarios.library import CLEAN_ASN, ISP_A_ASN, ISP_B_ASN

    compiled = ScenarioCompiler().compile(
        pakistan_spec(seed=seed, with_proxy_fleet=True)
    )
    world = compiled.world
    urls = compiled.spec.urls
    fp: Dict[str, Any] = {"probes": [], "flow": {}, "server": []}
    for isp_label, asn in (("A", ISP_A_ASN), ("B", ISP_B_ASN), ("clean", CLEAN_ASN)):
        for key in sorted(urls):
            fp["probes"].append(
                [isp_label, key]
                + _probe(world, compiled.isps[asn], f"{isp_label}/{key}", urls[key])
            )
    server = ServerDB(entry_ttl=None)
    client = CSawClient(
        world,
        "fp-user",
        [compiled.isps[ISP_B_ASN]],
        transports=compiled.make_transports(
            "fp-user", include=["public-dns", "https", "domain-fronting"]
        ),
        server_db=server,
    )
    paths: List[Any] = []

    def flow():
        yield from client.install()
        for _ in range(3):
            response = yield from client.request(urls["youtube"])
            yield response.measurement_process
            paths.append([response.path, repr(response.plt), response.status.value])

    world.run_process(flow())
    fp["flow"] = {"paths": paths, "stats": _freeze(client.stats())}
    fp["server"] = _server_rows(server)
    return fp


def centralized_fingerprint(seed: int = 9, n_isps: int = 3) -> Dict[str, Any]:
    from repro.core import CSawClient
    from repro.scenarios import ScenarioCompiler, centralized_spec

    compiled = ScenarioCompiler().compile(centralized_spec(seed=seed, n_isps=n_isps))
    world = compiled.world
    urls = compiled.spec.urls
    isps = [compiled.isps[a.asn] for a in compiled.spec.ases]
    fp: Dict[str, Any] = {"probes": [], "paths": []}
    for isp in isps:
        for key in sorted(urls):
            fp["probes"].append(
                [isp.asn, key]
                + _probe(world, isp, f"{isp.asn}/{key}", urls[key])
            )
    for isp in isps:
        client = CSawClient(
            world,
            f"fp-user-{isp.asn}",
            [isp],
            transports=compiled.make_transports(
                f"fp-user-{isp.asn}",
                include=["public-dns", "https", "tor", "lantern"],
            ),
        )

        def flow(c=client):
            last = None
            for _ in range(3):
                response = yield from c.request(urls["youtube"])
                yield response.measurement_process
                last = response
            return last

        served = world.run_process(flow())
        fp["paths"].append([isp.asn, served.path, repr(served.plt)])
    return fp


def wave_fingerprint(seed: int = 6, users_per_as: int = 3) -> Dict[str, Any]:
    """Compile the wave spec and drive its clients; observations are
    built from the global DB and ordered by detection time, the service
    named by the URL."""
    from repro.scenarios import ScenarioCompiler, symptom_for, wave_spec
    from repro.scenarios.runner import drive_clients

    compiled = ScenarioCompiler().compile(
        wave_spec(seed=seed, users_per_as=users_per_as)
    )
    drive_clients(compiled)
    entries = sorted(
        compiled.server.all_entries(), key=lambda entry: entry.first_measured_at
    )
    return {
        "observations": [
            [
                repr(entry.first_measured_at),
                entry.asn,
                "Twitter" if "twitter" in entry.url else "Instagram",
                symptom_for(entry.stages),
            ]
            for entry in entries
        ],
        "stats": [_freeze(c.stats()) for c in compiled.clients],
        "entries": compiled.server.entry_count,
    }


def all_fingerprints() -> Dict[str, Any]:
    return {
        "case_study": case_study_fingerprint(),
        "centralized": centralized_fingerprint(),
        "wave": wave_fingerprint(),
    }


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(all_fingerprints(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
