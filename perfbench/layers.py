"""Which public entry points make up each layer, and the per-layer metrics.

``install`` wraps the entry points of every layer on a :class:`Tracer`;
``per_layer_metrics`` turns one traced run's spans and counters into the
``per_layer`` metrics named in ``BENCHMARK.json``, each a per-iteration
mean so that the layer self times of an iteration sum to its root span.

Layer names follow the package's modules: ``fleet`` (ClientCohort),
``planes``, ``globaldb`` (ServerDB), ``voting``, ``reporting``,
``simnet`` (the event engine), ``session``, ``circumvent``, ``censor``,
``localdb``, ``workloads`` (the site corpus), ``urlkit`` and
``scenarios``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import ROOT_SPAN, Tracer

# Per-layer metrics: (name, unit, how the value is derived).  "self:L" is
# the self time of span layer L, "incl:L" its inclusive time, "count:C" a
# counter, "ratio:A/B" a counter ratio; the rest are set by the harness.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("fleet.construct_s", "s", "self:fleet.construct"),
    ("fleet.wave_s", "s", "self:fleet.wave"),
    ("fleet.reporters", "count", "count:fleet.reporters"),
    ("fleet.sweep_s", "s", "self:fleet.sweep"),
    ("fleet.sweeps", "count", "count:fleet.sweeps"),
    ("fleet.pulls_served", "count", "count:fleet.pulls_served"),
    ("fleet.batches_built", "count", "count:fleet.batches_built"),
    ("fleet.finalize_s", "s", "self:fleet.finalize"),
    ("planes.draw_s", "s", "self:planes.draw"),
    ("planes.items_drawn", "count", "count:planes.items_drawn"),
    ("globaldb.register_s", "s", "self:globaldb.register"),
    ("globaldb.registrations", "count", "count:globaldb.registrations"),
    ("globaldb.post_update_s", "s", "self:globaldb.post_update"),
    ("globaldb.post_update_calls", "count", "count:globaldb.post_update_calls"),
    ("globaldb.items_posted", "count", "count:globaldb.items_posted"),
    ("globaldb.items_accepted", "count", "count:globaldb.items_accepted"),
    ("globaldb.accept_ratio", "ratio",
     "ratio:globaldb.items_accepted/globaldb.items_posted"),
    ("globaldb.sync_batch_s", "s", "self:globaldb.sync_batch"),
    ("globaldb.sync_batch_calls", "count", "count:globaldb.sync_batch_calls"),
    ("globaldb.rows_served", "count", "count:globaldb.rows_served"),
    ("globaldb.full_syncs", "count", "count:globaldb.full_syncs"),
    ("globaldb.delta_syncs", "count", "count:globaldb.delta_syncs"),
    ("voting.reports_s", "s", "self:voting.reports"),
    ("voting.stats_s", "s", "self:voting.stats"),
    ("voting.stats_calls", "count", "count:voting.stats_calls"),
    ("reporting.apply_batch_s", "s", "self:reporting.apply_batch"),
    ("reporting.rows_applied", "count", "count:reporting.rows_applied"),
    ("reporting.pull_s", "s", "self:reporting.pull"),
    ("reporting.post_s", "s", "self:reporting.post"),
    ("simnet.run_s", "s", "incl:simnet.run"),
    ("simnet.self_s", "s", "self:simnet.run"),
    ("simnet.events", "count", "count:simnet.events"),
    ("session.request_s", "s", "self:session.request"),
    ("session.requests", "count", "count:session.requests"),
    ("session.completed", "count", "count:session.completed"),
    ("circumvent.fetch_s", "s", "self:circumvent.fetch"),
    ("circumvent.fetches", "count", "count:circumvent.fetches"),
    ("circumvent.fetch_ok_ratio", "ratio",
     "ratio:circumvent.fetch_ok/circumvent.fetches"),
    ("censor.verdict_s", "s", "self:censor.verdict"),
    ("censor.lookups", "count", "count:censor.lookups"),
    ("censor.block_ratio", "ratio", "ratio:censor.blocked/censor.lookups"),
    ("localdb.s", "s", "self:localdb"),
    ("localdb.ops", "count", "count:localdb.ops"),
    ("workloads.sample_s", "s", "self:workloads.sample"),
    ("workloads.samples", "count", "count:workloads.samples"),
    ("urlkit.normalize_hit_ratio", "ratio",
     "ratio:urlkit.normalize_hits/urlkit.normalize_calls"),
    ("urlkit.parse_hit_ratio", "ratio",
     "ratio:urlkit.parse_hits/urlkit.parse_calls"),
    ("scenarios.parse_s", "s", "self:scenarios.parse"),
    ("scenarios.compile_s", "s", "self:scenarios.compile"),
    ("scenarios.run_s", "s", "self:scenarios.run"),
    ("scenarios.expect_s", "s", "self:scenarios.expect"),
    # The paper's modelled quantities (sim, not host; exact per seed and
    # pinned by the reference check).
    ("sim.sync_bytes_per_client", "B", "sim:sync_bytes_per_client"),
    ("sim.plt_per_session_s", "sim_s", "sim:plt_per_session_sim_s"),
    ("trace.root_s", "s", "incl:" + ROOT_SPAN),
    ("trace.unattributed_s", "s", "self:" + ROOT_SPAN),
    ("trace.spans", "count", "spans"),
    ("trace.overhead", "ratio", "overhead"),
]

#: Span layers whose self times partition the root span.
SPAN_LAYERS = sorted({
    source.split(":", 1)[1]
    for _, _, source in PER_LAYER
    if source.startswith("self:")
})


class IterationCounters:
    """Counters read from public state once per traced iteration: the
    servers' full/delta serve counters and the URL caches' hit counts."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.urlkit import normalize_url, parse_url

        self.tracer = tracer
        self.servers: List = []
        self._caches = (("normalize", normalize_url), ("parse", parse_url))
        self._before: Dict[str, Tuple[int, int]] = {}

    def begin(self) -> None:
        self.servers.clear()
        for name, fn in self._caches:
            info = fn.cache_info()
            self._before[name] = (info.hits, info.misses)

    def end(self) -> None:
        count = self.tracer.count
        for server in self.servers:
            count("globaldb.full_syncs", server.full_syncs_served)
            count("globaldb.delta_syncs", server.delta_syncs_served)
        self.servers.clear()
        for name, fn in self._caches:
            info = fn.cache_info()
            hits0, misses0 = self._before[name]
            hits = info.hits - hits0
            count(f"urlkit.{name}_hits", hits)
            count(f"urlkit.{name}_calls", hits + info.misses - misses0)


def install(tracer: Tracer) -> IterationCounters:
    """Wrap every layer's public entry points on ``tracer``; returns the
    per-iteration counters the harness brackets each iteration with."""
    from repro.censor.compiled import CompiledPolicy
    from repro.circumvent.base import Transport
    from repro.core.fleet import ClientCohort
    from repro.core.globaldb import ServerDB
    from repro.core.localdb import LocalDatabase
    from repro.core.measurement import MeasurementModule
    from repro.core.reporting import GlobalView, ReportingService
    from repro.core.session import MeasurementSession
    from repro.core.voting import VotingLedger
    from repro.planes import (
        CSawBrowserPlane,
        EncoreProbePlane,
        GeneratedProbeListPlane,
        MeasurementPlane,
    )
    from repro.scenarios import compiler as scenario_compiler
    from repro.scenarios import runner as scenario_runner
    from repro.scenarios.spec import ScenarioSpec
    from repro.simnet.engine import Environment
    from repro.workloads.corpus import Corpus

    count = tracer.count
    per_iteration = IterationCounters(tracer)

    def counter(name):
        return lambda args, kwargs: count(name)

    # fleet: cohort construction, the wave, the per-tick sweep.
    tracer.wrap(ClientCohort, "__init__", "fleet.construct")
    tracer.wrap(ClientCohort, "start_wave", "fleet.wave")
    tracer.wrap(ClientCohort, "service", "fleet.sweep",
                on_call=counter("fleet.sweeps"))

    def fleet_counts(args, metrics):
        count("fleet.reporters", metrics.n_reporters)
        count("fleet.pulls_served", metrics.pulls_served)
        count("fleet.batches_built", metrics.batches_built)

    tracer.wrap(ClientCohort, "finalize", "fleet.finalize",
                on_result=fleet_counts)

    # planes: each plane's draws (delays, shared items, per-reporter items).
    def items_drawn(args, items):
        count("planes.items_drawn", len(items))

    for cls in (MeasurementPlane, CSawBrowserPlane, EncoreProbePlane,
                GeneratedProbeListPlane):
        for attr in ("detection_delays", "wave_items", "reporter_items"):
            raw = cls.__dict__.get(attr)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            tracer.wrap(
                cls, attr, "planes.draw",
                on_result=None if attr == "detection_delays" else items_drawn,
            )

    # globaldb: registration, absorption, columnar sync.
    tracer.wrap(ServerDB, "__init__", None,
                on_call=lambda args, kwargs: per_iteration.servers.append(
                    args[0]))
    tracer.wrap(ServerDB, "register", "globaldb.register",
                on_call=counter("globaldb.registrations"))

    def posted(args, kwargs):
        reports = args[2] if len(args) > 2 else kwargs["reports"]
        count("globaldb.post_update_calls")
        count("globaldb.items_posted", len(reports))

    tracer.wrap(ServerDB, "post_update", "globaldb.post_update",
                on_call=posted,
                on_result=lambda args, n: count("globaldb.items_accepted", n))
    tracer.wrap(
        ServerDB, "sync_batch_for_as", "globaldb.sync_batch",
        on_call=counter("globaldb.sync_batch_calls"),
        on_result=lambda args, batch: count(
            "globaldb.rows_served", batch.transferred),
    )

    # voting: vouch-set updates and the incremental s/n reads.
    for attr in ("add_client_reports", "set_client_reports"):
        tracer.wrap(VotingLedger, attr, "voting.reports")
    for attr in ("stats", "plane_stats", "weighted_stats"):
        tracer.wrap(VotingLedger, attr, "voting.stats",
                    on_call=counter("voting.stats_calls"))

    # reporting: the client side of sync and upload.
    tracer.wrap(
        GlobalView, "apply_batch", "reporting.apply_batch",
        on_result=lambda args, _: count(
            "reporting.rows_applied", args[1].transferred),
    )
    tracer.wrap_process(ReportingService, "download_blocked_list",
                        "reporting.pull")
    tracer.wrap_process(ReportingService, "post_reports", "reporting.post")

    # simnet: the event loop (inclusive time and events issued).  The
    # engine has no public event counter; its event-id sequence is one.
    eids: List[int] = []
    tracer.wrap(
        Environment, "run", "simnet.run",
        on_call=lambda args, kwargs: eids.append(getattr(args[0], "_eid", 0)),
        on_result=lambda args, _: count(
            "simnet.events", getattr(args[0], "_eid", 0) - eids.pop()),
    )

    # session: the request entry point and the session process it spawns.
    tracer.wrap_process(MeasurementModule, "handle_request",
                        "session.request",
                        on_call=counter("session.requests"))
    tracer.wrap_process(MeasurementSession, "run", "session.request",
                        on_return=lambda _: count("session.completed"))

    # circumvent: every transport attempt.
    def fetched(result):
        if result.ok:
            count("circumvent.fetch_ok")

    tracer.wrap_process(Transport, "traced_fetch", "circumvent.fetch",
                        on_call=counter("circumvent.fetches"),
                        on_return=fetched)

    # censor: per-stage compiled verdicts.
    def verdict(args, result):
        count("censor.lookups")
        if result.action.name != "PASS":
            count("censor.blocked")

    for attr in ("on_dns_query", "on_packet", "on_http_request",
                 "on_tls_client_hello"):
        tracer.wrap(CompiledPolicy, attr, "censor.verdict", on_result=verdict)

    # localdb and the site corpus.
    for attr in ("lookup", "record_measurement"):
        tracer.wrap(LocalDatabase, attr, "localdb",
                    on_call=counter("localdb.ops"))
    tracer.wrap(Corpus, "sample_site", "workloads.sample",
                on_call=counter("workloads.samples"))

    # scenarios: parse, compile, run, expectation check.
    tracer.wrap(ScenarioSpec, "from_toml", "scenarios.parse")
    tracer.wrap(scenario_compiler.ScenarioCompiler, "compile",
                "scenarios.compile")
    tracer.wrap(scenario_compiler.ScenarioCompiler, "compile_planes",
                "scenarios.compile")
    tracer.wrap(scenario_runner.ScenarioRunner, "run", "scenarios.run")
    tracer.wrap(scenario_runner, "evaluate", "scenarios.expect")
    return per_iteration


def per_layer_metrics(
    tracer: Tracer, iterations: int, overhead: float, sim: Dict[str, float]
) -> Dict[str, Dict[str, float]]:
    """Every ``PER_LAYER`` metric as a per-iteration mean (0 where the
    workload never reaches the layer)."""
    counts = tracer.counts
    out: Dict[str, Dict[str, float]] = {}
    for name, unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "self":
            value = tracer.self_seconds.get(key, 0.0) / iterations
        elif kind == "incl":
            value = tracer.inclusive_seconds.get(key, 0.0) / iterations
        elif kind == "count":
            value = counts.get(key, 0) / iterations
        elif kind == "ratio":
            num, den = key.split("/")
            value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif kind == "sim":
            value = sim.get(key, 0.0)
        elif kind == "spans":
            value = len(tracer.span_id) / iterations
        else:
            value = overhead
        out[name] = {"value": value, "unit": unit}
    return out
