"""The benchmark's workloads: their arguments, drivers and checked outputs.

Each workload is a closed batch simulation at a stated size, driven from
one process (no worker pools, no sharded storms).  A driver splits one
iteration into three timed phases — ``setup`` (build the world before
sim time starts), ``sim`` (the simulation) and ``report`` (turn the run
into its result) — by calling the same public entry points as the
user-facing one-call API, and returns:

- ``output``: the client-visible simulated result, compared against the
  committed reference on every iteration;
- ``work``: the workload's unit of work (requests, packs), reported per
  host second of the sim phase;
- ``sim``: the paper's modelled cost/coverage quantities, which repeat
  exactly for a seed (they are part of ``output``, so the reference
  check pins them).

``reference(args)`` computes the same output through the one-call entry
point (``run_pilot``, the ``scenario run-all`` loop), which is how the
committed reference was recorded: an iteration that matches it proves
the phase-split driver measures what users call.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter
from typing import Any, Dict, List, Tuple

from tracer import Tracer

#: ``--seed n`` selects workload seed ``n % CATALOG_SIZE``; the committed
#: reference holds one output per workload seed.
CATALOG_SIZE = 16


def canonical(output: Any) -> str:
    """The exact text an output is compared by (floats keep every digit;
    NaN compares equal to NaN)."""
    return json.dumps(output, sort_keys=True, separators=(",", ":"))


class Workload:
    name = ""
    why = ""
    #: what ``work`` counts, and the name its rate goes by for this workload.
    work_unit = ""
    work_metric = ""
    #: extra timed set-ups before each iteration (more ``setup_s`` samples).
    setup_reps = 1

    def args(self, seed: int, smoke: bool = False) -> Dict[str, Any]:
        raise NotImplementedError

    def open(self) -> None:
        """Called once before a run's first iteration."""

    def close(self) -> None:
        """Called once after a run's last iteration."""

    def setup(self, args: Dict[str, Any], phases: Dict[str, float]):
        raise NotImplementedError

    def simulate(self, state, phases: Dict[str, float]):
        raise NotImplementedError

    def report(self, state, raw) -> Tuple[Any, float, Dict[str, float]]:
        raise NotImplementedError

    def reference(self, args: Dict[str, Any]) -> Any:
        raise NotImplementedError


# -- the Table-7 pilot ---------------------------------------------------------


class PilotWorkload(Workload):
    name = "pilot_table7"
    why = ("Table-7 pilot at paper size: the request path, per-client sync "
           "and corpus sampling, 90 simulated days")
    work_unit = "requests"
    work_metric = "requests_per_s"
    setup_reps = 4

    def args(self, seed, smoke=False):
        # The PilotConfig defaults are the paper's deployment size.
        if smoke:
            return dict(seed=seed, n_users=12, n_ases=3, n_sites=150,
                        duration_days=6.0, requests_per_user=12)
        return dict(seed=seed)

    def setup(self, args, phases):
        from repro.workloads.pilot import PilotConfig, PilotStudy

        return PilotStudy(PilotConfig(**args)).build()

    def simulate(self, study, phases):
        return study.run()

    def report(self, study, report):
        stats = [client.stats() for client in study.clients]
        sessions = sum(s["sessions_completed"] for s in stats)
        plt_total = sum(sum(s["plt_breakdown"].values()) for s in stats)
        sim = {
            "plt_per_session_sim_s": plt_total / sessions if sessions else 0.0,
            "sync_bytes_per_client": (
                sum(s["sync_bytes_received"] for s in stats) / len(stats)
            ),
        }
        work = sum(s["requests"] for s in stats)
        return self._output(report, sim), work, sim

    @staticmethod
    def _output(report, sim) -> Dict[str, Any]:
        return {
            "rows": report.rows(),
            "plt_stage_seconds": report.plt_stage_seconds,
            "sim": sim,
        }

    def reference(self, args):
        from repro.workloads.pilot import PilotConfig, PilotStudy

        # run_pilot(config) is PilotStudy(config).run(); the study object
        # is kept only to read the per-client stats the sim metrics use.
        study = PilotStudy(PilotConfig(**args))
        report = study.run()
        return self.report(study, report)[0]


# -- the shipped scenario packs ------------------------------------------------


class PacksWorkload(Workload):
    name = "scenario_packs"
    why = ("all five shipped packs through load_spec, compile, run and "
           "evaluate: the spec, compiler and expect code, and the fleet and "
           "plane layers")
    work_unit = "packs"
    work_metric = "packs_per_s"
    setup_reps = 0

    def open(self):
        from repro.scenarios.compiler import ScenarioCompiler

        # Compilation happens inside ScenarioRunner.run but belongs to
        # set-up: a span clock on the compiler entry points times it.
        self.clock = Tracer()
        for attr in ("compile", "compile_planes"):
            self.clock.wrap(ScenarioCompiler, attr, "compile")

    def close(self):
        self.clock.uninstall()

    def _compile_seconds(self) -> float:
        return self.clock.self_seconds.get("compile", 0.0)

    def args(self, seed, smoke=False):
        from repro.scenarios import shipped_packs

        # Workload seed s re-rolls every pack to its shipped seed plus s;
        # s = 0 is exactly what ``scenario run-all`` runs.
        return dict(seed_offset=seed,
                    packs=[name for name, _ in shipped_packs()])

    @staticmethod
    def _specs(args):
        from repro.scenarios import load_spec

        specs = []
        for name in args["packs"]:
            spec = load_spec(name)
            if args["seed_offset"]:
                spec = spec.with_seed(spec.seed + args["seed_offset"])
            specs.append((name, spec))
        return specs

    def setup(self, args, phases):
        return self._specs(args)

    def simulate(self, specs, phases):
        from repro.scenarios import ScenarioRunner

        runner = ScenarioRunner(workers=1)
        before = self._compile_seconds()
        outcomes = [(name, runner.run(spec)) for name, spec in specs]
        phases["compile"] = self._compile_seconds() - before
        return outcomes

    def report(self, specs, outcomes):
        output = self._output(outcomes)
        return output, len(output), {}

    @staticmethod
    def _output(outcomes) -> List[Any]:
        # What run-all checks: a pack passes when its report is ok and
        # its expectation diff is empty.
        return [
            [name, bool(o.report.ok and not o.report.diff()), o.report.diff()]
            for name, o in outcomes
        ]

    def reference(self, args):
        from repro.scenarios import ScenarioRunner

        runner = ScenarioRunner()
        return self._output(
            [(name, runner.run(spec)) for name, spec in self._specs(args)]
        )


#: No fleet storm runs on its own: on a shared 2-vCPU host the 1M-client
#: storm's per-run median swung between 1.3 and 2.2 s with the host's
#: speed, for minutes at a time, too wide for any regression bound.  The
#: packs run the fleet, plane and voting layers at pack size.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        PilotWorkload(),
        PacksWorkload(),
    )
}


def run_iteration(workload: Workload, args: Dict[str, Any]) -> Dict[str, Any]:
    """One timed iteration: set-up, simulation, report."""
    phases: Dict[str, float] = {}
    t0 = perf_counter()
    state = workload.setup(args, phases)
    t1 = perf_counter()
    raw = workload.simulate(state, phases)
    t2 = perf_counter()
    output, work, sim = workload.report(state, raw)
    t3 = perf_counter()
    compile_s = phases.pop("compile", 0.0)
    phases.update(
        setup=t1 - t0 + compile_s,
        sim=t2 - t1 - compile_s,
        report=t3 - t2,
    )
    return {
        "wall": t3 - t0,
        "phases": phases,
        "output": output,
        "work": work,
        "sim": sim,
    }


def setup_only(workload: Workload, args: Dict[str, Any]) -> float:
    """Host seconds of one set-up whose world is then dropped."""
    gc.collect()
    started = perf_counter()
    workload.setup(args, {})
    return perf_counter() - started
