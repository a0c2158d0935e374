"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

For every workload, at smoke size: records a reference through the
one-call entry point, runs the phase-split driver untraced and traced
against it (error rate 0, traced outputs equal untraced ones, layer self
times partition the root span, every metric of BENCHMARK.json present),
then plants a mismatch in the reference, which must fail every
iteration.  Also checks that the process wrapper forwards ``throw`` (an
engine interrupt) and ``close`` exactly as the bare generator sees them,
and that BENCHMARK.json names exactly the workloads and metrics the
harness reports.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run  # puts src/ on the path
import layers
import workloads as wl
from tracer import Tracer

SEED = 1
SECONDS = 0.5


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
          "BENCHMARK.json workloads differ from the harness's")
    check(sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.END_TO_END),
          "BENCHMARK.json end_to_end metrics differ from the harness's")
    check([m["name"] for m in spec["per_layer"]]
          == [name for name, _, _ in layers.PER_LAYER],
          "BENCHMARK.json per_layer metrics differ from the harness's")
    return spec


def check_process_forwarding() -> None:
    """A wrapped process sees the same interrupt, at the same sim time,
    and is closed the same way, as the bare one."""
    from repro.simnet.engine import Environment, Interrupt

    class Sleeper:
        def body(self, env, log):
            try:
                yield env.timeout(10.0)
                log.append(("woke", env.now))
            except Interrupt as interrupt:
                log.append(("interrupted", env.now, interrupt.cause))
                yield env.timeout(1.0)
            try:
                yield env.timeout(100.0)
            finally:
                log.append(("closed", env.now))
            return "done"

    def drive():
        env, log = Environment(), []
        proc = env.process(Sleeper().body(env, log))

        def interrupter():
            yield env.timeout(3.0)
            proc.interrupt("deadline")

        env.process(interrupter())
        env.run(until=20.0)
        # Driven by hand: a thrown interrupt, then close mid-wait.
        gen = Sleeper().body(env, log)
        try:
            gen.send(None)
            gen.throw(Interrupt("by hand"))
            gen.send(None)
            gen.close()
        except StopIteration as stop:
            log.append(("stopped early", stop.value))
        return log

    bare = drive()
    tracer = Tracer()
    tracer.wrap_process(Sleeper, "body", "session.request")
    try:
        traced = drive()
    finally:
        tracer.uninstall()
    check(bare == traced, f"wrapped process diverged: {bare} vs {traced}")
    check(tracer.self_seconds.get("session.request", 0.0) > 0.0,
          "wrapped process recorded no spans")


def check_workload(name: str, spec: dict) -> None:
    workload = wl.WORKLOADS[name]
    args = workload.args(SEED, smoke=True)
    expected = workload.reference(args)
    reference = {name: {str(SEED): expected}}

    plain = run.bench(name, SEED, SECONDS, 0, reference=reference,
                      smoke=True, quiet=True)
    check(plain["correct"] and plain["failed"] == 0,
          f"{name}: untraced run missed the reference: {plain}")
    for metric in spec["end_to_end"]:
        value = plain["metrics"][metric["name"]]
        check(value["unit"] == metric["unit"] and value["value"] > 0,
              f"{name}: bad end-to-end metric {metric['name']}: {value}")

    traced = run.bench(name, SEED, SECONDS, 1, reference=reference,
                       smoke=True, quiet=True)
    check(traced["correct"] and traced["failed"] == 0,
          f"{name}: traced run missed the reference or its partition")
    for metric in spec["per_layer"]:
        value = traced["metrics"][metric["name"]]
        check(value["unit"] == metric["unit"],
              f"{name}: bad per-layer metric {metric['name']}: {value}")
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    layer_sum = sum(m[n] for n, _, src in layers.PER_LAYER
                    if src.startswith("self:"))
    check(abs(layer_sum - m["trace.root_s"]) <= 1e-6 * m["trace.root_s"],
          f"{name}: layer self times {layer_sum} != root {m['trace.root_s']}")

    planted = copy.deepcopy(reference)
    entry = planted[name][str(SEED)]
    if isinstance(entry, dict):
        entry["sim"]["planted"] = 1
    else:
        entry[0][1] = not entry[0][1]
    bad = run.bench(name, SEED, SECONDS, 0, reference=planted,
                    smoke=True, quiet=True)
    check(bad["attempted"] >= 1 and bad["failed"] == bad["attempted"],
          f"{name}: a planted mismatch did not fail every iteration: {bad}")
    print(f"ok  {name}: {plain['attempted']} untraced + "
          f"{traced['attempted']} traced iterations, planted mismatch "
          f"failed {bad['failed']}/{bad['attempted']}")


def check_one_call_entry_points() -> None:
    """The references come from the one-call APIs users run."""
    from repro.cli import main as cli_main
    from repro.workloads.pilot import PilotConfig, run_pilot

    pilot = wl.WORKLOADS["pilot_table7"]
    args = pilot.args(SEED, smoke=True)
    report = run_pilot(PilotConfig(**args))
    expected = json.loads(wl.canonical(pilot.reference(args)))
    check(json.loads(wl.canonical(report.rows())) == expected["rows"]
          and json.loads(wl.canonical(report.plt_stage_seconds))
          == expected["plt_stage_seconds"],
          "pilot reference differs from run_pilot")
    packs = wl.WORKLOADS["scenario_packs"]
    verdicts = packs.reference(packs.args(0))
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            status = cli_main(["scenario", "run-all"])
        finally:
            sys.stdout = stdout
    check((status == 0) == all(ok for _, ok, _ in verdicts),
          "packs verdicts differ from scenario run-all")


def main() -> int:
    spec = check_benchmark_json()
    check_process_forwarding()
    print("ok  process wrapper forwards throw/close")
    check_one_call_entry_points()
    print("ok  references match run_pilot and scenario run-all")
    for name in wl.WORKLOADS:
        check_workload(name, spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
