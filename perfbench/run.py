"""Benchmark of record: run one workload and print its metrics.

    python3 perfbench/run.py --workload pilot_table7 --seed 3 --seconds 60 --trace 0
    python3 perfbench/run.py --all               # every workload, one table
    python3 perfbench/run.py --record-reference  # rewrite reference.json

A run repeats iterations of one workload for about ``--seconds`` host
seconds in this one process and checks every iteration's simulated
output against ``reference.json``.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json (means over the whole run, the
set-up time a median over many set-ups); with
``--trace 1`` it runs untraced iterations, then iterations with every
layer's entry points wrapped by the in-memory tracer, checks that traced
outputs equal untraced ones, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A manifest (seed,
workload arguments, git rev, Python, nproc, iterations, per-phase host
seconds) is printed above it and written with the result, and the spans
of a traced run, under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")
# The program under test is imported from the checkout's own src/.
sys.path.insert(0, SRC)

END_TO_END = ("wall_s", "setup_s", "work_per_s", "peak_rss_mb")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- manifest ------------------------------------------------------------------


def git_rev() -> Optional[str]:
    """HEAD's commit id, read from ``.git`` inside the checkout (None when
    the checkout is not a git repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over every source file under ``src/`` (path and content):
    identifies the code measured when there is no git rev."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith((".py", ".toml")):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def manifest(workload, seed, workload_seed, args, trace, seconds) -> Dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "workload_seed": workload_seed,
        "workload_args": args,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "trace": trace,
        "seconds": seconds,
    }


# -- measurement ---------------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _loop(workload, args, expected: str, seconds: float, prepare=None,
          on_begin=None, on_end=None):
    """Run iterations until the next one would pass ``seconds`` (at least
    one); returns per-iteration records with their check result.
    ``prepare`` runs before each iteration's garbage collection,
    ``on_begin``/``on_end`` right around the iteration."""
    records = []
    started = time.perf_counter()
    while True:
        if prepare is not None:
            prepare()
        gc.collect()
        if on_begin is not None:
            on_begin(len(records))
        record: Dict[str, Any] = {}
        try:
            record = wl.run_iteration(workload, args)
        except Exception as exc:  # counted as a failed iteration
            record = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            if on_end is not None:
                on_end(record)
        if "output" in record:
            record["canonical"] = wl.canonical(record.pop("output"))
            record["ok"] = record["canonical"] == expected
        else:
            record["ok"] = False
        records.append(record)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(records) > seconds:
            return records


def _phases(records) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for record in records:
        for name, value in record.get("phases", {}).items():
            out.setdefault(name, []).append(value)
    return out


def run_untraced(workload, args, expected, seconds):
    # One untimed set-up warms lazy imports and caches; the timed extra
    # set-ups are spread over the run, one batch before each iteration,
    # so their median sees the same host conditions as the iterations.
    wl.setup_only(workload, args)
    setups: List[float] = []

    def extra_setups():
        for _ in range(workload.setup_reps):
            setups.append(wl.setup_only(workload, args))

    records = _loop(workload, args, expected, seconds, prepare=extra_setups)
    timed = [r for r in records if "wall" in r]
    if not timed:
        _fail("every iteration raised: "
              + "; ".join(r.get("error", "?") for r in records))
    setups = setups + [r["phases"]["setup"] for r in timed]
    # Iteration times are whole-run means, not medians: a shared host's
    # speed flips between states every few seconds, and a median follows
    # whichever state holds a slight majority of the run, so it jumps from
    # run to run; a mean weighs each state by its share of the run.  The
    # many short set-ups keep a median, which drops the odd one that a
    # collection or a page-in stretches.
    metrics = {
        "wall_s": (statistics.fmean(r["wall"] for r in timed), "s"),
        "setup_s": (_median(setups), "s"),
        "work_per_s": (
            sum(r["work"] for r in timed)
            / sum(r["phases"]["sim"] for r in timed), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"setup_samples_s": setups}
    return records, metrics, extra


def run_traced(workload, args, expected, seconds, spans_path):
    import layers
    from tracer import ROOT_SPAN, Tracer

    plain = _loop(workload, args, expected, seconds / 3.0)
    tracer = Tracer()
    counters = layers.install(tracer)
    frames: List[Any] = []

    def begin(index):
        tracer.iteration = index
        counters.begin()
        frames.append(tracer.enter(ROOT_SPAN))

    def end(record):
        tracer.exit(frames.pop())
        counters.end()

    try:
        traced = _loop(workload, args, expected, seconds * 2.0 / 3.0,
                       on_begin=begin, on_end=end)
    finally:
        tracer.uninstall()
    # Tracing purity: a traced output equals the untraced one.
    baseline = next((r["canonical"] for r in plain if "canonical" in r), None)
    for record in traced:
        if record.get("canonical") != baseline:
            record["ok"] = False
    # Every recorded layer is reported, and the self times partition the
    # root span.
    unreported = sorted(set(tracer.names) - set(layers.SPAN_LAYERS))
    root = tracer.inclusive_seconds.get(ROOT_SPAN, 0.0)
    parts = sum(tracer.self_seconds.values())
    partition_ok = not unreported and abs(parts - root) <= 1e-6 * root
    if not partition_ok:
        for record in traced:
            record["ok"] = False
    walls = [r["wall"] for r in traced if "wall" in r]
    plain_walls = [r["wall"] for r in plain if "wall" in r]
    overhead = (_median(walls) / _median(plain_walls)
                if walls and plain_walls else 0.0)
    sim = next((r["sim"] for r in traced if "sim" in r), {})
    per_layer = layers.per_layer_metrics(tracer, len(traced), overhead, sim)
    metrics = {k: (v["value"], v["unit"]) for k, v in per_layer.items()}
    n_spans = tracer.write(spans_path)
    extra = {
        "untraced_iterations": len(plain),
        "untraced_wall_s": plain_walls,
        "span_layers": tracer.names,
        "unreported_layers": unreported,
        "layer_self_sum_s": parts,
        "root_s": root,
        "spans": n_spans,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return plain + traced, metrics, extra


# -- commands ------------------------------------------------------------------


def load_reference() -> Dict[str, Dict[str, Any]]:
    with open(REFERENCE) as fh:
        return json.load(fh)


def bench(workload_name, seed, seconds, trace, reference=None, smoke=False,
          quiet=False) -> Dict[str, Any]:
    workload = wl.WORKLOADS[workload_name]
    workload_seed = seed % wl.CATALOG_SIZE
    args = workload.args(workload_seed, smoke=smoke)
    if reference is None:
        reference = load_reference()
    expected = wl.canonical(reference[workload_name][str(workload_seed)])
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{trace}"
    workload.open()
    try:
        if trace:
            records, metrics, extra = run_traced(
                workload, args, expected, seconds,
                # One spans file per workload: the latest traced run's.
                os.path.join(RESULTS, workload_name + ".spans"))
        else:
            records, metrics, extra = run_untraced(
                workload, args, expected, seconds)
    finally:
        workload.close()
    failed = sum(1 for r in records if not r["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    info = manifest(workload, seed, workload_seed, args, trace, seconds)
    sims = [r["sim"] for r in records if "sim" in r]
    info.update(
        iterations=len(records),
        error_rate=failed / len(records),
        errors=[r["error"] for r in records if "error" in r],
        work_unit=workload.work_unit,
        work_metric=workload.work_metric,
        phases_s=_phases(records),
        wall_s=[r.get("wall") for r in records],
        sim=sims[0] if sims else {},
        **extra,
    )
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump({"manifest": info, "result": result}, fh, indent=1)
    if not quiet:
        _print_human(workload, info, result)
        print("manifest: " + json.dumps(info, sort_keys=True))
    return result


def _print_human(workload, info, result) -> None:
    print(f"{workload.name} seed={info['seed']} (workload seed "
          f"{info['workload_seed']}), trace={info['trace']}: "
          f"{result['attempted']} iterations, {result['failed']} failed, "
          f"error_rate={info['error_rate']:g}")
    for name, metric in result["metrics"].items():
        label = name
        if name == "work_per_s":
            label = f"{workload.work_metric} ({workload.work_unit})"
        print(f"  {label:<40} {metric['value']:.6g} {metric['unit']}")
    for name, value in info["sim"].items():
        print(f"  {name:<40} {value:.6g} (sim, reference-checked)")


def record_reference(names: List[str]) -> None:
    reference = load_reference() if os.path.exists(REFERENCE) else {}
    for name in names:
        workload = wl.WORKLOADS[name]
        entries = {}
        for seed in range(wl.CATALOG_SIZE):
            started = time.perf_counter()
            entries[str(seed)] = json.loads(
                wl.canonical(workload.reference(workload.args(seed))))
            print(f"{name} seed {seed}: {time.perf_counter() - started:.2f} s",
                  file=sys.stderr, flush=True)
        reference[name] = entries
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True, indent=1)
        fh.write("\n")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process (peak RSS is per workload), one
    after another; prints each end-to-end metric by name with its unit."""
    rows = []
    status = 0
    for name, workload in wl.WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        error_rate = result["failed"] / result["attempted"]
        rows.append((name, "error_rate", error_rate, "ratio"))
        for metric, value in result["metrics"].items():
            label = workload.work_metric if metric == "work_per_s" else metric
            rows.append((name, label, value["value"], value["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:<22} {metric:<32} {value:>14.6g} {unit}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--record-reference", action="store_true",
                        help="recompute reference.json through the one-call "
                             "entry points (all workloads, or --workload)")
    opts = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"no program to measure: {SRC}/repro is missing")
    if opts.all:
        return run_all(opts.seed, int(opts.seconds), opts.trace)
    if opts.record_reference:
        record_reference([opts.workload] if opts.workload else list(wl.WORKLOADS))
        return 0
    if opts.workload not in wl.WORKLOADS:
        _fail(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    result = bench(opts.workload, opts.seed, opts.seconds, opts.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
