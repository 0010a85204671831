"""End-to-end benchmark of the RENO reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 15 --trace 0

Runs one workload of ``perfbench/workloads.py`` from a single client
process, checks every report it receives against the committed
expectations (``perfbench/check.py``), prints every metric by name with
its unit, and ends with one JSON line::

    {"correct": true, "attempted": 25, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from passes run with the
tracing wrappers of ``perfbench/layers.py`` installed, beside untraced
passes of the same run (the difference is the tracing overhead).  Each
per-layer line names the end-to-end metrics it is expected to move
(``perfbench/layer_map.json``).

A run makes ``round(seconds / nominal pass time)`` passes (at least 3),
so every run of a workload sends the same number of requests and its
latency percentiles are always taken over the same sample count.

Times are reported in *reference-host seconds*: the host shares its
cores with other machines and its speed drifts by a third within
minutes, so the computing share of each request's host seconds is scaled
by a calibration loop timed around it (``workloads.Calibrated``).  The
raw median pass time is printed beside ``pass_s``.

Everything the run writes lives in ``.perfbench/`` under the checkout
and is removed at exit.  Exit codes: 0 measured (see ``correct``),
1 set-up failed, 2 bad arguments or no program to measure, 3 the
compiled backend a workload needs is unavailable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

if __package__ in (None, ""):        # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import layers
from perfbench.workloads import WORKLOADS, host_factor, loop_times, tail

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
LAYER_MAP = Path(__file__).with_name("layer_map.json")
WORK_ROOT = ROOT / ".perfbench"
PROBE = Path(__file__).with_name("setup_probe.py")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


class BenchError(Exception):
    """A run that cannot produce a result (reported, exit code 1)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {section: {metric["name"]: metric["unit"] for metric in spec[section]}
            for section in ("end_to_end", "per_layer")}


def measure_setup(kind: str, work: Path) -> list[float]:
    """Reference-host seconds from process start to ``READY`` for fresh
    set-up probes, calibrated before each probe and after the last."""
    times, loops = [], loop_times()
    for index in range(SETUP_REPEATS):
        env = dict(os.environ)
        env["REPRO_KERNEL_CACHE"] = str(work / f"probe-kernels-{index}")
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(PROBE), kind, str(work)],
            stdout=subprocess.PIPE, text=True, env=env)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            line = process.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            process.stdout.read()
            code = process.wait()
        finally:
            watchdog.cancel()
        if line != "READY" or code != 0:
            raise BenchError(f"set-up probe {kind!r} failed (exit {code})")
        times.append(elapsed)
        loops += loop_times()
    factor = host_factor(loops)
    return [elapsed * factor for elapsed in times]


def layer_map() -> dict[str, dict[str, list[str]]]:
    """``{per-layer metric: {e2e metric: [workloads it moves it on]}}``."""
    return json.loads(LAYER_MAP.read_text())["per_layer"]


def run_passes(workload, count: int, recorder=None) -> tuple[list, list[str]]:
    """``count`` checked passes; the recorder pauses while reports are checked."""
    results, problems = [], []
    for _ in range(count):
        result = workload.run_pass()
        if recorder is not None:
            recorder.enabled = False
        problems += workload.check(result)
        if recorder is not None:
            recorder.enabled = True
        results.append(result)
    return results, problems


def _median(values) -> float:
    """The median, or NaN when every request of that kind failed."""
    return statistics.median(values) if values else float("nan")


def latencies(results, kind: str | None = None) -> list[float]:
    """Calibrated latencies of the requests that succeeded (of one kind)."""
    return [s.latency_s for r in results for s in r.samples
            if s.error is None and (kind is None or s.kind == kind)]


def e2e_metrics(results, setup_times, memory_mb) -> tuple[dict, dict]:
    """The end-to-end metrics and a note on each."""
    every = latencies(results)
    misses = latencies(results, "miss")
    walls = [r.wall_s for r in results]
    kips = [r.committed / r.wall_s / 1000.0 for r in results]
    percentile, tail_s = tail(every) if every else (50.0, float("nan"))
    metrics = {
        "pass_s": statistics.median(walls),
        "request_p50_s": _median(every),
        "request_tail_s": tail_s,
        "miss_p50_s": _median(misses),
        "sim_kips": statistics.median(kips),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": memory_mb,
    }
    notes = {
        "pass_s": (f"median of {len(walls)} passes; raw "
                   f"{statistics.median(r.raw_wall_s for r in results):.3f} s"),
        "request_p50_s": f"n={len(every)}",
        "request_tail_s": f"p{percentile:.0f}, n={len(every)}",
        "miss_p50_s": f"n={len(misses)}",
        "sim_kips": "committed instructions of computed cells per second",
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "peak_rss_mb": "benchmark process (+ fleet workers)",
    }
    return metrics, notes


def layer_metrics(recorder, traced, untraced, load_s, fleet_delta) -> dict:
    """The per-layer metrics: per traced pass, self times unless noted.

    Span times are host seconds; they are converted to reference-host
    seconds with the traced passes' mean calibration factor.
    """
    passes = len(traced)
    factor = sum(r.wall_s for r in traced) / sum(r.raw_wall_s for r in traced)
    self_s = {layer: value * factor for layer, value in recorder.self_s.items()}
    counts = recorder.counts

    def seconds(layer):
        return self_s.get(layer, 0.0) / passes

    def count(name):
        return counts.get(name, 0) / passes

    traced_pass = statistics.fmean(r.wall_s for r in traced)
    gets = counts.get("store.gets", 0)
    hits = latencies(untraced, "hit")
    metrics = {
        "functional.run_s": seconds("functional.run"),
        "functional.runs": count("functional.runs"),
        "workloads.build_s": seconds("workloads.build"),
        "core.simulate_self_s": seconds("core.simulate"),
        "uarch.pipeline_init_s": seconds("uarch.pipeline_init"),
        "uarch.run_s": seconds("uarch.run"),
        "uarch.committed": count("uarch.committed"),
        "uarch.backend.refused": count("uarch.backend.refused"),
        "uarch.backend.replayed": (count("uarch.compiled.slices")
                                   - count("uarch.compiled.marshalled_out")),
        "uarch.compiled.load_s": load_s,
        "uarch.compiled.flatten_s": seconds("uarch.compiled.flatten"),
        "uarch.compiled.marshal_in_s": seconds("uarch.compiled.marshal_in"),
        "uarch.compiled.marshal_out_s": seconds("uarch.compiled.marshal_out"),
        "uarch.compiled.kernel_s": seconds("uarch.compiled.kernel"),
        "uarch.compiled.slices": count("uarch.compiled.slices"),
        "analysis.critpath_s": seconds("analysis.critpath"),
        "harness.reduce_s": seconds("harness.reduce"),
        "harness.digest_s": seconds("harness.digest"),
        "harness.executors.costmodel_s": seconds("harness.executors.costmodel"),
        "harness.executors.pool_s": seconds("harness.executors.pool"),
        "harness.executors.pools": count("harness.executors.pools"),
        "store.get_s": seconds("store.get"),
        "store.gets": count("store.gets"),
        "store.hit_ratio": counts.get("store.hits", 0) / gets if gets else 0.0,
        "store.put_s": seconds("store.put"),
        "store.puts": count("store.puts"),
        "store.claim_s": seconds("store.claim"),
        "store.claims": count("store.claims"),
        "store.claim_conflicts": count("store.claim_conflicts"),
        "store.meta_s": seconds("store.meta"),
        "api.service.serialise_s": seconds("api.service.serialise"),
        "api.session.coalesced": count("api.session.coalesced"),
        "api.fleet.leases": fleet_delta.get("leases_granted", 0) / passes,
        "api.fleet.retries": fleet_delta.get("retries", 0) / passes,
        "api.fleet.late_results": fleet_delta.get("late_results", 0) / passes,
        "api.fleet.commit_wait_s": seconds("api.fleet.commit_wait"),
        "unattributed_s": traced_pass - sum(self_s.values()) / passes,
        "traced_pass_s": traced_pass,
        "untraced_pass_s": statistics.median(r.wall_s for r in untraced),
        "hit_p50_ms": statistics.median(hits) * 1000.0 if hits else 0.0,
    }
    return metrics


def emit(metrics: dict, units: dict, notes: dict, attempted: int,
         failed: int, correct: bool, workload: str) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise BenchError(f"metrics out of step with BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload} {name} = {metrics[name]:.6g} {units[name]}{note}")
    print(f"{workload} fail_ratio = {failed / attempted:.6g}  "
          f"({failed} of {attempted} requests failed or were wrong)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def run(args, work: Path) -> int:
    cls = WORKLOADS[args.workload]
    declared = declared_metrics()
    setup_times = measure_setup(cls.setup_kind, work)

    recorder = layers.Recorder()
    tracing = layers.Tracing(recorder)
    # The traced run compiles the kernel afresh, so uarch.compiled.load_s
    # shows the compile; the untraced run reuses a probe's kernel.
    kernels = "kernels" if args.trace else "probe-kernels-0"
    os.environ["REPRO_KERNEL_CACHE"] = str(work / kernels)
    import repro.api  # noqa: F401
    from repro.uarch.backend import resolve_backend
    from repro.uarch.compiled import build

    if args.trace:
        tracing.install()
    build.load_kernel()
    backend = resolve_backend("compiled").name
    print(f"{cls.name} seed={args.seed} backend={backend} "
          f"(requested compiled)")
    if backend != "compiled" and cls.needs_compiled:
        tracing.uninstall()
        print(f"{cls.name}: the compiled backend is unavailable here (no C "
              f"compiler, a failed build, or REPRO_NO_CC set); its timings "
              f"would be the python loop's, so none are reported.")
        return 3
    workload = cls(args.seed, work)
    try:
        workload.start()
        load_s = (recorder.self_s.get("uarch.compiled.load", 0.0)
                  * host_factor(loop_times()))
        tracing.uninstall()
        recorder.reset()
        workload.warm()
        passes = max(3, round(args.seconds / cls.nominal_pass_s))
        if not args.trace:
            results, problems = run_passes(workload, passes)
            measured = results
            metrics, notes = e2e_metrics(results, setup_times,
                                         workload.memory_mb())
            units = declared["end_to_end"]
        else:
            half = max(2, round(passes / 2))
            untraced, problems = run_passes(workload, half)
            before = workload.counters()
            with tracing:
                traced, traced_problems = run_passes(workload, half, recorder)
            delta = {name: value - before.get(name, 0)
                     for name, value in workload.counters().items()}
            problems += traced_problems
            measured = untraced + traced
            metrics = layer_metrics(recorder, traced, untraced, load_s, delta)
            units = declared["per_layer"]
            notes = {name: "moves " + ", ".join(
                         f"{e2e} on {'/'.join(names)}" for e2e, names in moves.items())
                     for name, moves in layer_map().items()}
            overhead = metrics["traced_pass_s"] / metrics["untraced_pass_s"] - 1
            notes["traced_pass_s"] = (f"tracing overhead {overhead:+.1%} over "
                                      f"untraced pass_s; " + notes["traced_pass_s"])
            for hook in tracing.missing:
                print(f"{cls.name}: hook target {hook} not found; its layer reads 0")
    finally:
        workload.close()
    if hasattr(workload, "kind_counts"):
        print(f"{cls.name} seed={args.seed} per-pass request kinds "
              f"{workload.kind_counts} (stream predicts {workload.expected_kinds})")
    for problem in problems[:10]:
        print(f"{cls.name} CHECK FAILED: {problem}")
    samples = [s for r in measured for s in r.samples]
    failed = sum(1 for s in samples if s.error is not None)
    emit(metrics, units, notes, len(samples), failed, not problems, cls.name)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    (work / "tmp").mkdir()
    # Everything the program and its child processes write stays here.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    for name in ("REPRO_CACHE_DIR", "REPRO_STORE", "REPRO_JOBS", "REPRO_FLEET",
                 "REPRO_BACKEND"):
        os.environ.pop(name, None)
    try:
        return run(args, work)
    except BenchError as error:
        print(f"{args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()             # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
