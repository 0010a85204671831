"""Self-tests of the benchmark (run with the repo's pytest suite).

They cover what the benchmark's numbers rest on: the tracing wrappers
leave the program exactly as they found it, every metric the benchmark
prints is declared in ``BENCHMARK.json`` under a valid name, and the
``service-mixed`` stream is a pure function of its seed.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from collections import Counter
from pathlib import Path

from perfbench import layers, run
from perfbench.check import EXPECTED_PATH, Checker, report_digest
from perfbench.workloads import (
    WORKLOADS,
    Calibrated,
    PassResult,
    Sample,
    expected_kinds,
    host_factor,
    loop_times,
    observe_requests,
    service_requests,
    service_stream,
    sweep_requests,
    tail,
)

BENCHMARK = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracing_restores_every_original():
    tracing = layers.Tracing(layers.Recorder())
    tracing.install()
    try:
        saved = list(tracing.saved)
        assert saved, "no hook was installed"
        assert tracing.missing == []
        for owner, attr, original in saved:
            assert _current(owner, attr) is not original
    finally:
        tracing.uninstall()
    assert tracing.saved == []
    for owner, attr, original in saved:
        assert _current(owner, attr) is original, f"{owner}.{attr} not restored"
    # Names bound with ``from module import fn`` are restored too.
    from repro.core.simulator import simulate
    from repro.harness import executors

    assert executors.simulate is simulate
    assert sys.modules["repro.core"].simulate is simulate


def test_spans_nest_into_self_times():
    from repro.core.simulator import simulate_workload

    recorder = layers.Recorder()
    with layers.Tracing(recorder):
        outcome = simulate_workload("micro_addi_chain", backend="python")
    self_s = recorder.self_s
    assert recorder.counts["functional.runs"] == 1
    assert recorder.counts["uarch.committed"] == outcome.stats.committed
    for layer in ("workloads.build", "functional.run", "core.simulate",
                  "uarch.pipeline_init", "uarch.run"):
        assert self_s[layer] > 0, layer
    # The cycle loop is a child of core.simulate: its time is not counted
    # twice, so the self times add up to no more than the wall-clock.
    assert self_s["uarch.run"] < sum(self_s.values())


def test_recorder_pauses_when_disabled():
    recorder = layers.Recorder()
    wrapped = recorder.timed("x", lambda: 7)
    recorder.enabled = False
    assert wrapped() == 7
    assert recorder.calls == {}
    recorder.enabled = True
    wrapped()
    assert recorder.calls["x"] == 1


def _fake_pass(kind="hit") -> PassResult:
    request = sweep_requests()[0]
    samples = [Sample(request, 0.1 + i / 100, kind if i % 2 else "miss")
               for i in range(30)]
    return PassResult(3.0, samples, committed=1000, raw_wall_s=3.5)


def test_printed_metrics_are_declared_with_valid_names():
    e2e, _ = run.e2e_metrics([_fake_pass()] * 3, [1.0, 1.1, 1.2], 40.0)
    per_layer = run.layer_metrics(layers.Recorder(), [_fake_pass()] * 2,
                                  [_fake_pass()] * 2, 1.0, {})
    declared = run.declared_metrics()
    assert set(e2e) == set(declared["end_to_end"])
    assert set(per_layer) == set(declared["per_layer"])
    names = list(declared["end_to_end"]) + list(declared["per_layer"])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(declared["end_to_end"].values()) + list(
            declared["per_layer"].values()):
        assert UNIT.match(unit), unit


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_service_stream_is_a_pure_function_of_its_seed():
    distinct = service_requests()
    for seed in (1, 2):
        first = service_stream(seed, distinct)
        assert first == service_stream(seed, distinct)
        kinds = Counter()
        seen: set = set()
        for group in first:
            request = group[0]
            if request in seen:
                kinds["hit"] += 1
            else:
                seen.add(request)
                kinds["miss"] += 1
                kinds["coalesced"] += len(group) - 1
        assert dict(kinds) == expected_kinds(distinct)
        repeats = Counter(g[0] for g in first)
        assert all(count == 3 for count in repeats.values())
    assert service_stream(1, distinct) != service_stream(2, distinct)


def test_tail_keeps_ten_samples_above():
    values = [float(i) for i in range(40)]
    percentile, value = tail(values)
    assert sum(v > value for v in values) == 10
    assert 50 < percentile < 100
    assert tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_expected_digests_cover_every_request():
    expected = json.loads(EXPECTED_PATH.read_text())
    keys = {r.key for r in sweep_requests() + observe_requests()
            + service_requests()}
    assert keys == set(expected)


def test_checker_flags_a_wrong_report():
    request = service_requests()[0]
    checker = Checker({request.key: report_digest({"rows": [1]})})
    assert checker.golden(request) is None
    assert checker.problem(request, {"rows": [1]}) is None
    assert "digest" in checker.problem(request, {"rows": [2]})
    assert Checker({}).problem(request, {}) is not None
    # A request with a golden table is checked against it too, and a
    # report that does not parse is a problem, not a crash.
    golden_request = sweep_requests()[0]
    assert checker.golden(golden_request) is not None
    checker.expected[golden_request.key] = report_digest({"rows": [1]})
    assert "parse" in checker.problem(golden_request, {"rows": [1]})


def test_unknown_workload_is_refused():
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2


def test_percentiles_use_every_sample():
    a, b = sweep_requests()[:2]
    samples = [Sample(a, 1.0, "miss"), Sample(a, 3.0, "miss"),
               Sample(a, 2.0, "miss", error="wrong"), Sample(b, 0.5, "hit")]
    result = PassResult(4.0, samples)
    assert run.latencies([result]) == [1.0, 3.0, 0.5]
    assert run.latencies([result], "hit") == [0.5]


def test_reports_are_checked_with_the_recorder_paused():
    recorder = layers.Recorder()
    seen = []

    class Fake:
        def run_pass(self):
            seen.append(("pass", recorder.enabled))
            return _fake_pass()

        def check(self, result):
            seen.append(("check", recorder.enabled))
            return []

    run.run_passes(Fake(), 2, recorder)
    assert seen == [("pass", True), ("check", False)] * 2
    assert recorder.enabled


def test_layer_map_names_declared_metrics_and_workloads():
    layer_map = run.layer_map()
    declared = run.declared_metrics()
    assert list(layer_map) == list(declared["per_layer"])
    for moves in layer_map.values():
        assert moves
        for e2e, workloads in moves.items():
            assert e2e in declared["end_to_end"], e2e
            assert workloads and set(workloads) <= set(WORKLOADS), workloads


def test_calibration_keeps_waiting_time_as_measured():
    clock = Calibrated()
    with clock.span() as samples:
        time.sleep(0.05)               # no CPU time: nothing to rescale
        samples.append(Sample(sweep_requests()[0], 0.05, "hit"))
    result = clock.result(0)
    assert abs(result.samples[0].latency_s - 0.05) < 0.01
    assert abs(result.wall_s - result.raw_wall_s) < 0.01


def test_calibration_leaves_the_process_where_it_was():
    allowed = os.sched_getaffinity(0)
    assert len(loop_times(all_cores=True)) == len(loop_times()) * len(allowed)
    assert host_factor(loop_times()) > 0
    assert os.sched_getaffinity(0) == allowed
