"""Figure 12: RENO with a 2-cycle wakeup-select loop."""

import pytest

from repro.harness import run_experiment


@pytest.mark.benchmark(group="figure12")
def test_figure12_specint(benchmark, suite_subsets, save_report):
    spec, _ = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fig12",),
        kwargs={"suite": "specint", "workloads": spec},
        rounds=1, iterations=1,
    )
    save_report(report, "fig12_specint.txt")
    # The slow scheduler hurts the baseline; RENO recovers part of the loss.
    assert report.data[("BASE", "sched2")] <= report.data[("BASE", "sched1")]
    assert report.data[("RENO", "sched2")] >= report.data[("BASE", "sched2")]


@pytest.mark.benchmark(group="figure12")
def test_figure12_mediabench(benchmark, suite_subsets, save_report):
    _, media = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fig12",),
        kwargs={"suite": "mediabench", "workloads": media},
        rounds=1, iterations=1,
    )
    save_report(report, "fig12_mediabench.txt")
    assert report.data[("RENO", "sched2")] >= report.data[("BASE", "sched2")]
