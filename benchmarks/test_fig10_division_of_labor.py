"""Figure 10: cooperation between RENO_CF and RENO_CSE+RA."""

import pytest

from repro.harness import run_experiment


@pytest.mark.benchmark(group="figure10")
def test_figure10_specint(benchmark, suite_subsets, save_report):
    spec, _ = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fig10",),
        kwargs={"suite": "specint", "workloads": spec},
        rounds=1, iterations=1,
    )
    save_report(report, "fig10_specint.txt")
    # Paper: RENO beats loads-only integration handily, and adding a full IT
    # on top of RENO buys almost nothing.
    assert report.data[("avg", "RENO")] >= report.data[("avg", "LoadsInteg")]
    assert abs(report.data[("avg", "RENO+FullInteg")] - report.data[("avg", "RENO")]) < 0.05


@pytest.mark.benchmark(group="figure10")
def test_figure10_mediabench(benchmark, suite_subsets, save_report):
    _, media = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fig10",),
        kwargs={"suite": "mediabench", "workloads": media},
        rounds=1, iterations=1,
    )
    save_report(report, "fig10_mediabench.txt")
    assert report.data[("avg", "RENO")] >= report.data[("avg", "LoadsInteg")]
