"""Figure 8: instruction elimination rates and RENO speedups (4- and 6-wide)."""

import pytest

from repro.harness import run_experiment


@pytest.mark.benchmark(group="figure8")
def test_figure8_specint(benchmark, suite_subsets, save_report):
    spec, _ = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fig8",),
        kwargs={"suite": "specint", "workloads": spec},
        rounds=1, iterations=1,
    )
    save_report(report, "fig8_specint.txt")
    mean = report.data["amean"]
    assert 0.05 < mean["total"] < 0.60          # paper: ~22% eliminated/folded
    assert mean["cf"] > mean["me"]              # CF carries more than ME
    assert mean["speedup4"] > 0.0               # RENO speeds up the 4-wide machine


@pytest.mark.benchmark(group="figure8")
def test_figure8_mediabench(benchmark, suite_subsets, save_report):
    _, media = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fig8",),
        kwargs={"suite": "mediabench", "workloads": media},
        rounds=1, iterations=1,
    )
    save_report(report, "fig8_mediabench.txt")
    mean = report.data["amean"]
    assert mean["cf"] > 0.10                    # paper: CF folds ~16% on MediaBench
    assert mean["speedup4"] > 0.0
