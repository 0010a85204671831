"""Figure 11: RENO compensating for fewer physical registers / narrower issue."""

import pytest

from repro.harness import run_experiment


@pytest.mark.benchmark(group="figure11")
def test_figure11_register_file_specint(benchmark, suite_subsets, save_report):
    spec, _ = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fig11_regs",),
        kwargs={"suite": "specint", "workloads": spec},
        rounds=1, iterations=1,
    )
    save_report(report, "fig11_registers_specint.txt")
    # Paper: CF+ME alone compensates for a 160 -> 112 reduction.
    assert report.data[("CF+ME", 112)] >= report.data[("BASE", 112)]
    assert report.data[("RENO", 96)] >= report.data[("BASE", 96)]
    assert report.data[("CF+ME", 112)] >= 0.95 * report.data[("BASE", 160)]


@pytest.mark.benchmark(group="figure11")
def test_figure11_issue_width_mediabench(benchmark, suite_subsets, save_report):
    _, media = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fig11_width",),
        kwargs={"suite": "mediabench", "workloads": media},
        rounds=1, iterations=1,
    )
    save_report(report, "fig11_width_mediabench.txt")
    # Narrowing issue hurts the baseline; RENO recovers part of the loss.
    assert report.data[("BASE", "i2t2")] <= report.data[("BASE", "i3t4")]
    assert report.data[("RENO", "i2t3")] >= report.data[("BASE", "i2t3")]
    assert report.data[("RENO", "i2t2")] >= report.data[("BASE", "i2t2")]
