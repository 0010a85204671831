"""Tests for the experiment harness (small workload subsets for speed)."""

from repro.core import RenoConfig
from repro.harness import instruction_mix, run_experiment, run_matrix
from repro.uarch import MachineConfig

SMALL = ["micro_addi_chain", "micro_call_spill"]


def test_run_matrix_shares_traces_and_indexes_results():
    matrix = run_matrix(
        SMALL,
        {"4wide": MachineConfig.default_4wide()},
        {"BASE": None, "RENO": RenoConfig.reno_default()},
    )
    assert set(matrix.workloads) == set(SMALL)
    outcome = matrix.get("micro_addi_chain", "4wide", "RENO")
    assert outcome.stats.committed > 0
    assert matrix.speedup("micro_addi_chain", "4wide", "RENO") > 0.5


def test_figure8_report_structure():
    report = run_experiment("fig8", suite="micro", workloads=SMALL)
    assert len(report.rows) == len(SMALL) + 1          # + amean row
    assert "amean" in report.data
    assert 0.0 <= report.data["amean"]["total"] <= 1.0
    assert str(report).count("\n") >= len(SMALL) + 2


def test_figure9_report_has_three_configs_per_workload():
    report = run_experiment("fig9", suite="micro",
                            workloads=["micro_addi_chain"])
    assert len(report.rows) == 3
    fractions = report.data[("micro_addi_chain", "RENO")]
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_figure10_report_contains_all_policies():
    report = run_experiment("fig10", suite="micro",
                            workloads=["micro_call_spill"])
    assert ("micro_call_spill", "RENO") in report.data
    assert ("micro_call_spill", "LoadsInteg") in report.data


def test_figure11_register_file_relative_performance():
    report = run_experiment("fig11_regs", suite="micro",
                            workloads=["micro_call_spill"],
                            register_sizes=(112, 160))
    # The reference point (baseline, biggest register file) is 100 %.
    assert abs(report.data[("BASE", 160)] - 1.0) < 1e-9
    assert report.data[("BASE", 112)] <= 1.0 + 1e-9


def test_figure11_issue_width_reference_point():
    report = run_experiment("fig11_width", suite="micro",
                            workloads=["micro_addi_chain"],
                            widths=((2, 2), (3, 4)))
    assert abs(report.data[("BASE", "i3t4")] - 1.0) < 1e-9
    assert report.data[("BASE", "i2t2")] <= 1.0 + 1e-9


def test_figure12_scheduler_reference_point():
    report = run_experiment("fig12", suite="micro",
                            workloads=["micro_addi_chain"])
    assert abs(report.data[("BASE", "sched1")] - 1.0) < 1e-9
    assert report.data[("BASE", "sched2")] <= 1.0 + 1e-9


def test_instruction_mix_report():
    report = instruction_mix("micro", workloads=["micro_moves", "micro_sum"])
    assert report.data["micro_moves"]["moves"] > 0.3
    assert 0 < report.data["amean"]["addis"] < 1


def test_fusion_sensitivity_report():
    report = run_experiment("fusion", suite="micro",
                            workloads=["micro_addi_chain"])
    entry = report.data["micro_addi_chain"]
    assert entry["slow"] <= entry["fast"] + 1e-9


def test_integration_table_cost_report():
    report = run_experiment("it_cost", suite="micro",
                            workloads=["micro_call_spill"])
    entry = report.data["micro_call_spill"]
    assert entry["default"] < entry["full"]
    assert 0.0 < entry["saved"] <= 1.0
