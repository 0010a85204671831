"""End-to-end RENO tests: full pipeline + RENO renamer on real workloads.

The central property: with any RENO configuration, the timing simulator's
architectural results must exactly match the functional simulator's.  The
``simulate`` helper enforces this (it raises otherwise), so
these tests simply exercise many (workload × configuration) points and then
check the paper's qualitative claims about elimination and performance.
"""

import pytest

from repro.core import RenoConfig, simulate, simulate_workload
from repro.functional.simulator import FunctionalSimulator
from repro.uarch import MachineConfig
from repro.workloads.base import get_workload

CONFIG_MATRIX = {
    "ME": RenoConfig.reno_me(),
    "CF+ME": RenoConfig.reno_cf_me(),
    "RENO": RenoConfig.reno_default(),
    "RENO+FullInteg": RenoConfig.reno_full_integration(),
    "FullInteg": RenoConfig.integration_only_full(),
    "LoadsInteg": RenoConfig.integration_only_loads(),
}

def compare_configs(name, configs):
    """Simulate one workload under several RENO configs on one functional trace."""
    program = get_workload(name).build(1)
    functional = FunctionalSimulator(program, 2_000_000).run()
    return {label: simulate(program, None, reno, trace=functional)
            for label, reno in configs.items()}


MICRO_KERNELS = [
    "micro_sum", "micro_moves", "micro_addi_chain", "micro_redundant_loads",
    "micro_call_spill", "micro_store_load", "micro_branchy",
]


# ---------------------------------------------------------------------------
# Architectural equivalence under every configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", MICRO_KERNELS)
@pytest.mark.parametrize("label", list(CONFIG_MATRIX))
def test_reno_preserves_architectural_state_micro(name, label):
    outcome = simulate_workload(name, reno=CONFIG_MATRIX[label])
    assert outcome.stats.committed == outcome.functional.dynamic_count


@pytest.mark.parametrize("name", ["gzip_like", "vortex_like", "parser_like",
                                  "adpcm_decode_like", "gsm_decode_like", "jpeg_encode_like"])
def test_reno_preserves_architectural_state_suite(name):
    outcome = simulate_workload(name, reno=RenoConfig.reno_default())
    assert outcome.stats.committed == outcome.functional.dynamic_count


def test_reno_preserves_state_on_six_wide_machine():
    outcome = simulate_workload("gzip_like", machine=MachineConfig.default_6wide(),
                                reno=RenoConfig.reno_default())
    assert outcome.stats.total_eliminated > 0


def test_reno_preserves_state_with_small_register_file():
    machine = MachineConfig.default_4wide().with_registers(96)
    outcome = simulate_workload("vortex_like", machine=machine,
                                reno=RenoConfig.reno_default())
    assert outcome.stats.committed == outcome.functional.dynamic_count


def test_reno_preserves_state_with_two_cycle_scheduler():
    machine = MachineConfig.default_4wide().with_scheduler_latency(2)
    outcome = simulate_workload("gsm_decode_like", machine=machine,
                                reno=RenoConfig.reno_default())
    assert outcome.stats.committed == outcome.functional.dynamic_count


# ---------------------------------------------------------------------------
# Qualitative claims from the paper
# ---------------------------------------------------------------------------


def test_moves_are_eliminated_by_me():
    outcome = simulate_workload("micro_moves", reno=RenoConfig.reno_me())
    stats = outcome.stats
    assert stats.eliminated_moves > 0
    assert stats.eliminated_folds == 0
    assert stats.eliminated_cse == stats.eliminated_ra == 0


def test_cf_folds_register_immediate_additions():
    outcome = simulate_workload("micro_addi_chain", reno=RenoConfig.reno_cf_me())
    assert outcome.stats.eliminated_folds > 0
    assert outcome.stats.fused_operations > 0


def test_integration_eliminates_redundant_loads():
    outcome = simulate_workload("micro_redundant_loads", reno=RenoConfig.reno_default())
    assert outcome.stats.eliminated_cse > 0
    assert outcome.stats.reexecuted_loads == outcome.stats.eliminated_cse + outcome.stats.eliminated_ra


def test_memory_bypassing_eliminates_stack_reloads():
    outcome = simulate_workload("micro_call_spill", reno=RenoConfig.reno_default())
    assert outcome.stats.eliminated_ra > 0


def test_eliminated_instructions_do_not_allocate_registers():
    base = simulate_workload("gzip_like")
    reno = simulate_workload("gzip_like", reno=RenoConfig.reno_default())
    assert reno.stats.pregs_allocated < base.stats.pregs_allocated
    assert reno.stats.pregs_allocated + reno.stats.total_eliminated == base.stats.pregs_allocated


def test_eliminated_instructions_do_not_issue():
    base = simulate_workload("gzip_like")
    reno = simulate_workload("gzip_like", reno=RenoConfig.reno_default())
    assert reno.stats.issued < base.stats.issued
    assert reno.stats.committed == base.stats.committed


def test_reno_never_slows_down_micro_kernels_catastrophically():
    for name in MICRO_KERNELS:
        outcomes = compare_configs(name, {"BASE": None, "RENO": RenoConfig.reno_default()})
        assert outcomes["RENO"].cycles <= outcomes["BASE"].cycles * 1.25, name


def test_reno_speeds_up_foldable_streaming_code():
    outcomes = compare_configs("gzip_like", {"BASE": None, "RENO": RenoConfig.reno_default()})
    assert outcomes["RENO"].cycles < outcomes["BASE"].cycles


def test_elimination_rate_grows_with_optimization_set():
    outcomes = compare_configs(
        "vortex_like",
        {"ME": RenoConfig.reno_me(), "CF+ME": RenoConfig.reno_cf_me(),
         "RENO": RenoConfig.reno_default()},
    )
    me = outcomes["ME"].stats.elimination_rate
    cf = outcomes["CF+ME"].stats.elimination_rate
    reno = outcomes["RENO"].stats.elimination_rate
    assert me <= cf <= reno
    assert reno > 0.2


def test_default_reno_uses_fewer_it_lookups_than_full_integration():
    """The §4.4 division of labor: loads-only IT needs far less bandwidth."""
    outcomes = compare_configs(
        "vortex_like",
        {"RENO": RenoConfig.reno_default(),
         "RENO+FullInteg": RenoConfig.reno_full_integration()},
    )
    default_bandwidth = (outcomes["RENO"].stats.it_lookups
                         + outcomes["RENO"].stats.it_insertions)
    full_bandwidth = (outcomes["RENO+FullInteg"].stats.it_lookups
                      + outcomes["RENO+FullInteg"].stats.it_insertions)
    assert default_bandwidth < 0.75 * full_bandwidth


def test_reno_compensates_for_reduced_register_file():
    """Figure 11 (top): RENO recovers most of the small-register-file loss."""
    workload = "gsm_encode_like"
    base_big = simulate_workload(workload, machine=MachineConfig.default_4wide())
    base_small = simulate_workload(
        workload, machine=MachineConfig.default_4wide().with_registers(96))
    reno_small = simulate_workload(
        workload, machine=MachineConfig.default_4wide().with_registers(96),
        reno=RenoConfig.reno_cf_me())
    assert base_small.cycles >= base_big.cycles
    assert reno_small.cycles < base_small.cycles
    assert reno_small.stats.max_pregs_in_use <= 96


def test_reno_compensates_for_reduced_issue_width():
    """Figure 11 (bottom): RENO recovers issue-width loss on ALU-bound code."""
    workload = "gsm_encode_like"
    machine_narrow = MachineConfig.default_4wide().with_issue(2, 3)
    base_narrow = simulate_workload(workload, machine=machine_narrow)
    reno_narrow = simulate_workload(workload, machine=machine_narrow,
                                    reno=RenoConfig.reno_cf_me())
    assert reno_narrow.cycles < base_narrow.cycles


def test_reno_helps_with_two_cycle_scheduler():
    """Figure 12: folding collapses single-cycle ops the slow scheduler hurts."""
    workload = "gsm_encode_like"
    machine_slow = MachineConfig.default_4wide().with_scheduler_latency(2)
    base_slow = simulate_workload(workload, machine=machine_slow)
    reno_slow = simulate_workload(workload, machine=machine_slow,
                                  reno=RenoConfig.reno_cf_me())
    assert reno_slow.cycles < base_slow.cycles


def test_fusion_penalty_sensitivity_costs_some_performance():
    fast = simulate_workload("gsm_encode_like", reno=RenoConfig.reno_cf_me())
    slow = simulate_workload("gsm_encode_like",
                             reno=RenoConfig.reno_cf_me().with_slow_fusion())
    assert slow.cycles >= fast.cycles
    assert slow.stats.fusion_penalty_cycles > 0


def test_integration_value_mismatches_counted_not_fatal():
    outcome = simulate_workload("vortex_like", reno=RenoConfig.reno_full_integration())
    assert outcome.stats.integration_value_mismatches >= 0
