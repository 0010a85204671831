"""Integration tests for the baseline (RENO-less) pipeline."""

import pytest

from repro.functional import FunctionalSimulator
from repro.isa.assembler import Assembler
from repro.isa.registers import RegisterNames as R
from repro.uarch import MachineConfig, Pipeline
from repro.workloads import get_workload


def run_program(asm_or_program, config=None, **kwargs):
    program = asm_or_program.assemble() if isinstance(asm_or_program, Assembler) else asm_or_program
    functional = FunctionalSimulator(program).run()
    pipeline = Pipeline(program, functional.trace, config or MachineConfig.default_4wide(), **kwargs)
    return functional, pipeline.run()


def run_workload(name, config=None, scale=1, **kwargs):
    return run_program(get_workload(name).build(scale), config, **kwargs)


# ---------------------------------------------------------------------------
# Correctness: the timing simulator reproduces architectural state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "micro_sum", "micro_moves", "micro_addi_chain", "micro_redundant_loads",
    "micro_call_spill", "micro_store_load", "micro_pointer_chase",
    "micro_branchy", "micro_matvec",
])
def test_baseline_pipeline_matches_functional_state(name):
    functional, result = run_workload(name)
    assert result.final_registers == list(functional.state.snapshot())
    assert result.stats.committed == functional.dynamic_count


@pytest.mark.parametrize("name", ["gzip_like", "vortex_like", "adpcm_decode_like", "jpeg_encode_like"])
def test_baseline_pipeline_matches_functional_state_on_suite_kernels(name):
    functional, result = run_workload(name)
    assert result.final_registers == list(functional.state.snapshot())


def test_final_memory_matches_functional_memory():
    functional, _ = run_workload("micro_store_load")
    program = get_workload("micro_store_load").build(1)
    functional = FunctionalSimulator(program).run()
    pipeline = Pipeline(program, functional.trace, MachineConfig.default_4wide())
    pipeline.run()
    assert pipeline.memory == functional.memory


# ---------------------------------------------------------------------------
# Timing sanity
# ---------------------------------------------------------------------------


def test_ipc_is_bounded_by_machine_width():
    _, result = run_workload("micro_sum")
    assert 0.0 < result.ipc <= result.config.commit_width


def _serial_chain_loop(iterations=100, body=8):
    """A loop whose body is a serial dependence chain (I$-warm after iteration 1)."""
    asm = Assembler("chain_loop")
    asm.li(R.T0, 0)
    asm.li(R.T1, iterations)
    asm.label("loop")
    for _ in range(body):
        asm.add(R.T0, R.T0, R.T1)    # serial: each add depends on the previous
    asm.subi(R.T1, R.T1, 1)
    asm.bgt(R.T1, "loop")
    asm.halt()
    return asm


def _parallel_loop(iterations=100):
    """A loop whose body is independent work."""
    asm = Assembler("parallel_loop")
    for index in range(8):
        asm.li(1 + index, index + 1)
    asm.li(R.S0, iterations)
    asm.label("loop")
    asm.add(R.T0, R.T1, R.T2)
    asm.add(R.T3, R.T4, R.T5)
    asm.xor(R.T6, R.T7, R.T1)
    asm.and_(R.T8, R.T2, R.T4)
    asm.or_(R.T0, R.T1, R.T5)
    asm.add(R.T3, R.T2, R.T7)
    asm.subi(R.S0, R.S0, 1)
    asm.bgt(R.S0, "loop")
    asm.halt()
    return asm


def test_serial_dependence_chain_has_low_ipc():
    _, result = run_program(_serial_chain_loop())
    assert result.ipc < 1.6


def test_independent_instructions_reach_high_ipc():
    # Long enough that cold-start instruction-cache misses are amortised.
    _, result = run_program(_parallel_loop(400))
    assert result.ipc > 2.0


def test_two_cycle_scheduler_slows_dependent_chains():
    program = _serial_chain_loop().assemble()
    functional = FunctionalSimulator(program).run()
    fast = Pipeline(program, functional.trace, MachineConfig.default_4wide()).run()
    slow = Pipeline(program, functional.trace,
                    MachineConfig.default_4wide().with_scheduler_latency(2)).run()
    assert slow.cycles > fast.cycles * 1.3


def test_narrow_issue_width_slows_parallel_code():
    _, wide = run_workload("micro_matvec", MachineConfig.default_4wide())
    _, narrow = run_workload("micro_matvec", MachineConfig.default_4wide().with_issue(2, 2))
    assert narrow.cycles > wide.cycles


def test_six_wide_machine_is_not_slower():
    _, four = run_workload("gzip_like", MachineConfig.default_4wide())
    _, six = run_workload("gzip_like", MachineConfig.default_6wide())
    assert six.cycles <= four.cycles * 1.02


def test_branch_mispredictions_cost_cycles():
    functional, result = run_workload("micro_branchy")
    assert result.stats.branch_mispredictions > 0
    # A data-dependent-branch kernel should run well below peak IPC.
    assert result.ipc < 3.0


def test_pointer_chase_misses_the_cache():
    _, result = run_workload("micro_pointer_chase", scale=3)
    assert result.stats.dcache_misses > 0
    assert result.ipc < 1.0


def test_store_forwarding_happens_for_stack_traffic():
    _, result = run_workload("micro_store_load")
    assert result.stats.store_forwards > 0


def test_memory_order_violations_are_rare_after_training():
    _, result = run_workload("micro_store_load", scale=4)
    loads = sum(1 for _ in range(1))  # placeholder to keep flake-free
    assert result.stats.memory_order_violations <= 6


def test_small_register_file_slows_execution():
    _, big = run_workload("gsm_encode_like", MachineConfig.default_4wide())
    _, small = run_workload("gsm_encode_like", MachineConfig.default_4wide().with_registers(48))
    assert small.cycles >= big.cycles
    assert small.stats.rename_stall_cycles > 0


def test_timing_records_collected_when_requested():
    program = get_workload("micro_sum").build(1)
    functional = FunctionalSimulator(program).run()
    result = Pipeline(program, functional.trace, collect_timing=True).run()
    timing = result.timing_records
    assert timing is not None
    assert len(timing) == functional.dynamic_count
    for seq in range(len(timing)):
        assert timing.retire[seq] >= timing.complete[seq] >= timing.dispatch[seq]


def test_stats_accounting_consistency():
    _, result = run_workload("gzip_like")
    stats = result.stats
    assert stats.fetched == stats.committed
    assert stats.issued <= stats.committed
    assert stats.cycles > 0
    assert stats.max_pregs_in_use <= result.config.num_physical_regs


def test_config_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        MachineConfig(num_physical_regs=16).validate()
    with pytest.raises(ValueError):
        MachineConfig(scheduler_latency=0).validate()
