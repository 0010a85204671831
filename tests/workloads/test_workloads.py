"""Tests for the synthetic workload suites.

Every registered workload must assemble, run to completion within a bounded
instruction budget, and exhibit the dynamic-mix properties the RENO
experiments rely on (presence of register-immediate additions, loads, and —
for the call-heavy kernels — stack traffic).
"""

import pytest

from repro.functional import FunctionalSimulator, mix_statistics
from repro.isa.program import STACK_BASE, Program
from repro.isa.registers import RegisterNames as R
from repro.workloads import (
    get_workload,
    list_workloads,
    mediabench_suite,
    microbench_suite,
    specint_suite,
    suite_by_name,
)

ALL_WORKLOADS = list_workloads()
ALL_NAMES = [workload.name for workload in ALL_WORKLOADS]


def run_workload(name: str, scale: int = 1):
    workload = get_workload(name)
    program = workload.build(scale)
    return FunctionalSimulator(program, max_instructions=2_000_000).run()


# ---------------------------------------------------------------------------
# Registry and suite structure
# ---------------------------------------------------------------------------


def test_suites_have_paper_cardinality():
    assert len(specint_suite()) == 16     # one kernel per SPECint row in Fig. 8
    assert len(mediabench_suite()) == 18  # one kernel per MediaBench row in Fig. 8
    assert len(microbench_suite()) >= 8


def test_all_workloads_have_unique_paper_labels():
    for suite in (specint_suite(), mediabench_suite()):
        labels = [workload.label for workload in suite]
        assert len(labels) == len(set(labels))


def test_suite_by_name_round_trip():
    assert [w.name for w in suite_by_name("specint")] == [w.name for w in specint_suite()]
    with pytest.raises(KeyError):
        suite_by_name("flops")


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        get_workload("not_a_workload")


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        get_workload("micro_sum").build(0)


# ---------------------------------------------------------------------------
# Every workload assembles and halts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_workload_builds_a_program(name):
    program = get_workload(name).build(1)
    assert isinstance(program, Program)
    assert len(program) > 5


@pytest.mark.parametrize("name", ALL_NAMES)
def test_workload_runs_to_completion(name):
    result = run_workload(name)
    assert result.halted
    assert 100 <= result.dynamic_count <= 1_000_000


@pytest.mark.parametrize("name", ALL_NAMES)
def test_workload_contains_loops(name):
    result = run_workload(name)
    mix = mix_statistics(result.trace, result.program)
    assert mix.branches > 0, "every kernel should contain loops"


@pytest.mark.parametrize(
    "name",
    [w.name for w in specint_suite()] + [w.name for w in mediabench_suite()],
)
def test_paper_suite_kernels_touch_memory(name):
    result = run_workload(name)
    mix = mix_statistics(result.trace, result.program)
    assert mix.loads + mix.stores > 0, "every paper kernel should touch memory"


@pytest.mark.parametrize(
    "name",
    [w.name for w in specint_suite()] + [w.name for w in mediabench_suite()],
)
def test_paper_suite_kernels_contain_foldable_additions(name):
    """RENO_CF needs register-immediate additions in every paper kernel."""
    result = run_workload(name)
    mix = mix_statistics(result.trace, result.program)
    assert mix.reg_imm_add_fraction > 0.05


def test_scaling_increases_work():
    small = run_workload("micro_sum", scale=1).dynamic_count
    large = run_workload("micro_sum", scale=3).dynamic_count
    assert large > 2 * small


def test_workloads_are_deterministic():
    first = run_workload("gzip_like")
    second = run_workload("gzip_like")
    assert first.dynamic_count == second.dynamic_count
    assert first.state.snapshot() == second.state.snapshot()


# ---------------------------------------------------------------------------
# Suite-level dynamic mix properties (the raw material for RENO)
# ---------------------------------------------------------------------------


def _suite_average_mix(suite_name: str):
    fractions = {"moves": 0.0, "addis": 0.0, "loads": 0.0}
    workloads = suite_by_name(suite_name)
    for workload in workloads:
        result = FunctionalSimulator(workload.build(1), max_instructions=2_000_000).run()
        mix = mix_statistics(result.trace, result.program)
        fractions["moves"] += mix.move_fraction
        fractions["addis"] += mix.reg_imm_add_fraction
        fractions["loads"] += mix.load_fraction
    count = len(workloads)
    return {key: value / count for key, value in fractions.items()}


def test_specint_suite_mix_is_in_reno_relevant_range():
    mix = _suite_average_mix("specint")
    assert 0.01 <= mix["moves"] <= 0.10
    assert 0.08 <= mix["addis"] <= 0.35
    assert 0.08 <= mix["loads"] <= 0.40


def test_mediabench_suite_has_more_foldable_additions_than_specint():
    """The paper reports a higher reg-imm-addition fraction for MediaBench."""
    spec = _suite_average_mix("specint")
    media = _suite_average_mix("mediabench")
    assert media["addis"] > spec["addis"] * 0.9


def test_call_heavy_kernels_restore_the_stack_pointer():
    for name in ("vortex_like", "parser_like", "perl_diffmail_like", "micro_call_spill"):
        result = run_workload(name)
        assert result.state.read(R.SP) == STACK_BASE, name


def test_call_heavy_kernels_have_stack_spill_pairs():
    """RENO_RA needs store/load pairs through the stack pointer region."""
    result = run_workload("vortex_like")
    stack_stores = set()
    bypassed_loads = 0
    trace = result.trace
    for seq, index in enumerate(trace.index):
        instruction = result.program.instructions[index]
        eff_addr = trace.eff_addr[seq]
        if not (instruction.is_load or instruction.is_store) \
                or eff_addr < STACK_BASE - (1 << 20):
            continue
        if instruction.is_store:
            stack_stores.add(eff_addr)
        elif instruction.is_load and eff_addr in stack_stores:
            bypassed_loads += 1
    assert bypassed_loads > 10
