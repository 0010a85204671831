"""Unit tests for the functional simulator."""

import pytest

from repro.functional.simulator import ExecutionLimitExceeded, FunctionalSimulator
from repro.functional.trace import COLUMNS, mix_statistics
from repro.isa.assembler import Assembler
from repro.isa.program import STACK_BASE
from repro.isa.registers import RegisterNames as R


def run(asm: Assembler, **kwargs):
    return FunctionalSimulator(asm.assemble(), **kwargs).run()


def test_arithmetic_program():
    asm = Assembler("arith")
    asm.li(R.T0, 5)
    asm.li(R.T1, 7)
    asm.add(R.T2, R.T0, R.T1)
    asm.mul(R.T3, R.T2, R.T2)
    asm.halt()
    result = run(asm)
    assert result.halted
    assert result.state.read(R.T2) == 12
    assert result.state.read(R.T3) == 144


def test_large_constant_via_ldah_pair():
    asm = Assembler("bigconst")
    asm.li(R.T0, 0x12345678)
    asm.li(R.T1, -123456)
    asm.halt()
    result = run(asm)
    assert result.state.read(R.T0) == 0x12345678
    assert result.state.read(R.T1) == (-123456) & ((1 << 64) - 1)


def test_loop_sums_array():
    asm = Assembler("sum")
    asm.word_array("values", [3, 1, 4, 1, 5, 9, 2, 6])
    asm.la(R.A0, "values")
    asm.li(R.T0, 8)
    asm.li(R.V0, 0)
    asm.label("loop")
    asm.ld(R.T1, 0, R.A0)
    asm.add(R.V0, R.V0, R.T1)
    asm.addi(R.A0, R.A0, 8)
    asm.subi(R.T0, R.T0, 1)
    asm.bgt(R.T0, "loop")
    asm.halt()
    result = run(asm)
    assert result.state.read(R.V0) == 31


def test_store_then_load_round_trip():
    asm = Assembler("mem")
    asm.zeros("buffer", 4)
    asm.la(R.A0, "buffer")
    asm.li(R.T0, 0x7F)
    asm.st(R.T0, 8, R.A0)
    asm.ld(R.T1, 8, R.A0)
    asm.stw(R.T0, 16, R.A0)
    asm.ldw(R.T2, 16, R.A0)
    asm.stb(R.T0, 24, R.A0)
    asm.ldbu(R.T3, 24, R.A0)
    asm.halt()
    result = run(asm)
    assert result.state.read(R.T1) == 0x7F
    assert result.state.read(R.T2) == 0x7F
    assert result.state.read(R.T3) == 0x7F


def test_signed_word_load_sign_extends():
    asm = Assembler("sext")
    asm.zeros("buffer", 1)
    asm.la(R.A0, "buffer")
    asm.li(R.T0, -1)
    asm.stw(R.T0, 0, R.A0)
    asm.ldw(R.T1, 0, R.A0)
    asm.halt()
    result = run(asm)
    assert result.state.read(R.T1) == (1 << 64) - 1


def test_call_and_return():
    asm = Assembler("call")
    asm.li(R.A0, 20)
    asm.jsr("double")
    asm.mov(R.S0, R.V0)
    asm.halt()
    asm.label("double")
    asm.add(R.V0, R.A0, R.A0)
    asm.ret()
    result = run(asm)
    assert result.state.read(R.S0) == 40


def test_nested_calls_with_stack_frames():
    asm = Assembler("nested")
    asm.li(R.A0, 3)
    asm.jsr("outer")
    asm.halt()
    asm.label("outer")
    asm.prologue(16)
    asm.addi(R.A0, R.A0, 1)
    asm.jsr("inner")
    asm.epilogue(16)
    asm.label("inner")
    asm.add(R.V0, R.A0, R.A0)
    asm.ret()
    result = run(asm)
    assert result.state.read(R.V0) == 8
    # the stack pointer must be restored
    assert result.state.read(R.SP) == STACK_BASE


def test_conditional_branches():
    asm = Assembler("branches")
    asm.li(R.T0, 10)
    asm.li(R.V0, 0)
    asm.cmplti(R.T1, R.T0, 20)
    asm.beq(R.T1, "skip")
    asm.addi(R.V0, R.V0, 1)
    asm.label("skip")
    asm.cmplti(R.T1, R.T0, 5)
    asm.bne(R.T1, "skip2")
    asm.addi(R.V0, R.V0, 2)
    asm.label("skip2")
    asm.halt()
    result = run(asm)
    assert result.state.read(R.V0) == 3


def test_trace_records_values_and_addresses():
    asm = Assembler("trace")
    asm.zeros("buf", 1)
    asm.la(R.A0, "buf")
    asm.li(R.T0, 99)
    asm.st(R.T0, 0, R.A0)
    asm.ld(R.T1, 0, R.A0)
    asm.halt()
    result = run(asm)
    trace = result.trace
    instructions = result.program.instructions
    store = next(seq for seq, index in enumerate(trace.index)
                 if instructions[index].is_store)
    load = next(seq for seq, index in enumerate(trace.index)
                if instructions[index].is_load)
    assert trace.eff_addr[store] == trace.eff_addr[load]
    assert trace.store_value[store] == 99 and trace.store_value_has[store]
    assert trace.result[load] == 99 and trace.result_has[load]
    # sequence numbers are dense and ordered: every column has one row per
    # retired instruction, in retirement order
    for name, _ in COLUMNS:
        assert len(getattr(trace, name)) == len(trace) == result.dynamic_count


def test_trace_next_pc_chains():
    asm = Assembler("chain")
    asm.li(R.T0, 2)
    asm.label("loop")
    asm.subi(R.T0, R.T0, 1)
    asm.bgt(R.T0, "loop")
    asm.halt()
    trace = run(asm).trace
    for seq in range(len(trace) - 1):
        next_pc = trace.target_pc[seq] if trace.taken[seq] == 1 else trace.pc[seq] + 4
        assert next_pc == trace.pc[seq + 1]


def test_branch_outcomes_recorded():
    asm = Assembler("taken")
    asm.li(R.T0, 2)
    asm.label("loop")
    asm.subi(R.T0, R.T0, 1)
    asm.bgt(R.T0, "loop")
    asm.halt()
    result = run(asm)
    trace = result.trace
    branches = [seq for seq, index in enumerate(trace.index)
                if result.program.instructions[index].is_cond_branch]
    assert [trace.taken[seq] for seq in branches] == [1, 0]
    assert all(trace.target_has[seq] for seq in branches)
    assert trace.target_pc[branches[0]] == trace.pc[branches[0] + 1]


def test_infinite_loop_hits_budget():
    asm = Assembler("spin")
    asm.label("forever")
    asm.br("forever")
    asm.halt()
    with pytest.raises(ExecutionLimitExceeded):
        FunctionalSimulator(asm.assemble(), max_instructions=1000).run()


def test_zero_register_cannot_be_written():
    asm = Assembler("zero")
    asm.li(R.ZERO, 55)
    asm.addi(R.T0, R.ZERO, 1)
    asm.halt()
    result = run(asm)
    assert result.state.read(R.ZERO) == 0
    assert result.state.read(R.T0) == 1


def test_mix_statistics_classification():
    asm = Assembler("mix")
    asm.zeros("buf", 2)
    asm.la(R.A0, "buf")      # addi (reg-imm add) -- may be 1 or 2 instrs
    asm.mov(R.T0, R.A0)      # move
    asm.ld(R.T1, 0, R.A0)    # load
    asm.st(R.T1, 8, R.A0)    # store
    asm.add(R.T2, R.T1, R.T1)  # other alu
    asm.beq(R.ZERO, "end")   # branch
    asm.label("end")
    asm.halt()
    result = run(asm)
    mix = mix_statistics(result.trace, result.program)
    assert mix.total == result.dynamic_count
    assert mix.moves == 1
    assert mix.loads == 1
    assert mix.stores == 1
    assert mix.branches == 1
    assert mix.other_alu == 1
    assert mix.reg_imm_adds >= 1
    assert 0.0 < mix.move_fraction < 1.0
