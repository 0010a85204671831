"""Property tests for the decoded-op cache.

The pipeline's hot loops never touch ``Instruction``/``OpSpec`` objects; they
run entirely off the immutable decoded tuples
(:func:`repro.isa.instruction.decode_op`).  These tests pin that cache down
from two directions:

* **Field fidelity** — for every opcode, each decoded field equals the value
  derived from the ``Instruction``/``OpSpec`` source of truth.
* **Architectural round-trip** — on seeded random programs, re-evaluating
  every dynamic instruction *from its decoded tuple alone* (plus the traced
  operand values) reproduces the architectural results, effective
  addresses, store values and branch directions the functional simulator
  computed by executing the ``Instruction`` objects directly.  This is the
  property the structure-of-arrays pipeline relies on.
"""

import random

import pytest

from repro.functional.simulator import FunctionalSimulator
from repro.isa.instruction import (
    CLASS_INT,
    CLASS_LOAD,
    CLASS_STORE,
    D_CLASS,
    D_DEST,
    D_FLAGS,
    D_FOLDED_DISP,
    D_IMM,
    D_LATENCY,
    D_MEM_BYTES,
    D_MEM_MASK,
    D_OPCODE,
    D_SOURCES,
    DF_CALL,
    DF_COND_BRANCH,
    DF_CONTROL,
    DF_IT_ALU,
    DF_LOAD,
    DF_MEM_SIGNED,
    DF_MOVE,
    DF_NO_EXECUTE,
    DF_REG_IMM_ADD,
    DF_STORE,
    DF_WRITES,
    Instruction,
    decode_op,
    decode_program,
)
from repro.isa.opcodes import OPCODE_SPECS, OpClass, Opcode
from repro.isa.program import DATA_BASE, STACK_BASE
from repro.isa.registers import NUM_LOGICAL_REGS
from repro.isa.registers import RegisterNames as R
from repro.isa.semantics import MASK64, alu_eval, branch_taken, mask64
from tests.uarch.test_scheduler_equivalence import random_program

#: Seeds for the round-trip property (kept cheap: three programs).
SEEDS = [11, 101, 4099]


def representative(opcode: Opcode) -> Instruction:
    """A syntactically sensible instruction for ``opcode``."""
    spec = OPCODE_SPECS[opcode]
    kwargs = {}
    if spec.writes_rd:
        kwargs["rd"] = 5
    if spec.reads_rs1:
        kwargs["rs1"] = 6
    if spec.reads_rs2:
        kwargs["rs2"] = 7
    if spec.fmt in ("ri", "load", "store"):
        kwargs["imm"] = 24
    if spec.is_control and spec.fmt != "ret":
        kwargs["target"] = 0
    return Instruction(opcode, **kwargs)


@pytest.mark.parametrize("opcode", list(OPCODE_SPECS))
def test_decoded_fields_match_the_spec(opcode):
    instruction = representative(opcode)
    spec = instruction.spec
    op = decode_op(instruction)

    flags = op[D_FLAGS]
    assert bool(flags & DF_LOAD) == spec.is_load
    assert bool(flags & DF_STORE) == spec.is_store
    assert bool(flags & DF_COND_BRANCH) == spec.is_cond_branch
    assert bool(flags & DF_CONTROL) == spec.is_control
    assert bool(flags & DF_CALL) == spec.is_call
    assert bool(flags & DF_WRITES) == (instruction.dest_register is not None)
    assert bool(flags & DF_NO_EXECUTE) == (
        spec.op_class in (OpClass.NOP, OpClass.HALT))
    assert bool(flags & DF_MEM_SIGNED) == spec.mem_signed
    assert bool(flags & DF_MOVE) == spec.is_move
    assert bool(flags & DF_REG_IMM_ADD) == spec.is_reg_imm_add
    assert bool(flags & DF_IT_ALU) == (
        spec.op_class in (OpClass.ALU, OpClass.SHIFT))

    if spec.is_load:
        assert op[D_CLASS] == CLASS_LOAD
    elif spec.is_store:
        assert op[D_CLASS] == CLASS_STORE
    else:
        assert op[D_CLASS] == CLASS_INT
    assert op[D_LATENCY] == spec.latency
    assert op[D_MEM_BYTES] == spec.mem_bytes
    dest = instruction.dest_register
    assert op[D_DEST] == (-1 if dest is None else dest)
    assert op[D_IMM] == instruction.imm
    assert op[D_OPCODE] is opcode
    assert op[D_FOLDED_DISP] == instruction.folded_displacement
    expected_mask = (1 << (8 * spec.mem_bytes)) - 1 if spec.mem_bytes else 0
    assert op[D_MEM_MASK] == expected_mask
    assert op[D_SOURCES] == instruction.source_registers()


def test_decode_is_memoised_per_static_instruction():
    first = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=7)
    second = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=7)
    assert decode_op(first) is decode_op(second)
    assert decode_op(first) is decode_op(first)


def test_decode_program_indexes_by_static_position():
    program = random_program(11, length=30).assemble()
    decoded = decode_program(program.instructions)
    assert len(decoded) == len(program.instructions)
    for index, instruction in enumerate(program.instructions):
        assert decoded[index] is decode_op(instruction)


@pytest.mark.parametrize("seed", SEEDS)
def test_decoded_tuples_round_trip_architectural_behaviour(seed):
    """Re-executing the trace from decoded tuples reproduces the trace.

    For every dynamic instruction, the result / effective address / store
    value / branch direction is recomputed using **only** the decoded tuple
    and the operand values of a register file replayed from the trace's own
    results, and compared against what the functional simulator produced by
    executing the ``Instruction`` objects directly.  The replayed ``rs1``
    value must also equal the traced one.
    """
    program = random_program(seed).assemble()
    run = FunctionalSimulator(program).run()
    trace = run.trace
    decoded = decode_program(program.instructions)
    regs = [0] * NUM_LOGICAL_REGS
    regs[R.SP] = STACK_BASE
    regs[R.GP] = DATA_BASE
    checked = 0

    for seq, index in enumerate(trace.index):
        op = decoded[index]
        flags = op[D_FLAGS]
        operands = [regs[logical] for logical in op[D_SOURCES]] + [0, 0]
        rs1_value, rs2_value = operands[0], operands[1]
        result = trace.result[seq] if trace.result_has[seq] else None
        if op[D_DEST] >= 0 and result is not None:
            regs[op[D_DEST]] = result      # replay the architectural write
        if op[D_SOURCES]:
            assert rs1_value == trace.rs1_value[seq]
        if flags & DF_NO_EXECUTE:
            continue
        if flags & DF_COND_BRANCH:
            assert branch_taken(op[D_OPCODE], rs1_value) == trace.taken[seq]
        elif flags & DF_LOAD:
            assert mask64(rs1_value + op[D_IMM]) == trace.eff_addr[seq]
        elif flags & DF_STORE:
            assert mask64(rs1_value + op[D_IMM]) == trace.eff_addr[seq]
            assert trace.store_value_has[seq]
            assert trace.store_value[seq] == rs2_value
            assert rs2_value & op[D_MEM_MASK] == \
                rs2_value & ((1 << (8 * op[D_MEM_BYTES])) - 1)
        elif flags & DF_CALL:
            assert result == (trace.pc[seq] + 4) & MASK64
        elif op[D_CLASS] == CLASS_INT and not (flags & DF_CONTROL) \
                and result is not None:
            value = alu_eval(op[D_OPCODE], rs1_value, rs2_value, op[D_IMM])
            assert value == result
        else:
            continue
        checked += 1

    assert checked > 100, "expected the trace to exercise every class"


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_on_decoded_ops_matches_functional_state(seed):
    """The SoA pipeline (driven entirely by decoded tuples) must finish with
    the same architectural register state the functional simulator computed
    by executing ``Instruction`` objects."""
    from repro.uarch.config import MachineConfig
    from repro.uarch.core import Pipeline

    program = random_program(seed).assemble()
    run = FunctionalSimulator(program).run()
    result = Pipeline(program, run.trace, MachineConfig.default_4wide()).run()
    functional = [run.state.read(reg) for reg in range(NUM_LOGICAL_REGS)]
    assert result.final_registers == functional
