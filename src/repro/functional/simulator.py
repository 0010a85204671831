"""The functional (architectural) simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.functional.memory import Memory
from repro.functional.state import ArchState
from repro.functional.trace import Trace
from repro.isa.opcodes import OpClass
from repro.isa.program import DATA_BASE, INSTRUCTION_BYTES, STACK_BASE, Program
from repro.isa.registers import RegisterNames as R
from repro.isa.semantics import alu_eval, branch_taken, mask64, sign_extend


class ExecutionLimitExceeded(Exception):
    """Raised when a program does not halt within the instruction budget."""


@dataclass
class ExecutionResult:
    """Outcome of a functional simulation run.

    Attributes:
        program: The program that was executed.
        trace: The dynamic instruction trace in program (retirement) order,
            as typed columns.  The trailing ``halt`` instruction is included.
        state: Final architectural register state.
        memory: Final memory contents.
        halted: True if the program executed a ``halt`` instruction.
        dynamic_count: Number of dynamic instructions executed.
    """

    program: Program
    trace: Trace
    state: ArchState
    memory: Memory
    halted: bool
    dynamic_count: int = 0


class FunctionalSimulator:
    """Executes AXP-lite programs architecturally and records their traces."""

    def __init__(self, program: Program, max_instructions: int = 2_000_000):
        """Create a simulator for ``program``.

        Args:
            program: The assembled program to run.
            max_instructions: Hard bound on dynamic instructions; exceeding it
                raises :class:`ExecutionLimitExceeded` (guards against
                workload bugs that would otherwise hang the test suite).
        """
        self.program = program
        self.max_instructions = max_instructions
        self.state = ArchState(pc=program.pc_of(program.entry))
        self.state.write(R.SP, STACK_BASE)
        self.state.write(R.GP, DATA_BASE)
        self.memory = Memory(program.initial_memory)

    def run(self) -> ExecutionResult:
        """Run the program to completion (or to the instruction budget).

        Returns:
            An :class:`ExecutionResult` whose trace columns were written
            here, once, one row per executed instruction.
        """
        program = self.program
        state = self.state
        memory = self.memory
        trace = Trace()
        store_pages: set[int] = set()
        # Hot-loop aliases (this loop runs once per dynamic instruction).
        instructions = program.instructions
        index_of = program.index_of
        pc_of = program.pc_of
        read = state.read
        write = state.write
        alu_classes = (OpClass.ALU, OpClass.SHIFT, OpClass.MUL, OpClass.DIV)
        append_index = trace.index.append
        append_pc = trace.pc.append
        append_result = trace.result.append
        append_result_has = trace.result_has.append
        append_eff_addr = trace.eff_addr.append
        append_store_value = trace.store_value.append
        append_store_value_has = trace.store_value_has.append
        append_rs1_value = trace.rs1_value.append
        append_taken = trace.taken.append
        append_target_pc = trace.target_pc.append
        append_target_has = trace.target_has.append
        code_length = len(instructions)
        seq = 0
        halted = False

        while seq < self.max_instructions:
            pc = state.pc
            index = index_of(pc)
            if index < 0 or index >= code_length:
                raise ExecutionLimitExceeded(
                    f"{program.name}: control transferred outside the code segment "
                    f"(pc={pc:#x})"
                )
            instruction = instructions[index]
            spec = instruction.spec
            fallthrough = pc + INSTRUCTION_BYTES
            rs1_value = read(instruction.rs1) if spec.reads_rs1 else 0
            rs2_value = read(instruction.rs2) if spec.reads_rs2 else 0
            result = eff_addr = store_value = target_pc = 0
            result_has = store_value_has = target_has = 0
            taken = -1
            next_pc = fallthrough

            op_class = spec.op_class
            if op_class in alu_classes:
                result = alu_eval(instruction.opcode, rs1_value, rs2_value, instruction.imm)
                result_has = 1
                if instruction.rd is not None:
                    write(instruction.rd, result)
            elif op_class is OpClass.LOAD:
                eff_addr = mask64(rs1_value + instruction.imm)
                raw = memory.read(eff_addr, spec.mem_bytes)
                result = sign_extend(raw, 8 * spec.mem_bytes) if spec.mem_signed else raw
                result_has = 1
                write(instruction.rd, result)
            elif op_class is OpClass.STORE:
                eff_addr = mask64(rs1_value + instruction.imm)
                store_value = rs2_value
                store_value_has = 1
                memory.write(eff_addr, spec.mem_bytes, store_value)
                # Both pages of a store that straddles a page boundary.
                store_pages.add(eff_addr >> 12)
                store_pages.add((eff_addr + spec.mem_bytes - 1) >> 12)
            elif op_class is OpClass.BRANCH:
                taken = int(branch_taken(instruction.opcode, rs1_value))
                target_pc = pc_of(instruction.target)
                target_has = 1
                next_pc = target_pc if taken else fallthrough
            elif op_class is OpClass.JUMP:
                taken = 1
                next_pc = target_pc = pc_of(instruction.target)
                target_has = 1
            elif op_class is OpClass.CALL:
                taken = 1
                result = fallthrough
                result_has = 1
                write(instruction.rd, result)
                next_pc = target_pc = pc_of(instruction.target)
                target_has = 1
            elif op_class is OpClass.RET:
                taken = 1
                next_pc = target_pc = rs1_value
                target_has = 1
            elif op_class is not OpClass.NOP and op_class is not OpClass.HALT:
                raise ValueError(f"unhandled op class {op_class}")  # pragma: no cover

            append_index(index)
            append_pc(pc)
            append_result(result)
            append_result_has(result_has)
            append_eff_addr(eff_addr)
            append_store_value(store_value)
            append_store_value_has(store_value_has)
            append_rs1_value(rs1_value)
            append_taken(taken)
            append_target_pc(target_pc)
            append_target_has(target_has)
            seq += 1
            if op_class is OpClass.HALT:
                halted = True
                break
            state.pc = next_pc
        else:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded the budget of "
                f"{self.max_instructions} dynamic instructions"
            )

        trace.store_pages = frozenset(store_pages)
        return ExecutionResult(
            program=program,
            trace=trace,
            state=state,
            memory=memory,
            halted=halted,
            dynamic_count=seq,
        )
