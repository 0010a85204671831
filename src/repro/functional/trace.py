"""The dynamic instruction trace (typed columns) and trace-level statistics.

The dynamic trace is the contract between the functional simulator and the
timing simulator: for every retired instruction it carries the
architecturally correct result, effective address, store data, base
register value and branch outcome, so the timing model can (a) drive its
branch predictor / caches with real addresses and outcomes and (b)
cross-check the values its own execute stage produces on the physical
register file — which is how RENO transformations are validated.

The trace is stored as one :class:`array.array` per field, written once by
:meth:`~repro.functional.simulator.FunctionalSimulator.run`.  Every reader
uses those same arrays: the python cycle loop indexes them by sequence
number, and the compiled kernel is handed their buffers as its ``T_*``
pointer slots (the typecodes are exactly the kernel ABI's), so no reader
re-encodes the trace.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from dataclasses import dataclass

from repro.isa.program import Program

#: ``(field, typecode)`` of every trace column, in digest order.  A ``*_has``
#: column is 1 where its value column holds a value and 0 where the
#: instruction has none (the value column then holds 0).
COLUMNS = (
    ("index", "q"),            # static instruction index (program order)
    ("pc", "Q"),               # virtual address of the instruction
    ("result", "Q"),           # value written to the destination register
    ("result_has", "q"),
    ("eff_addr", "Q"),         # effective address of a load/store, else 0
    ("store_value", "Q"),      # value a store writes to memory
    ("store_value_has", "q"),
    ("rs1_value", "Q"),        # architectural value of rs1 (0 if unread)
    ("taken", "q"),            # control direction: 1/0, -1 for non-control
    ("target_pc", "Q"),        # taken-path target of a control instruction
    ("target_has", "q"),
)


class Trace:
    """The dynamic instruction trace of one program run, as typed columns.

    Row ``seq`` (0-based, retirement order) describes the ``seq``-th
    retired instruction; its static instruction is
    ``program.instructions[trace.index[seq]]``.  Each field of
    :data:`COLUMNS` is an attribute holding one :class:`array.array`.

    Attributes:
        store_pages: Every 4 KiB page number a store in the trace writes,
            both pages of a store that straddles a page boundary.
    """

    __slots__ = tuple(name for name, _ in COLUMNS) + ("store_pages", "_digest")

    def __init__(self):
        """An empty trace: every column an empty array of its typecode."""
        for name, typecode in COLUMNS:
            setattr(self, name, array(typecode))
        self.store_pages: frozenset[int] = frozenset()
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self.index)

    def digest(self) -> str:
        """SHA-256 over every column's bytes (computed once, then kept).

        Two traces with equal digests drive a pipeline identically; a
        snapshot records it so a restore into a pipeline built on another
        trace is refused.
        """
        if self._digest is None:
            hasher = hashlib.sha256()
            for name, _ in COLUMNS:
                hasher.update(getattr(self, name))
            self._digest = hasher.hexdigest()
        return self._digest


@dataclass
class InstructionMix:
    """Dynamic instruction mix of a trace, as fractions of all instructions.

    The paper highlights the move fraction (~4 %) and the register-immediate
    addition fraction (12 % SPECint / 16-17 % MediaBench) as the raw material
    for RENO_ME and RENO_CF.
    """

    total: int = 0
    moves: int = 0
    reg_imm_adds: int = 0
    other_alu: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    calls_returns: int = 0
    other: int = 0

    def fraction(self, count: int) -> float:
        return count / self.total if self.total else 0.0

    @property
    def move_fraction(self) -> float:
        return self.fraction(self.moves)

    @property
    def reg_imm_add_fraction(self) -> float:
        return self.fraction(self.reg_imm_adds)

    @property
    def load_fraction(self) -> float:
        return self.fraction(self.loads)

    @property
    def store_fraction(self) -> float:
        return self.fraction(self.stores)

    @property
    def branch_fraction(self) -> float:
        return self.fraction(self.branches)


def mix_statistics(trace: Trace, program: Program) -> InstructionMix:
    """Compute the dynamic instruction mix of ``trace`` (a run of ``program``).

    Moves and non-move register-immediate additions are counted separately
    (``mov`` is technically a register-immediate addition of zero, but the
    paper reports them as distinct categories).
    """
    mix = InstructionMix(total=len(trace))
    instructions = program.instructions
    for index, count in Counter(trace.index).items():
        spec = instructions[index].spec
        if spec.is_move:
            mix.moves += count
        elif spec.is_reg_imm_add:
            mix.reg_imm_adds += count
        elif spec.is_load:
            mix.loads += count
        elif spec.is_store:
            mix.stores += count
        elif spec.is_cond_branch:
            mix.branches += count
        elif spec.is_call or spec.is_return:
            mix.calls_returns += count
        elif spec.op_class.value in ("alu", "shift", "mul", "div"):
            mix.other_alu += count
        else:
            mix.other += count
    return mix
