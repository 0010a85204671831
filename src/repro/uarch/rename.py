"""Register renaming: shared data structures and the conventional renamer.

The conventional (RENO-less) renamer is a MIPS R10000-style map table plus an
explicit free list.  :class:`repro.core.renamer.RenoRenamer` implements the
same :class:`Renamer` interface, adding physical-register sharing, extended
``[p:d]`` mappings, and the integration table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.functional.trace import Trace
from repro.isa.registers import NUM_LOGICAL_REGS


@dataclass(slots=True)
class SourceOperand:
    """A renamed source operand: a physical register plus a displacement.

    In the conventional pipeline the displacement is always zero.  Under
    RENO_CF the map table attaches a displacement, and the consumer's
    functional unit adds it (operation fusion).

    Source operands are immutable in practice and freely shared between
    rename results (the RENO renamer reuses its map-table ``Mapping``
    objects directly — anything with ``preg``/``disp`` attributes
    qualifies); never mutate one in place.
    """

    preg: int
    disp: int = 0


@dataclass(slots=True)
class RenameResult:
    """Everything the pipeline needs to know about one renamed instruction.

    Attributes:
        sources: Renamed source operands (order follows the instruction's
            ``rs1``/``rs2`` fields).
        dest_preg: Physical register the destination maps to (None when the
            instruction has no destination).  For eliminated instructions this
            is a *shared* register, not a new allocation.
        dest_disp: Displacement attached to the destination mapping (RENO_CF).
        prev_dest_preg: The physical register previously mapped to the
            destination logical register; released when this instruction
            commits.
        allocated: True if a fresh physical register was allocated.
        eliminated: True if RENO collapsed this instruction out of the
            execution stream (no issue-queue entry, no execution).
        elim_kind: Which optimization collapsed it: ``"move"``, ``"cf"``,
            ``"cse"`` or ``"ra"``.
        needs_reexecution: True for integration-eliminated loads which must
            re-execute through the cache retirement port before retiring.
        fusion_extra_latency: Extra execute cycles charged because a fused
            operand (non-zero displacement) feeds a unit that cannot absorb
            the extra addition for free.
    """

    sources: list[SourceOperand] = field(default_factory=list)
    dest_preg: int | None = None
    dest_disp: int = 0
    prev_dest_preg: int | None = None
    allocated: bool = False
    eliminated: bool = False
    elim_kind: str | None = None
    needs_reexecution: bool = False
    fusion_extra_latency: int = 0


class Renamer:
    """Interface shared by the conventional renamer and the RENO renamer.

    The pipeline renames one group per cycle by calling :meth:`begin_group`,
    then :meth:`rename_next` once per instruction (stopping early on stalls),
    and finally :meth:`end_group`.  Grouping matters because RENO restricts
    which *dependent* instructions may be eliminated in the same cycle.
    """

    def free_register_count(self) -> int:
        """Number of destination registers that can still be allocated."""
        raise NotImplementedError

    def begin_group(self) -> None:
        """Start renaming a new same-cycle group."""

    def rename_next(self, op: tuple, trace: Trace | None, seq: int) -> RenameResult | None:
        """Rename the next instruction of the current group.

        ``op`` is the instruction's decoded-op tuple
        (:func:`repro.isa.instruction.decode_op`) and ``seq`` its row in
        ``trace``; renamers that need architectural
        values (RENO's integration table) read them from the trace columns,
        the conventional renamer needs neither and accepts ``None``.

        Returns None (with no side effects) when no physical register is
        available for the instruction's destination; the pipeline then stalls
        and retries next cycle.
        """
        raise NotImplementedError

    def end_group(self) -> None:
        """Finish the current group."""

    def commit(self, result: RenameResult) -> None:
        """Release the previous mapping of the committed instruction."""
        raise NotImplementedError

    def mapping_snapshot(self) -> list[tuple[int, int]]:
        """Current logical → (physical, displacement) map (for tests/debug)."""
        raise NotImplementedError


class BaselineRenamer(Renamer):
    """Conventional R10000-style renaming: map table + free list, no sharing."""

    def __init__(self, num_physical_regs: int):
        if num_physical_regs <= NUM_LOGICAL_REGS:
            raise ValueError("need more physical than logical registers")
        self.num_physical_regs = num_physical_regs
        self.map_table: list[int] = list(range(NUM_LOGICAL_REGS))
        self.free_list: deque[int] = deque(range(NUM_LOGICAL_REGS, num_physical_regs))
        self.allocations = 0
        # Zero-displacement operands are immutable, so one shared instance
        # per physical register serves every rename (no per-instruction
        # allocation).
        self._operand_cache = [SourceOperand(preg) for preg in range(num_physical_regs)]

    # ------------------------------------------------------------------

    def free_register_count(self) -> int:
        """Registers left on the free list."""
        return len(self.free_list)

    def rename_next(self, op: tuple, trace: Trace | None, seq: int) -> RenameResult | None:
        """Map sources, allocate a fresh destination register (None = stall).

        The pipeline normally inlines this logic over the in-flight window
        arrays (see ``Pipeline._run_cycles``); this method serves unit tests
        and the scheduler-equivalence reference path.  ``trace`` and ``seq``
        are accepted for interface compatibility and unused.
        """
        dest = op[4]                              # decoded dest register (-1 = none)
        if dest >= 0 and not self.free_list:
            return None
        operand_cache = self._operand_cache
        map_table = self.map_table
        sources = [
            operand_cache[map_table[logical]]
            for logical in op[9]                  # decoded source registers
        ]
        result = RenameResult(sources)
        if dest >= 0:
            new_preg = self.free_list.popleft()
            self.allocations += 1
            result.dest_preg = new_preg
            result.prev_dest_preg = self.map_table[dest]
            result.allocated = True
            self.map_table[dest] = new_preg
        return result

    def commit(self, result: RenameResult) -> None:
        """Free the previous mapping of the committed instruction."""
        if result.prev_dest_preg is not None:
            self.free_list.append(result.prev_dest_preg)

    def mapping_snapshot(self) -> list[tuple[int, int]]:
        """Current logical -> (physical, 0) map (displacements are always 0)."""
        return [(preg, 0) for preg in self.map_table]
