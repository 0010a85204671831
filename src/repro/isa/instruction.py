"""Static instruction representation and the decoded-op cache for AXP-lite."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass, Opcode, OpSpec, spec_for
from repro.isa.registers import ZERO_REG, reg_name


@dataclass(frozen=True, slots=True)
class Instruction:
    """One static AXP-lite instruction.

    Operand fields that an opcode does not use are left at their defaults;
    :class:`~repro.isa.opcodes.OpSpec` describes which fields are meaningful
    for a given opcode.

    Attributes:
        opcode: The operation.
        rd: Destination logical register (or None).
        rs1: First source logical register (base register for memory ops,
            tested register for branches, target register for ``ret``).
        rs2: Second source logical register (store data register).
        imm: Immediate / displacement value (signed Python int).
        target: Branch/call target; a label string before assembly and an
            instruction index (int) after label resolution.
        comment: Optional free-form annotation carried through for debugging.
    """

    opcode: Opcode
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int = 0
    target: int | str | None = None
    comment: str = ""

    # Derived fields, precomputed once so the simulators' hot paths read
    # plain attributes instead of calling properties (not part of
    # equality/hash).
    #: Static metadata for this instruction's opcode.
    spec: OpSpec = field(init=False, repr=False, compare=False, default=None)
    #: Logical register written (None for stores/branches/zero-reg writes).
    dest_register: int | None = field(init=False, repr=False, compare=False, default=None)
    #: The signed displacement this instruction adds to its source register.
    #: Only meaningful for register-immediate additions: ``mov`` contributes
    #: 0, ``addi`` contributes ``imm``, ``subi`` contributes ``-imm`` and
    #: ``ldah`` contributes ``imm << 16``.
    folded_displacement: int = field(init=False, repr=False, compare=False, default=0)
    _sources: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        spec = spec_for(self.opcode)
        object.__setattr__(self, "spec", spec)
        # Writes to the hardwired zero register are treated as no
        # destination, which matches how renaming handles them (no mapping
        # update).
        dest = self.rd if spec.writes_rd and self.rd not in (None, ZERO_REG) else None
        object.__setattr__(self, "dest_register", dest)
        if self.opcode is Opcode.MOV:
            folded = 0
        elif self.opcode is Opcode.SUBI:
            folded = -self.imm
        else:
            folded = self.imm << spec.fold_shift
        object.__setattr__(self, "folded_displacement", folded)
        sources = []
        if spec.reads_rs1 and self.rs1 is not None:
            sources.append(self.rs1)
        if spec.reads_rs2 and self.rs2 is not None:
            sources.append(self.rs2)
        object.__setattr__(self, "_sources", tuple(sources))

    # -- operand helpers --------------------------------------------------

    def source_registers(self) -> tuple[int, ...]:
        """Logical registers read by this instruction (zero register included)."""
        return self._sources

    # -- classification shortcuts used throughout the pipeline ------------

    @property
    def is_load(self) -> bool:
        return self.spec.is_load

    @property
    def is_store(self) -> bool:
        return self.spec.is_store

    @property
    def is_mem(self) -> bool:
        return self.spec.is_mem

    @property
    def is_cond_branch(self) -> bool:
        return self.spec.is_cond_branch

    @property
    def is_control(self) -> bool:
        return self.spec.is_control

    @property
    def is_call(self) -> bool:
        return self.spec.is_call

    @property
    def is_return(self) -> bool:
        return self.spec.is_return

    @property
    def is_move(self) -> bool:
        return self.spec.is_move

    @property
    def is_reg_imm_add(self) -> bool:
        """True if this is a register-immediate addition in the RENO_CF sense."""
        return self.spec.is_reg_imm_add

    # -- pretty printing ---------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        spec = self.spec
        name = self.opcode.value
        if spec.fmt == "rr":
            return f"{name} {reg_name(self.rd)}, {reg_name(self.rs1)}, {reg_name(self.rs2)}"
        if spec.fmt == "ri":
            return f"{name} {reg_name(self.rd)}, {reg_name(self.rs1)}, {self.imm}"
        if spec.fmt == "mov":
            return f"{name} {reg_name(self.rd)}, {reg_name(self.rs1)}"
        if spec.fmt == "load":
            return f"{name} {reg_name(self.rd)}, {self.imm}({reg_name(self.rs1)})"
        if spec.fmt == "store":
            return f"{name} {reg_name(self.rs2)}, {self.imm}({reg_name(self.rs1)})"
        if spec.fmt == "br":
            return f"{name} {reg_name(self.rs1)}, {self.target}"
        if spec.fmt == "jmp":
            return f"{name} {self.target}"
        if spec.fmt == "call":
            return f"{name} {reg_name(self.rd)}, {self.target}"
        if spec.fmt == "ret":
            return f"{name} ({reg_name(self.rs1)})"
        return name


# ---------------------------------------------------------------------------
# Decoded-op cache
# ---------------------------------------------------------------------------
#
# The timing pipeline's hot loops (dispatch / execute / commit) used to chase
# ``dyn.instruction.spec.<flag>`` attribute chains for every dynamic
# instruction.  The decoded-op cache collapses everything those loops need
# into one immutable tuple per *static* instruction, so re-executed loop
# bodies index a flat tuple instead of touching ``Instruction``/``OpSpec``
# objects at all.

#: Issue-port class ids shared by the decoded-op cache and the scheduler
#: (index into :data:`repro.uarch.scheduler.PORT_CLASSES`).
CLASS_INT = 0
CLASS_LOAD = 1
CLASS_STORE = 2
CLASS_FP = 3

#: Flag bits of ``DecodedOp[0]`` (see :func:`decode_op`).
DF_LOAD = 1 << 0          #: reads memory
DF_STORE = 1 << 1         #: writes memory
DF_COND_BRANCH = 1 << 2   #: conditional branch (direction check at execute)
DF_CONTROL = 1 << 3       #: any control transfer (branch/jump/call/return)
DF_CALL = 1 << 4          #: writes the link value instead of an ALU result
DF_WRITES = 1 << 5        #: has a renamed destination register
DF_NO_EXECUTE = 1 << 6    #: never enters the issue queue (``nop``/``halt``)
DF_MEM_SIGNED = 1 << 7    #: load result is sign-extended
DF_MOVE = 1 << 8          #: register-move pseudo-op (RENO_ME target)
DF_REG_IMM_ADD = 1 << 9   #: register-immediate addition (RENO_CF foldable)
DF_IT_ALU = 1 << 10       #: ALU/shift class (IT-eligible under the full policy)

#: Decoded-tuple field indices (``op[D_FLAGS]`` style access in hot loops).
D_FLAGS = 0
D_CLASS = 1
D_LATENCY = 2
D_MEM_BYTES = 3
D_DEST = 4
D_IMM = 5
D_OPCODE = 6
D_FOLDED_DISP = 7
D_MEM_MASK = 8
D_SOURCES = 9

#: Process-wide memo: one decoded tuple per distinct static instruction.
#: :class:`Instruction` is frozen/hashable on its declarative fields, so two
#: structurally identical instructions (e.g. the same loop body assembled for
#: two workload scales) share one entry.
_DECODED_OPS: dict[Instruction, tuple] = {}


def decode_op(instruction: Instruction) -> tuple:
    """Decode a static instruction into its hot-path tuple (memoised).

    The layout (all plain ints except the opcode member) is::

        (flags, class_id, latency, mem_bytes, dest_reg, imm, opcode, folded,
         mem_mask, sources)

    * ``flags`` — the ``DF_*`` classification bits above;
    * ``class_id`` — issue-port class (``CLASS_INT``/``CLASS_LOAD``/...);
    * ``latency`` — base execution latency in cycles;
    * ``mem_bytes`` — access size for loads/stores, else 0;
    * ``dest_reg`` — destination logical register, or ``-1`` for none;
    * ``imm`` — the immediate / displacement operand;
    * ``opcode`` — the :class:`~repro.isa.opcodes.Opcode` member (for
      ``alu_eval``/``branch_taken`` and report labels);
    * ``folded`` — the RENO_CF folded displacement
      (:attr:`Instruction.folded_displacement`);
    * ``mem_mask`` — ``(1 << (8 * mem_bytes)) - 1``, the store-data mask
      (0 for non-memory instructions);
    * ``sources`` — the logical source registers
      (:meth:`Instruction.source_registers`), for renamers that map
      operands without touching the ``Instruction`` object.

    Decoding happens once per distinct static instruction; every later call
    is a dict hit, which is what makes re-executed loop bodies free of
    ``Instruction`` attribute traffic in the cycle loop.
    """
    op = _DECODED_OPS.get(instruction)
    if op is not None:
        return op
    spec = instruction.spec
    flags = 0
    if spec.is_load:
        flags |= DF_LOAD
    if spec.is_store:
        flags |= DF_STORE
    if spec.is_cond_branch:
        flags |= DF_COND_BRANCH
    if spec.is_control:
        flags |= DF_CONTROL
    if spec.is_call:
        flags |= DF_CALL
    if instruction.dest_register is not None:
        flags |= DF_WRITES
    if spec.op_class is OpClass.NOP or spec.op_class is OpClass.HALT:
        flags |= DF_NO_EXECUTE
    if spec.mem_signed:
        flags |= DF_MEM_SIGNED
    if spec.is_move:
        flags |= DF_MOVE
    if spec.is_reg_imm_add:
        flags |= DF_REG_IMM_ADD
    if spec.op_class is OpClass.ALU or spec.op_class is OpClass.SHIFT:
        flags |= DF_IT_ALU
    if spec.is_load:
        class_id = CLASS_LOAD
    elif spec.is_store:
        class_id = CLASS_STORE
    else:
        class_id = CLASS_INT
    dest = instruction.dest_register
    op = (
        flags,
        class_id,
        spec.latency,
        spec.mem_bytes,
        -1 if dest is None else dest,
        instruction.imm,
        instruction.opcode,
        instruction.folded_displacement,
        (1 << (8 * spec.mem_bytes)) - 1 if spec.mem_bytes else 0,
        instruction._sources,
    )
    _DECODED_OPS[instruction] = op
    return op


def decode_program(instructions: list[Instruction]) -> list[tuple]:
    """Decoded-op cache for a whole program, indexed by static index.

    The static index is the PC key in disguise: instruction *i* lives at
    ``pc = CODE_BASE + 4 * i``, and the ``index`` column of every
    :class:`~repro.functional.trace.Trace` row carries it, so the pipeline
    reaches the decoded tuple with one list subscript.
    """
    return [decode_op(instruction) for instruction in instructions]
