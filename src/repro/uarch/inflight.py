"""In-flight instruction state: the structure-of-arrays window.

The pipeline used to materialise one ``InFlightInst`` dataclass per dynamic
instruction and chase its attributes from every phase.  The in-flight window
is now a **structure of arrays**: one preallocated parallel array per field,
indexed by ROB slot, so the hot loops (wakeup, select, execute, commit) read
and write plain list cells instead of allocating and walking object graphs.

Slot discipline (the invariants the pipeline and scheduler rely on):

* Every dynamic instruction occupies exactly one ROB entry, entries are
  allocated in program order and retire in program order, so the slot of
  sequence number ``seq`` is simply ``seq & mask`` (arrays are sized to the
  next power of two above the ROB capacity).  Occupancy never exceeds the
  ROB capacity, so two live instructions can never share a slot.
* Lifecycle is encoded in ``complete_cycle`` alone: :data:`NO_COMPLETE`
  (a sentinel beyond any simulated cycle) means the slot is empty **or**
  its instruction has not finished executing; a real cycle number means the
  instruction completed then.  The commit guard ``complete_cycle[slot] <
  cycle`` therefore covers "ROB empty", "head still waiting" and "head not
  yet due" in one comparison.
* A slot is *owned* from dispatch to retirement.  Dispatch initialises the
  fields the instruction's class needs; retirement resets ``complete_cycle``
  to :data:`NO_COMPLETE` and leaves the rest stale.  Stale fields are never
  read: each field is either (re)written at dispatch for every instruction
  that later reads it, or only read on paths gated by flags that imply it
  was written (e.g. ``value`` is only compared at commit for instructions
  with a destination, all of which wrote it at execute).
* This model has no pipeline flush (wrong-path instructions are never
  injected; a misprediction only stalls the front end), so slot reclamation
  happens exclusively through in-order retirement — a flush would be a
  head/tail slot-range reset of ``complete_cycle``, not an object-graph
  teardown.

Per-instruction timing for the critical-path model lives outside the
window, in :class:`TimingColumns`: one typed column per field indexed by
``seq`` (not by slot), so nothing is reset at dispatch and nothing is
copied at retirement.  Both cycle loops (the python reference and the
compiled kernel) write the columns in place: dispatch, registers and
flags at dispatch, issue cycle and d-cache latency at execute, complete
and retire cycles at retirement (when the completion time is final).
"""

from __future__ import annotations

from array import array

#: ``complete_cycle`` sentinel: the slot is empty, or its instruction has
#: not completed execution yet.  Beyond any reachable cycle count.
NO_COMPLETE = 1 << 60


class InFlightWindow:
    """Preallocated parallel arrays for every in-flight instruction field.

    Arrays are plain Python lists sized to the next power of two above the
    ROB capacity; the slot of sequence number ``seq`` is ``seq & mask``.
    All fields are documented on ``__init__``; the slot-reuse rules are in
    the module docstring.
    """

    __slots__ = (
        "capacity",
        "size",
        "mask",
        "dispatch_cycle",
        "complete_cycle",
        "value",
        "eff_addr",
        "replayed",
        "class_id",
        "waiting_ops",
        "rename",
        "decoded",
        "dest_preg",
        "prev_dest",
        "elim_info",
        "fusion_extra",
        "nsrc",
        "src0_preg",
        "src0_disp",
        "src1_preg",
        "src1_disp",
    )

    def __init__(self, capacity: int):
        """Allocate the window for a ROB of ``capacity`` entries.

        Per-slot fields:

        * ``dispatch_cycle`` / ``complete_cycle`` — the cycles the
          scheduler and the commit guard read (fetch == dispatch in this
          front-end model); ``complete_cycle`` doubles as the slot
          lifecycle marker (see :data:`NO_COMPLETE`).
        * ``value`` / ``eff_addr`` / ``replayed`` — execution results and
          memory details.
        * ``class_id`` — issue-port class id (set at issue-queue insertion).
        * ``waiting_ops`` — outstanding-operand count, owned by the issue
          queue's wakeup machinery.
        * ``rename`` — the instruction's ``RenameResult`` (commit needs the
          elimination details and the renamer hand-back); stays None on the
          pipeline's inlined conventional-renaming path.
        * ``decoded`` — the static instruction's decoded-op tuple
          (:func:`repro.isa.instruction.decode_op`).
        * ``dest_preg`` — allocated destination physical register or ``-1``
          (flattened from the rename result so execute never touches it).
        * ``prev_dest`` — the previously mapped destination register freed
          at commit, or ``-1``; lets the pipeline's fast commit paths skip
          the rename-result object entirely.
        * ``elim_info`` — elimination summary for fast commit: 0 when not
          eliminated, else the kind id (1 move / 2 cf / 3 cse / 4 ra) plus
          bit 4 set when the eliminated load must re-execute at retire.
        * ``fusion_extra`` — extra execute latency charged for fused
          operands (RENO_CF).
        * ``nsrc`` / ``src0_preg`` / ``src0_disp`` / ``src1_preg`` /
          ``src1_disp`` — flattened renamed source operands.
        """
        if capacity < 1:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        size = 1
        while size < capacity:
            size <<= 1
        self.capacity = capacity
        self.size = size
        self.mask = size - 1
        self.dispatch_cycle = [0] * size
        self.complete_cycle = [NO_COMPLETE] * size
        self.value = [None] * size
        self.eff_addr = [0] * size
        self.replayed = [False] * size
        self.class_id = [0] * size
        self.waiting_ops = [0] * size
        self.rename = [None] * size
        self.decoded = [None] * size
        self.dest_preg = [-1] * size
        self.prev_dest = [-1] * size
        self.elim_info = [0] * size
        self.fusion_extra = [0] * size
        self.nsrc = [0] * size
        self.src0_preg = [0] * size
        self.src0_disp = [0] * size
        self.src1_preg = [0] * size
        self.src1_disp = [0] * size


#: :attr:`TimingColumns.flags` bits.
TIMING_LOAD = 1
TIMING_ELIMINATED = 2


class TimingColumns:
    """Per-instruction timing for the critical-path model, one column per
    field, indexed by sequence number.

    Allocated once per pipeline that collects timing, sized to the whole
    trace; the python loop and the compiled kernel write the entries in
    place (the kernel through pointers to these very buffers).  Entries of
    instructions that never reach an event keep the column default.

    Columns (``array('q')`` unless noted):

    * ``dispatch`` / ``issue`` / ``complete`` / ``retire`` — the
      instruction's cycles; ``issue`` stays -1 for instructions that never
      issue (eliminated, NOP/HALT).
    * ``dcache_latency`` — the data-cache latency a load was charged.
    * ``flags`` (``array('B')``) — :data:`TIMING_LOAD` and
      :data:`TIMING_ELIMINATED`.
    * ``src0_preg`` / ``src1_preg`` — the renamed source registers;
      ``shared_preg`` — the register an eliminated instruction shares;
      ``alloc_preg`` — the register the instruction allocated (all -1 for
      none).  :func:`repro.analysis.critpath.source_producers` derives each
      instruction's producers from these after the run.

    ``count`` is the number of retired instructions: entries at and past
    it belong to in-flight or not-yet-fetched instructions.  ``len()`` and
    ``==`` cover the retired prefix only.  Entries of instructions not yet
    fetched hold the defaults, so a snapshot carries only the fetched
    :meth:`prefix`, and restore puts the rest back with :meth:`pad`.
    """

    COLUMNS = ("dispatch", "issue", "complete", "retire", "dcache_latency",
               "flags", "src0_preg", "src1_preg", "shared_preg", "alloc_preg")

    __slots__ = ("count",) + COLUMNS

    def __init__(self, length: int):
        """Allocate every column for a ``length``-instruction trace."""
        self.count = 0
        for name in self.COLUMNS:
            initial = -1 if name == "issue" or name.endswith("_preg") else 0
            setattr(self, name, array("B" if name == "flags" else "q", [initial]) * length)

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimingColumns):
            return NotImplemented
        count = self.count
        return count == other.count and all(
            getattr(self, name)[:count] == getattr(other, name)[:count]
            for name in self.COLUMNS)

    def prefix(self, length: int) -> "TimingColumns":
        """A detached copy holding the first ``length`` entries."""
        prefix = TimingColumns.__new__(TimingColumns)
        prefix.count = min(self.count, length)
        for name in self.COLUMNS:
            setattr(prefix, name, getattr(self, name)[:length])
        return prefix

    def pad(self, length: int) -> None:
        """Extend every column with default entries to ``length`` entries."""
        defaults = TimingColumns(length)
        for name in self.COLUMNS:
            column = getattr(self, name)
            column.extend(getattr(defaults, name)[len(column):])
