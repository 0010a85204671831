"""Branch prediction: hybrid direction predictor, BTB and return address stack.

The paper's front end uses a 16 Kbit hybrid predictor, a 2K-entry 4-way BTB
and a 32-entry RAS, and can fetch past one taken branch per cycle.  The
predictor here follows the classic bimodal + gshare + chooser organisation
with the storage budget split three ways.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.isa.opcodes import OpClass, Opcode, spec_for
from repro.uarch.config import MachineConfig


class SaturatingCounterTable:
    """A table of 2-bit saturating counters indexed by a hashed key (an
    ``array('q')``: the kernel's ``BP_*`` layout, marshalled by memcpy)."""

    def __init__(self, entries: int, initial: int = 1):
        if entries & (entries - 1):
            raise ValueError("counter table size must be a power of two")
        self._mask = entries - 1
        self._counters = array("q", [initial]) * entries

    def predict(self, index: int) -> bool:
        """Predicted direction for ``index`` (counter in the taken half)."""
        return self._counters[index & self._mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        """Saturate the counter toward the actual ``taken`` outcome."""
        slot = index & self._mask
        value = self._counters[slot]
        if taken:
            self._counters[slot] = min(3, value + 1)
        else:
            self._counters[slot] = max(0, value - 1)


class HybridPredictor:
    """Bimodal + gshare with a chooser, McFarling style."""

    def __init__(self, budget_bits: int):
        # Three equal tables of 2-bit counters.
        entries = max(256, (budget_bits // 2) // 3)
        entries = 1 << (entries.bit_length() - 1)
        self.bimodal = SaturatingCounterTable(entries)
        self.gshare = SaturatingCounterTable(entries)
        self.chooser = SaturatingCounterTable(entries, initial=2)
        self.history = 0
        self._history_mask = entries - 1

    def predict(self, pc: int) -> bool:
        """Chooser-selected direction prediction for the branch at ``pc``."""
        base = (pc >> 2) & self._history_mask
        if self.chooser.predict(base):
            return self.gshare.predict(base ^ (self.history & self._history_mask))
        return self.bimodal.predict(base)

    def update(self, pc: int, taken: bool) -> None:
        """Train both components, the chooser, and the global history."""
        self.predict_and_update(pc, taken)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """One-pass predict + train (same state changes as predict();
        update() back to back, with the shared index/counter work done once
        and the saturating-counter updates applied in place).
        """
        history = self.history
        base = (pc >> 2) & self._history_mask
        gshare_index = base ^ (history & self._history_mask)
        bimodal_counters = self.bimodal._counters
        bimodal_slot = base & self.bimodal._mask
        gshare_counters = self.gshare._counters
        gshare_slot = gshare_index & self.gshare._mask
        chooser_counters = self.chooser._counters
        chooser_slot = base & self.chooser._mask
        bimodal_value = bimodal_counters[bimodal_slot]
        gshare_value = gshare_counters[gshare_slot]
        bimodal_taken = bimodal_value >= 2
        gshare_taken = gshare_value >= 2
        predicted = (gshare_taken if chooser_counters[chooser_slot] >= 2
                     else bimodal_taken)
        gshare_correct = gshare_taken == taken
        if (bimodal_taken == taken) != gshare_correct:
            chooser_value = chooser_counters[chooser_slot]
            if gshare_correct:
                if chooser_value < 3:
                    chooser_counters[chooser_slot] = chooser_value + 1
            elif chooser_value > 0:
                chooser_counters[chooser_slot] = chooser_value - 1
        if taken:
            if bimodal_value < 3:
                bimodal_counters[bimodal_slot] = bimodal_value + 1
            if gshare_value < 3:
                gshare_counters[gshare_slot] = gshare_value + 1
            self.history = ((history << 1) | 1) & 0xFFFF
        else:
            if bimodal_value > 0:
                bimodal_counters[bimodal_slot] = bimodal_value - 1
            if gshare_value > 0:
                gshare_counters[gshare_slot] = gshare_value - 1
            self.history = (history << 1) & 0xFFFF
        return predicted


class BranchTargetBuffer:
    """Set-associative BTB mapping branch PCs to predicted targets.

    ``tags``, ``targets`` and ``target_has`` (0 for a ``None`` target) hold
    ``associativity`` slots per set, most recently used first, and
    ``lengths`` the live ways per set: the kernel's ``BTB_*`` layout,
    marshalled by memcpy.  :meth:`predict` and :meth:`update` leave every
    slot as the two halves of the kernel's ``btb_check_target`` do, so even
    dead slots past a set's length match byte for byte across backends.
    """

    def __init__(self, entries: int, associativity: int):
        self.num_sets = max(1, entries // associativity)
        self.associativity = associativity
        ways = self.num_sets * associativity
        self.tags = array("Q", bytes(8 * ways))
        self.targets = array("Q", bytes(8 * ways))
        self.target_has = array("q", bytes(8 * ways))
        self.lengths = array("q", bytes(8 * self.num_sets))

    def predict(self, pc: int) -> int | None:
        """Predicted target for ``pc`` (None on a BTB miss); updates LRU."""
        set_index = (pc >> 2) % self.num_sets
        base = set_index * self.associativity
        ways = self.tags[base:base + self.lengths[set_index]]
        if pc not in ways:
            return None
        way = base + ways.index(pc)
        if way != base:
            for column in (self.tags, self.targets, self.target_has):
                entry = column[way]
                column[base + 1:way + 1] = column[base:way]
                column[base] = entry
        return self.targets[base] if self.target_has[base] else None

    def update(self, pc: int, target: int | None) -> None:
        """Install/refresh the mapping ``pc -> target`` (LRU replacement; a
        rotation to MRU leaves the bytes of the kernel's drop-then-insert)."""
        set_index = (pc >> 2) % self.num_sets
        base = set_index * self.associativity
        length = self.lengths[set_index]
        ways = self.tags[base:base + length]
        if pc in ways:
            shift = ways.index(pc)
        else:
            shift = min(length, self.associativity - 1)
            self.lengths[set_index] = shift + 1
        if shift:
            for column in (self.tags, self.targets, self.target_has):
                column[base + 1:base + shift + 1] = column[base:base + shift]
        self.tags[base] = pc
        self.targets[base] = 0 if target is None else target
        self.target_has[base] = 0 if target is None else 1


class ReturnAddressStack:
    """Bounded return address stack."""

    def __init__(self, entries: int):
        self.entries = entries
        self._stack: list[int] = []

    def push(self, address: int) -> None:
        """Push a return address (oldest entry falls off when full)."""
        self._stack.append(address)
        if len(self._stack) > self.entries:
            self._stack.pop(0)

    def pop(self) -> int | None:
        """Pop the predicted return address (None when empty)."""
        if self._stack:
            return self._stack.pop()
        return None


@dataclass(slots=True)
class BranchOutcome:
    """Result of processing one control instruction at fetch."""

    mispredicted: bool
    reason: str = ""


#: Shared outcome instances — ``process`` runs once per fetched control
#: instruction and its result is read-only, so the four possible outcomes
#: are preallocated instead of constructed per call.
_OK = BranchOutcome(False)
_DIRECTION = BranchOutcome(True, "direction")
_BTB = BranchOutcome(True, "btb")
_RAS = BranchOutcome(True, "ras")


class BranchUnit:
    """Front-end branch handling for the trace-driven pipeline.

    ``process`` is called for every fetched control-flow instruction with its
    actual outcome (from the trace); it returns whether the front end would
    have mispredicted, and trains all predictor state.
    """

    def __init__(self, config: MachineConfig):
        self.direction = HybridPredictor(config.branch_predictor_bits)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_associativity)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.conditional_branches = 0
        self.mispredictions = 0
        self.btb_misses = 0
        self.ras_mispredictions = 0

    def process(self, opcode: Opcode, pc: int, taken: bool, target_pc: int) -> BranchOutcome:
        """Predict + train on one fetched control instruction's outcome.

        ``taken`` and ``target_pc`` are the instruction's architectural
        direction and taken-path target (trace columns ``taken`` and
        ``target_pc``).  Returns one of four shared, read-only
        :class:`BranchOutcome` instances (never mutate the result).
        """
        op_class = spec_for(opcode).op_class
        outcome = _OK

        if op_class is OpClass.BRANCH:
            self.conditional_branches += 1
            predicted_taken = self.direction.predict_and_update(pc, taken)
            if predicted_taken != taken:
                self.mispredictions += 1
                outcome = _DIRECTION
            elif taken:
                outcome = self._check_target(pc, target_pc)
        elif op_class is OpClass.JUMP:
            outcome = self._check_target(pc, target_pc)
        elif op_class is OpClass.CALL:
            outcome = self._check_target(pc, target_pc)
            self.ras.push(pc + 4)
        elif op_class is OpClass.RET:
            predicted = self.ras.pop()
            if predicted != target_pc:
                self.ras_mispredictions += 1
                outcome = _RAS
        return outcome

    def _check_target(self, pc: int, target_pc: int) -> BranchOutcome:
        predicted_target = self.btb.predict(pc)
        self.btb.update(pc, target_pc)
        if predicted_target != target_pc:
            self.btb_misses += 1
            return _BTB
        return _OK
