"""Unit tests for branch prediction structures."""

from repro.isa.opcodes import Opcode
from repro.uarch.branch import (
    BranchTargetBuffer,
    BranchUnit,
    HybridPredictor,
    ReturnAddressStack,
    SaturatingCounterTable,
)
from repro.uarch.config import MachineConfig


def make_branch(pc, taken, target=0x2000, opcode=Opcode.BNE):
    """``BranchUnit.process`` arguments of one conditional branch."""
    return opcode, pc, taken, target


def make_control(opcode, pc, target):
    """``BranchUnit.process`` arguments of one always-taken transfer."""
    return opcode, pc, True, target


def test_saturating_counter_learns():
    table = SaturatingCounterTable(16)
    for _ in range(3):
        table.update(5, True)
    assert table.predict(5)
    for _ in range(4):
        table.update(5, False)
    assert not table.predict(5)


def test_hybrid_predictor_learns_a_bias():
    predictor = HybridPredictor(16 * 1024)
    pc = 0x4000
    for _ in range(20):
        predictor.update(pc, True)
    assert predictor.predict(pc)


def test_hybrid_predictor_learns_alternating_pattern_via_gshare():
    predictor = HybridPredictor(16 * 1024)
    pc = 0x4400
    correct = 0
    total = 200
    outcome = True
    for index in range(total):
        prediction = predictor.predict(pc)
        if prediction == outcome:
            correct += 1
        predictor.update(pc, outcome)
        outcome = not outcome
    # After warm-up the history-based component should track the alternation.
    assert correct > total * 0.6


def test_btb_stores_and_replaces_targets():
    btb = BranchTargetBuffer(entries=8, associativity=2)
    btb.update(0x1000, 0x2000)
    assert btb.predict(0x1000) == 0x2000
    btb.update(0x1000, 0x3000)
    assert btb.predict(0x1000) == 0x3000
    assert btb.predict(0x1234) is None


def test_ras_push_pop_order_and_overflow():
    ras = ReturnAddressStack(2)
    ras.push(0x100)
    ras.push(0x200)
    ras.push(0x300)           # overflows: drops the oldest
    assert ras.pop() == 0x300
    assert ras.pop() == 0x200
    assert ras.pop() is None


def test_branch_unit_counts_mispredictions():
    unit = BranchUnit(MachineConfig.default_4wide())
    pc = 0x1000
    outcomes = []
    for index in range(50):
        outcomes.append(unit.process(*make_branch(pc, taken=True)))
    # Strongly biased branch: eventually predicted correctly.
    assert not outcomes[-1].mispredicted
    assert unit.conditional_branches == 50
    assert unit.mispredictions < 10


def test_branch_unit_call_return_uses_ras():
    unit = BranchUnit(MachineConfig.default_4wide())
    call = make_control(Opcode.JSR, pc=0x1000, target=0x5000)
    unit.process(*call)
    ret = make_control(Opcode.RET, pc=0x5004, target=0x1004)
    outcome = unit.process(*ret)
    assert not outcome.mispredicted
    # A return with an empty / wrong RAS mispredicts.
    bad_ret = make_control(Opcode.RET, pc=0x5004, target=0x9999)
    assert unit.process(*bad_ret).mispredicted


def test_branch_unit_btb_miss_on_first_taken_branch():
    unit = BranchUnit(MachineConfig.default_4wide())
    branch = make_branch(0x1000, taken=True)
    # Teach the direction predictor first so direction is not the issue.
    for index in range(8):
        unit.direction.update(0x1000, True)
    first = unit.process(*branch)
    assert first.mispredicted and first.reason == "btb"
    second = unit.process(*make_branch(0x1000, taken=True))
    assert not second.mispredicted
