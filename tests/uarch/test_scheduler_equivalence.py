"""Property-based equivalence tests: SoA core vs the object-model scheduler.

The issue queue used to select instructions with a full per-cycle scan of an
object-based window, re-checking every resident instruction's operands
against the physical register file.  That algorithm survives here as
:func:`reference_select` / :class:`ReferenceIssueQueue` — an **object-model**
reference (one ``_RefInst`` record per resident instruction, full rescan
every cycle, wakeup events ignored) that drives the exact same
structure-of-arrays pipeline.  Seeded random programs (straight-line and
branchy, with loads, stores and every elimination idiom) are run through
both schedulers under several machine and RENO configurations, asserting:

* identical per-cycle issue sets (every instruction issues on the same cycle
  with both schedulers), and
* identical final statistics (cycles, stalls, violations, eliminations...).

Seeds come from ``random.Random``, so every case is reproducible without a
hypothesis dependency.
"""

import random
from dataclasses import fields

import pytest

from repro.core import RenoConfig, RenoRenamer
from repro.functional.simulator import FunctionalSimulator
from repro.isa.assembler import Assembler
from repro.isa.instruction import CLASS_LOAD
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.scheduler import IssueQueue

#: Registers the generator may use (avoids sp/gp/zero and the base pointer).
USABLE_REGS = list(range(0, 24))
BASE_REG = 26

SEEDS = [3, 17, 59, 257, 977]

CONFIGS = {
    "BASE": None,
    "RENO": RenoConfig.reno_default(),
    "CF+ME": RenoConfig.reno_cf_me(),
}

MACHINES = {
    "4wide": MachineConfig.default_4wide(),
    "6wide": MachineConfig.default_6wide(),
    "sched2": MachineConfig.default_4wide().with_scheduler_latency(2),
}


# ---------------------------------------------------------------------------
# Reference scheduler: the pre-rewrite per-cycle full scan over objects
# ---------------------------------------------------------------------------


class _RefInst:
    """One resident instruction in the object-model reference window."""

    __slots__ = ("seq", "sources", "class_id", "dispatch_cycle")

    def __init__(self, seq, sources, class_id, dispatch_cycle):
        self.seq = seq
        self.sources = list(sources)
        self.class_id = class_id
        self.dispatch_cycle = dispatch_cycle


def reference_select(entries, config, ready_cycles, cycle, ready_fn):
    """The original full-scan wakeup/select algorithm over object records.

    Walks the whole window oldest-first every cycle, re-checking each
    instruction's operand readiness against the register file, subject to
    per-class and total issue limits.  Returns (selected, kept_entries).
    """
    limits = [config.int_issue, config.load_issue,
              config.store_issue, config.fp_issue]
    remaining_total = config.total_issue
    selected = []
    kept = []
    index = 0
    count = len(entries)
    while index < count and remaining_total:
        inst = entries[index]
        index += 1
        operands_ready = all(
            ready_cycles[source.preg] <= cycle for source in inst.sources
        )
        if (limits[inst.class_id] == 0
                or inst.dispatch_cycle >= cycle      # earliest issue is next cycle
                or not operands_ready
                or (inst.class_id == CLASS_LOAD
                    and ready_fn is not None and not ready_fn(inst.seq, cycle))):
            kept.append(inst)
            continue
        limits[inst.class_id] -= 1
        remaining_total -= 1
        selected.append(inst)
    kept.extend(entries[index:])
    return selected, kept


class ReferenceIssueQueue(IssueQueue):
    """Drop-in IssueQueue implementing the old full-scan object model.

    Keeps a plain window list of ``_RefInst`` records and re-derives
    readiness from the register file every cycle; wakeup events are ignored.
    ``_ready_total`` mirrors the entry count so the pipeline's fast paths
    (select guard and idle fast-forward) treat every occupied cycle as
    potentially selectable, forcing the cycle-by-cycle behaviour of the
    original loop.
    """

    def __init__(self, config, window, prf):
        super().__init__(config, window, prf.ready_cycle)
        self._ref_prf = prf
        self.entries = []

    def add(self, seq, cycle=0, sources=None, class_id=0):
        if len(self.entries) >= self.capacity:
            raise RuntimeError("issue queue overflow (dispatch should have stalled)")
        self.entries.append(_RefInst(seq, sources or (), class_id, cycle))
        self._count = len(self.entries)
        self._ready_total = self._count  # force select every occupied cycle

    def wakeup(self, preg, ready_cycle):  # wakeups don't exist in this model
        pass

    def select(self, cycle, ready_fn=None):
        selected, kept = reference_select(
            self.entries, self.config, self._ref_prf.ready_cycle, cycle, ready_fn)
        self.entries = kept
        self._count = len(kept)
        self._ready_total = self._count
        return [inst.seq for inst in selected]


# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------


def random_program(seed: int, length: int = 240) -> Assembler:
    """A random kernel with ALU ops, moves, folds, loads, stores and loops."""
    rng = random.Random(seed)
    asm = Assembler(f"sched_equiv_{seed}")
    asm.word_array("data", [rng.randrange(0, 1 << 16) for _ in range(32)])
    asm.la(BASE_REG, "data")
    for reg in USABLE_REGS[:8]:
        asm.li(reg, rng.randrange(0, 1 << 12))
    # A short counted loop wrapped around a random body exercises branches,
    # the front-end stall machinery and repeated wakeups on the same pregs.
    asm.li(25, rng.randrange(2, 5))
    asm.label("loop")
    for _ in range(length):
        choice = rng.random()
        rd = rng.choice(USABLE_REGS)
        rs = rng.choice(USABLE_REGS)
        if choice < 0.18:
            asm.mov(rd, rs)
        elif choice < 0.40:
            asm.addi(rd, rs, rng.randrange(0, 256))
        elif choice < 0.50:
            asm.subi(rd, rs, rng.randrange(0, 256))
        elif choice < 0.62:
            asm.add(rd, rs, rng.choice(USABLE_REGS))
        elif choice < 0.70:
            asm.mul(rd, rs, rng.choice(USABLE_REGS))
        elif choice < 0.85:
            asm.ld(rd, 8 * rng.randrange(0, 32), BASE_REG)
        else:
            asm.st(rs, 8 * rng.randrange(0, 32), BASE_REG)
    asm.subi(25, 25, 1)
    asm.bne(25, "loop")
    asm.halt()
    return asm


def run_pipeline(program, trace, machine, reno, reference: bool):
    renamer = RenoRenamer(machine.num_physical_regs, reno) if reno is not None else None
    pipeline = Pipeline(program, trace, machine, renamer=renamer, collect_timing=True)
    if reference:
        queue = ReferenceIssueQueue(machine, pipeline.window, pipeline.prf)
        pipeline.issue_queue = queue
        # Rebind the producer-side aliases captured at construction time.
        pipeline._iq_waiters = queue._waiters
        pipeline._iq_wakeup = queue.wakeup
    return pipeline.run()


def issue_schedule(result):
    """{seq: issue cycle} for every instruction that executed."""
    return dict(enumerate(result.timing_records.issue))


def stats_dict(result):
    return {f.name: getattr(result.stats, f.name) for f in fields(result.stats)}


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_event_driven_matches_full_scan(seed, config_name):
    program = random_program(seed).assemble()
    trace = FunctionalSimulator(program).run().trace
    machine = MachineConfig.default_4wide()

    reference = run_pipeline(program, trace, machine, CONFIGS[config_name], reference=True)
    event = run_pipeline(program, trace, machine, CONFIGS[config_name], reference=False)

    assert issue_schedule(event) == issue_schedule(reference), (
        f"per-cycle issue sets diverged (seed={seed}, config={config_name})"
    )
    assert stats_dict(event) == stats_dict(reference)
    assert event.final_registers == reference.final_registers


@pytest.mark.parametrize("machine_name", list(MACHINES))
def test_event_driven_matches_full_scan_across_machines(machine_name):
    program = random_program(4242).assemble()
    trace = FunctionalSimulator(program).run().trace
    machine = MACHINES[machine_name]

    reference = run_pipeline(program, trace, machine, RenoConfig.reno_default(), reference=True)
    event = run_pipeline(program, trace, machine, RenoConfig.reno_default(), reference=False)

    assert issue_schedule(event) == issue_schedule(reference)
    assert stats_dict(event) == stats_dict(reference)


def test_reference_queue_actually_diverges_when_abused():
    """Sanity check that the comparison has teeth: forcing the event-driven
    queue to skip wakeups would hang, so instead check the reference model
    issues nothing while operands are pending."""
    program = random_program(7, length=40).assemble()
    trace = FunctionalSimulator(program).run().trace
    machine = MachineConfig.default_4wide()
    result = run_pipeline(program, trace, machine, None, reference=True)
    schedule = issue_schedule(result)
    assert schedule, "expected executed instructions"
    # No instruction can issue on its dispatch cycle.
    dispatch = result.timing_records.dispatch
    assert all(schedule[seq] > dispatch[seq] for seq in schedule
               if schedule[seq] >= 0)


# ---------------------------------------------------------------------------
# Backend-vs-backend: the compiled kernel joins the equivalence panel
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not __import__("repro.uarch.backend", fromlist=["get_backend"])
        .get_backend("compiled").available(),
    reason="no C toolchain on this runner")
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("machine_name", list(MACHINES))
def test_compiled_backend_matches_the_event_driven_loop(machine_name,
                                                        config_name):
    """Three-way closure: the object-model reference pins the event-driven
    python loop (tests above), and the compiled kernel must match that loop
    on statistics and final architectural state — so all three agree.
    (Timing columns get their own backend parity tests in
    ``tests/uarch/test_backends.py``.)"""
    program = random_program(31415).assemble()
    trace = FunctionalSimulator(program).run().trace
    machine = MACHINES[machine_name]
    reno = CONFIGS[config_name]

    def run(backend):
        renamer = RenoRenamer(machine.num_physical_regs, reno) \
            if reno is not None else None
        pipeline = Pipeline(program, trace, machine, renamer=renamer,
                            backend=backend)
        assert pipeline.backend_name == backend
        return pipeline.run()

    compiled = run("compiled")
    python = run("python")
    assert stats_dict(compiled) == stats_dict(python)
    assert compiled.final_registers == python.final_registers
