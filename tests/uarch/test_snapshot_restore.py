"""Property tests: incremental runs + snapshot/restore are cycle-exact.

The contract under test (the incremental simulation API behind
``repro.api``): slicing a simulation with ``run(max_cycles=k)``, pickling a
``snapshot()`` between slices, restoring it into a *freshly constructed*
pipeline and finishing there must be indistinguishable — stat for stat,
register for register, timing column for timing column — from one
uninterrupted ``run()``.  Seeded random programs (reusing the scheduler
equivalence generator: ALU ops, moves, folds, loads, stores, loops) cover
both the conventional and the RENO renamer, with and without timing
collection, across several slice widths including pathological ones.
"""

import pickle
from dataclasses import fields

import pytest
from test_scheduler_equivalence import random_program

from repro.core import RenoConfig, RenoRenamer
from repro.functional.simulator import FunctionalSimulator
from repro.functional.trace import COLUMNS, Trace
from repro.isa.assembler import Assembler
from repro.isa.registers import RegisterNames as R
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.snapshot import SNAPSHOT_VERSION, PipelineSnapshot, SnapshotError
from repro.workloads.base import get_workload

SEEDS = [11, 101, 3301]

CONFIGS = {
    "BASE": None,
    "RENO": RenoConfig.reno_default(),
}


def build_run(seed):
    program = random_program(seed, length=160).assemble()
    trace = FunctionalSimulator(program).run().trace
    return program, trace


def make_pipeline(program, trace, reno, collect_timing=False,
                  record_stats=False, timeline_stride=0):
    machine = MachineConfig.default_4wide()
    renamer = RenoRenamer(machine.num_physical_regs, reno) if reno is not None else None
    return Pipeline(program, trace, machine, renamer=renamer,
                    collect_timing=collect_timing, record_stats=record_stats,
                    timeline_stride=timeline_stride)


def stats_dict(result):
    return {f.name: getattr(result.stats, f.name) for f in fields(result.stats)}


def assert_results_identical(sliced, reference):
    assert stats_dict(sliced) == stats_dict(reference)
    assert sliced.final_registers == reference.final_registers
    assert sliced.timing_records == reference.timing_records
    assert sliced.timeline == reference.timeline
    assert sliced.finished and reference.finished


def run_sliced_with_handoff(program, trace, reno, slice_cycles,
                            collect_timing=False, record_stats=False,
                            timeline_stride=0):
    """Finish a run in slices, pickling the snapshot and rebuilding the
    pipeline from scratch between every pair of slices."""
    pipeline = make_pipeline(program, trace, reno, collect_timing,
                             record_stats, timeline_stride)
    slices = 0
    while True:
        result = pipeline.run(max_cycles=slice_cycles)
        slices += 1
        if result.finished:
            return result, slices
        snapshot = pickle.loads(pickle.dumps(pipeline.snapshot()))
        fresh = make_pipeline(program, trace, reno, collect_timing,
                              record_stats, timeline_stride)
        fresh.restore(snapshot)
        pipeline = fresh


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sliced_run_matches_uninterrupted(seed, config_name):
    program, trace = build_run(seed)
    reno = CONFIGS[config_name]
    reference = make_pipeline(program, trace, reno).run()
    # Slice widths chosen to cut mid-burst (odd, prime) and almost-whole.
    for slice_cycles in (89 + seed % 7, 1000):
        sliced, slices = run_sliced_with_handoff(program, trace, reno, slice_cycles)
        assert slices > 1 or slice_cycles == 1000
        assert_results_identical(sliced, reference)


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_single_cycle_slices_match(config_name):
    """The pathological width: a snapshot handoff after every few cycles."""
    program, trace = build_run(SEEDS[0])
    reno = CONFIGS[config_name]
    reference = make_pipeline(program, trace, reno).run()
    # Handoff every 23 cycles over a shortened prefix of the run to keep the
    # deepcopy count bounded; exactness over long runs is covered above.
    sliced, slices = run_sliced_with_handoff(program, trace, reno, 23)
    assert slices >= 10
    assert_results_identical(sliced, reference)


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_sliced_run_with_timing_records(config_name):
    program, trace = build_run(SEEDS[0])
    reno = CONFIGS[config_name]
    reference = make_pipeline(program, trace, reno, collect_timing=True).run()
    sliced, _ = run_sliced_with_handoff(program, trace, reno, 131,
                                        collect_timing=True)
    assert_results_identical(sliced, reference)


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sliced_run_with_occupancy_and_timeline(seed, config_name):
    """Slicing with the observability layer on is byte-identical too: the
    occupancy histograms, the serialised occupancy section and the strided
    timeline all survive pickled snapshot handoffs exactly."""
    program, trace = build_run(seed)
    reno = CONFIGS[config_name]
    reference = make_pipeline(program, trace, reno, record_stats=True,
                              timeline_stride=7).run()
    assert reference.stats.occupancy is not None
    assert reference.stats.occupancy.cycles == reference.stats.cycles
    sliced, slices = run_sliced_with_handoff(
        program, trace, reno, 97 + seed % 5,
        record_stats=True, timeline_stride=7)
    assert slices > 1
    assert_results_identical(sliced, reference)
    assert (sliced.stats.occupancy.to_dict()
            == reference.stats.occupancy.to_dict())


def test_restore_rejects_mismatched_observability_modes():
    """A snapshot only restores into a pipeline recording the same things."""
    program, trace = build_run(SEEDS[0])
    pipeline = make_pipeline(program, trace, None, record_stats=True,
                             timeline_stride=4)
    pipeline.run(max_cycles=100)
    snapshot = pickle.loads(pickle.dumps(pipeline.snapshot()))

    plain = make_pipeline(program, trace, None)
    with pytest.raises(SnapshotError, match="record_stats"):
        plain.restore(snapshot)

    other_stride = make_pipeline(program, trace, None, record_stats=True,
                                 timeline_stride=8)
    with pytest.raises(SnapshotError, match="timeline_stride"):
        other_stride.restore(snapshot)

    # And the inverse direction: a stats-off snapshot does not restore
    # into a recording pipeline.
    off = make_pipeline(program, trace, None)
    off.run(max_cycles=100)
    stats_on = make_pipeline(program, trace, None, record_stats=True)
    with pytest.raises(SnapshotError, match="record_stats"):
        stats_on.restore(off.snapshot())


def test_snapshot_is_detached_from_the_live_pipeline():
    program, trace = build_run(SEEDS[1])
    pipeline = make_pipeline(program, trace, CONFIGS["RENO"])
    pipeline.run(max_cycles=150)
    snapshot = pipeline.snapshot()
    reference = make_pipeline(program, trace, CONFIGS["RENO"])
    reference.restore(snapshot)
    # Finishing the original must not corrupt the snapshot: a second
    # restore+finish still matches.
    original = pipeline.run()
    later = make_pipeline(program, trace, CONFIGS["RENO"])
    later.restore(snapshot)
    assert stats_dict(later.run()) == stats_dict(original)
    assert stats_dict(reference.run()) == stats_dict(original)


def test_zero_budget_run_is_a_no_op():
    program, trace = build_run(SEEDS[2])
    pipeline = make_pipeline(program, trace, None)
    result = pipeline.run(max_cycles=0)
    assert not result.finished
    assert result.stats.cycles == 0
    assert result.stats.committed == 0


def test_run_rejects_negative_budget():
    program, trace = build_run(SEEDS[2])
    pipeline = make_pipeline(program, trace, None)
    with pytest.raises(ValueError, match="max_cycles"):
        pipeline.run(max_cycles=-1)


def test_run_after_completion_returns_the_same_result():
    program, trace = build_run(SEEDS[0])
    pipeline = make_pipeline(program, trace, None)
    first = pipeline.run()
    again = pipeline.run(max_cycles=50)
    assert again.finished
    assert stats_dict(again) == stats_dict(first)


def test_restore_rejects_mismatched_inputs():
    program, trace = build_run(SEEDS[0])
    pipeline = make_pipeline(program, trace, None)
    pipeline.run(max_cycles=100)
    snapshot = pipeline.snapshot()

    other_machine = Pipeline(program, trace, MachineConfig.default_6wide())
    with pytest.raises(SnapshotError, match="machine config"):
        other_machine.restore(snapshot)

    prefix = Trace()
    for name, _ in COLUMNS:
        setattr(prefix, name, getattr(trace, name)[:-5])
    truncated = Pipeline(program, prefix, MachineConfig.default_4wide())
    with pytest.raises(SnapshotError, match="trace"):
        truncated.restore(snapshot)

    timing = make_pipeline(program, trace, None, collect_timing=True)
    with pytest.raises(SnapshotError, match="collect_timing"):
        timing.restore(snapshot)


def test_restore_refuses_a_snapshot_of_the_previous_version(tmp_path):
    program, trace = build_run(SEEDS[0])
    pipeline = make_pipeline(program, trace, None, collect_timing=True)
    pipeline.run(max_cycles=100)
    snapshot = pipeline.snapshot()
    snapshot.version = SNAPSHOT_VERSION - 1
    loaded = PipelineSnapshot.load(snapshot.save(tmp_path / "old.ckpt"))
    fresh = make_pipeline(program, trace, None, collect_timing=True)
    with pytest.raises(SnapshotError, match="version"):
        fresh.restore(loaded)


def gzip_like_run():
    program = get_workload("gzip_like").build()
    return program, FunctionalSimulator(program).run().trace


def test_timing_snapshot_carries_only_the_fetched_prefix():
    """Past the fetch cursor every timing column still holds its default,
    so a timing snapshot grows with the fetched prefix, not the trace."""
    program, trace = gzip_like_run()
    sizes = {}
    for collect_timing in (False, True):
        pipeline = make_pipeline(program, trace, CONFIGS["RENO"], collect_timing)
        pipeline.run(max_cycles=2000)
        sizes[collect_timing] = len(pickle.dumps(pipeline.snapshot()))
    fetched = pipeline._fetch_index
    assert 0 < fetched < len(trace) // 2
    entry_bytes = 9 * 8 + 1          # nine int64 columns and one byte column
    assert sizes[True] - sizes[False] <= entry_bytes * fetched + 4096


def test_timing_snapshot_restores_and_finishes_like_one_run():
    program, trace = gzip_like_run()
    reno = CONFIGS["RENO"]
    reference = make_pipeline(program, trace, reno, collect_timing=True).run()
    pipeline = make_pipeline(program, trace, reno, collect_timing=True)
    pipeline.run(max_cycles=2000)
    snapshot = pickle.loads(pickle.dumps(pipeline.snapshot()))
    restored = make_pipeline(program, trace, reno, collect_timing=True)
    restored.restore(snapshot)
    columns = restored.timing_columns
    assert all(len(getattr(columns, name)) == len(trace)
               for name in columns.COLUMNS)
    assert_results_identical(restored.run(), reference)


def addi_loop_run(step):
    """``li v0,0`` then 200 iterations of ``addi v0, v0, step`` (603
    instructions for any step: same length, different results)."""
    asm = Assembler(f"addi_loop_{step}")
    asm.li(R.V0, 0)
    asm.li(R.T0, 200)
    asm.label("loop")
    asm.addi(R.V0, R.V0, step)
    asm.subi(R.T0, R.T0, 1)
    asm.bgt(R.T0, "loop")
    asm.halt()
    program = asm.assemble()
    return program, FunctionalSimulator(program).run().trace


def test_restore_rejects_a_trace_of_equal_length_but_other_content():
    program_1, trace_1 = addi_loop_run(1)
    program_3, trace_3 = addi_loop_run(3)
    assert len(trace_1) == len(trace_3)
    assert trace_1.digest() != trace_3.digest()
    source = make_pipeline(program_1, trace_1, None)
    source.run(max_cycles=250)
    snapshot = source.snapshot()
    assert 0 < snapshot.committed < len(trace_1)
    assert snapshot.trace_digest == trace_1.digest()

    other = make_pipeline(program_3, trace_3, None)
    with pytest.raises(SnapshotError, match="trace"):
        other.restore(snapshot)
    # The same content is accepted, and the digest is kept once computed.
    same = make_pipeline(program_1, trace_1, None)
    same.restore(snapshot)
    assert trace_1.digest() is trace_1.digest()


def test_checkpoint_save_load_roundtrip(tmp_path):
    program, trace = build_run(SEEDS[1])
    pipeline = make_pipeline(program, trace, CONFIGS["RENO"])
    pipeline.run(max_cycles=200)
    path = pipeline.snapshot().save(tmp_path / "run.ckpt")
    loaded = PipelineSnapshot.load(path)
    assert loaded.committed == pipeline._committed
    assert loaded.cycle == pipeline._cycle
    fresh = make_pipeline(program, trace, CONFIGS["RENO"])
    fresh.restore(loaded)
    reference = make_pipeline(program, trace, CONFIGS["RENO"]).run()
    assert stats_dict(fresh.run()) == stats_dict(reference)


def test_checkpoint_load_rejects_junk(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a pickle")
    with pytest.raises(SnapshotError, match="cannot load"):
        PipelineSnapshot.load(path)
    pickled_other = tmp_path / "other.ckpt"
    pickled_other.write_bytes(pickle.dumps({"not": "a snapshot"}))
    with pytest.raises(SnapshotError, match="not a PipelineSnapshot"):
        PipelineSnapshot.load(pickled_other)
