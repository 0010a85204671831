"""Property tests: the compiled cycle-loop backend is bit-identical to python.

The backend contract (:mod:`repro.uarch.backend`) is that backends differ
in *speed only*: every simulation observable — final architectural state,
statistics, occupancy histograms, snapshots — must be identical whichever
backend ran the cycle loop.  Seeded random programs (reusing the scheduler
equivalence generator: ALU ops, moves, folds, loads, stores, loops) are
run through both backends under several machine and RENO configurations.

The strongest property here is the **lockstep snapshot** test: both
backends run the same program in slices and the pickled
:meth:`~repro.uarch.core.Pipeline.snapshot` bytes must match at every
slice boundary — full mutable-state equality at intermediate cycles, not
just at the end.  Snapshot hand-offs *across* backends (python → compiled
→ python) certify that a fleet can mix backends mid-run.

Compiled-specific tests skip (not fail) when no C toolchain is present;
the fallback tests force that situation with ``REPRO_NO_CC=1`` and assert
the degradation to python is silent and result-identical.
"""

import ast
import pickle
from dataclasses import fields
from pathlib import Path

import pytest
from test_scheduler_equivalence import random_program

from repro.core import RenoConfig, RenoRenamer
from repro.functional.simulator import FunctionalSimulator
from repro.isa.assembler import Assembler
from repro.isa.program import DATA_BASE
from repro.isa.registers import RegisterNames as R
from repro.isa.semantics import mask64
from repro.uarch.backend import backend_names, get_backend, resolve_backend
from repro.uarch.compiled import build
from repro.uarch.compiled.emit import ERR_INTERNAL, POINTERS, PT
from repro.uarch.compiled.marshal import _TRACE_COLUMNS, KernelState
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.workloads.base import get_workload

SEEDS = [3, 59, 977]

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

#: Skip marker for tests that need the real compiled kernel.
needs_compiled = pytest.mark.skipif(
    not get_backend("compiled").available(),
    reason="no C toolchain on this runner")


def build_run(seed, length=200):
    program = random_program(seed, length=length).assemble()
    trace = FunctionalSimulator(program).run().trace
    return program, trace


def make_pipeline(program, trace, reno, backend, machine=None,
                  record_stats=False, collect_timing=False):
    machine = machine or MachineConfig.default_4wide()
    renamer = RenoRenamer(machine.num_physical_regs, reno) \
        if reno is not None else None
    return Pipeline(program, trace, machine, renamer=renamer,
                    record_stats=record_stats, collect_timing=collect_timing,
                    backend=backend)


def critpath_workloads():
    """The critical-path (fig9) workload subsets the benchmarks run, read
    from ``benchmarks/conftest.py`` without importing it."""
    conftest = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
    names = []
    for node in ast.parse(conftest.read_text()).body:
        if (isinstance(node, ast.Assign)
                and node.targets[0].id.startswith("CRITPATH_")):
            names += ast.literal_eval(node.value)
    return names


def stats_dict(result):
    return {f.name: getattr(result.stats, f.name) for f in fields(result.stats)}


def assert_results_identical(compiled, python):
    assert stats_dict(compiled) == stats_dict(python)
    assert compiled.final_registers == python.final_registers
    assert compiled.finished and python.finished


# ---------------------------------------------------------------------------
# Backend-vs-backend equivalence
# ---------------------------------------------------------------------------


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_matches_python(seed, config_name):
    program, trace = build_run(seed)
    reno = CONFIGS[config_name]
    compiled_pipeline = make_pipeline(program, trace, reno, "compiled")
    assert compiled_pipeline.backend_name == "compiled"
    compiled = compiled_pipeline.run()
    python = make_pipeline(program, trace, reno, "python").run()
    assert_results_identical(compiled, python)


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_page_straddling_store_matches_python(config_name):
    """An 8-byte ``st`` at ``buf + 4092`` writes two 4 KiB pages: the trace
    lists both, and the kernel (whose page pool is sized from that list)
    agrees with python on cycles and final registers."""
    asm = Assembler("straddle")
    asm.zeros("buf", 513)                 # 4104 bytes from DATA_BASE
    asm.la(R.A0, "buf")
    asm.li(R.T0, -0x12345678)             # non-zero bytes on both pages
    asm.st(R.T0, 4092, R.A0)
    asm.ld(R.T1, 4092, R.A0)
    asm.ldbu(R.T2, 4096, R.A0)            # first byte of the second page
    asm.halt()
    program = asm.assemble()
    run = FunctionalSimulator(program).run()
    address = DATA_BASE + 4092
    assert address == 0x10000FFC
    assert run.trace.store_pages == frozenset({address >> 12, (address + 7) >> 12})
    assert len(run.trace.store_pages) == 2

    reno = CONFIGS[config_name]
    compiled_pipeline = make_pipeline(program, run.trace, reno, "compiled")
    assert compiled_pipeline.backend_name == "compiled"
    compiled = compiled_pipeline.run()
    python = make_pipeline(program, run.trace, reno, "python").run()
    assert_results_identical(compiled, python)
    assert compiled.cycles == python.cycles
    assert compiled.final_registers[R.T1] == mask64(-0x12345678)
    assert compiled.final_registers[R.T2] == 0xFF


@needs_compiled
def test_kernel_reads_the_trace_columns_in_place():
    """Every pipeline built on one trace hands the kernel the trace's own
    arrays as its ``T_*`` buffers: no per-pipeline copy exists."""
    assert {name for name in POINTERS if name.startswith("T_")} == \
        {name for name, _ in _TRACE_COLUMNS}
    program, trace = build_run(SEEDS[0], length=60)
    backend = get_backend("compiled")
    renos = (None, RenoConfig.reno_default())
    pipelines = [make_pipeline(program, trace, reno, "compiled") for reno in renos]
    for reno, pipeline in zip(renos, pipelines):
        result = pipeline.run()
        state = backend._states[pipeline]
        for name, column in _TRACE_COLUMNS:
            assert state.arr[name] is getattr(trace, column)
            assert state.pt[PT[name]] == getattr(trace, column).buffer_info()[0]
        python = make_pipeline(program, trace, reno, "python").run()
        assert_results_identical(result, python)


@needs_compiled
@pytest.mark.parametrize("machine_name", list(MACHINES))
def test_compiled_matches_python_across_machines(machine_name):
    program, trace = build_run(4242)
    machine = MACHINES[machine_name]
    compiled = make_pipeline(program, trace, RenoConfig.reno_default(),
                             "compiled", machine=machine).run()
    python = make_pipeline(program, trace, RenoConfig.reno_default(),
                           "python", machine=machine).run()
    assert_results_identical(compiled, python)


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_occupancy_histograms_identical(config_name):
    """The observability layer sees the same per-cycle history either way."""
    program, trace = build_run(SEEDS[0])
    reno = CONFIGS[config_name]
    compiled = make_pipeline(program, trace, reno, "compiled",
                             record_stats=True).run()
    python = make_pipeline(program, trace, reno, "python",
                           record_stats=True).run()
    assert compiled.stats.occupancy is not None
    assert (compiled.stats.occupancy.to_dict()
            == python.stats.occupancy.to_dict())
    assert_results_identical(compiled, python)


def to_plain(obj, on_path=None):
    """A pure-data, aliasing-free projection of an object graph.

    Pickle bytes are unusable for cross-backend comparison: marshal-out
    rebuilds objects, so the python side's shared references become
    distinct (equal) objects and the pickle memo encodes them differently.
    This projection compares *values only* — primitives pass through,
    containers recurse, arbitrary objects become ``(classname, attrs)``
    pairs, and reference cycles collapse to a marker.
    """
    if isinstance(obj, (int, float, str, bytes, bool, type(None))):
        return obj
    on_path = on_path or set()
    if id(obj) in on_path:
        return "<cycle>"
    on_path = on_path | {id(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_plain(item, on_path) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return ["<set>", sorted((to_plain(item, on_path) for item in obj),
                                key=repr)]
    if isinstance(obj, dict):
        # Insertion order is a rebuild artifact (marshal-out repopulates
        # index dicts in scan order); only the mapping itself is state.
        return sorted(((to_plain(k, on_path), to_plain(v, on_path))
                       for k, v in obj.items()), key=repr)
    attrs = {}
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    attrs.update(getattr(obj, "__dict__", {}))
    return (type(obj).__name__,
            [(name, to_plain(value, on_path))
             for name, value in sorted(attrs.items())])


def canonical_snapshot(pipeline):
    """Plain-data snapshot state after the marshaller's two documented
    normalisations (see :mod:`repro.uarch.compiled.marshal`): window
    ``value`` slots still holding the construction-time ``None`` read as
    ``0``, and in-flight ``RenameResult`` objects drop their (already
    consumed) ``sources``.  Everything else must match value for value.
    """
    snapshot = pipeline.snapshot()           # state is a detached deep copy
    window = snapshot.state["window"]
    window.value = [0 if v is None else v for v in window.value]
    for result in window.rename:
        if result is not None:
            result.sources = []
    return to_plain(snapshot.state)


@needs_compiled
@pytest.mark.parametrize("seed", [SEEDS[0]])
def test_lockstep_snapshots_match_every_slice(seed):
    """Full mutable-state equality at every slice boundary, both backends.

    ``snapshot()`` captures everything the cycle loop mutates (and is
    itself lint-enforced complete — ``snapshot-coverage``), so equal
    pickled snapshots at cycle k mean the backends agree on *all*
    intermediate state, not just on the final result.  ``backend`` /
    ``backend_name`` are snapshot-exempt, which is exactly what makes this
    comparison well-defined.
    """
    program, trace = build_run(seed)
    reno = RenoConfig.reno_default()
    compiled_pipeline = make_pipeline(program, trace, reno, "compiled")
    python_pipeline = make_pipeline(program, trace, reno, "python")
    slice_cycles = 211          # a handful of mid-burst boundaries; the
    slices = 0                  # projection cost is per boundary, not per cycle
    while True:
        compiled = compiled_pipeline.run(max_cycles=slice_cycles)
        python = python_pipeline.run(max_cycles=slice_cycles)
        assert compiled.finished == python.finished
        if compiled.finished:
            break
        slices += 1
        assert (canonical_snapshot(compiled_pipeline)
                == canonical_snapshot(python_pipeline)), (
            f"state diverged by slice {slices} (seed={seed})")
    assert slices > 1
    assert_results_identical(compiled, python)


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_snapshot_handoff_across_backends(config_name):
    """python → compiled → python hand-offs finish bit-identically."""
    program, trace = build_run(SEEDS[1])
    reno = CONFIGS[config_name]
    reference = make_pipeline(program, trace, reno, "python").run()

    chain = ["python", "compiled", "python", "compiled"]
    pipeline = make_pipeline(program, trace, reno, chain[0])
    hops = 0
    result = pipeline.run(max_cycles=113)
    while not result.finished:
        hops += 1
        snapshot = pickle.loads(pickle.dumps(pipeline.snapshot()))
        pipeline = make_pipeline(program, trace, reno,
                                 chain[hops % len(chain)])
        pipeline.restore(snapshot)
        result = pipeline.run(max_cycles=113)
    assert hops >= 2, "program too short to exercise a backend hand-off"
    assert_results_identical(result, reference)


# ---------------------------------------------------------------------------
# Selection, fallback and degradation
# ---------------------------------------------------------------------------


def test_backend_registry_lists_both_backends():
    names = backend_names()
    assert "python" in names
    assert "compiled" in names


def test_unknown_backend_name_raises():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("turbo")


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert resolve_backend(None).name == "python"
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend(None)


def test_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    assert resolve_backend("python").name == "python"


def test_requested_compiled_degrades_silently_without_toolchain(monkeypatch):
    """``REPRO_NO_CC=1`` + ``backend="compiled"`` must run — on python."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    build.reset_cache()
    try:
        program, trace = build_run(SEEDS[0], length=60)
        pipeline = make_pipeline(program, trace, None, "compiled")
        assert pipeline.backend_name == "python"
        degraded = pipeline.run()
        reference = make_pipeline(program, trace, None, "python").run()
        assert_results_identical(degraded, reference)
    finally:
        monkeypatch.delenv("REPRO_NO_CC")
        build.reset_cache()


@needs_compiled
def test_timing_pipelines_run_in_the_kernel(monkeypatch):
    """``collect_timing`` pipelines are lowered: ``supports()`` accepts
    them, the kernel runs their slices, and the columns it writes equal
    the reference loop's."""
    slices = []
    marshal_out = KernelState.marshal_out

    def counting_marshal_out(state, pipeline):      # runs only on ERR_OK
        slices.append(pipeline)
        marshal_out(state, pipeline)

    monkeypatch.setattr(KernelState, "marshal_out", counting_marshal_out)
    program, trace = build_run(SEEDS[0], length=60)
    machine = MachineConfig.default_4wide()
    pipeline = Pipeline(program, trace, machine, collect_timing=True,
                        backend="compiled")
    assert get_backend("compiled").supports(pipeline)
    timed = pipeline.run()
    assert slices, "no slice ran in the kernel"
    reference = Pipeline(program, trace, machine, collect_timing=True,
                         backend="python").run()
    assert timed.timing_records == reference.timing_records
    assert_results_identical(timed, reference)


def assert_timing_identical(program, trace, reno):
    compiled_pipeline = make_pipeline(program, trace, reno, "compiled",
                                      collect_timing=True)
    compiled = compiled_pipeline.run()
    python = make_pipeline(program, trace, reno, "python",
                           collect_timing=True).run()
    state = get_backend("compiled")._states[compiled_pipeline]
    for column in compiled.timing_records.COLUMNS:
        assert (state.arr[f"TM_{column.upper()}"]
                is getattr(compiled.timing_records, column))
    assert len(compiled.timing_records) == len(trace)
    assert compiled.timing_records == python.timing_records
    assert_results_identical(compiled, python)


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("workload", critpath_workloads())
def test_timing_columns_match_python_on_critpath_workloads(workload,
                                                           config_name):
    """Every fig9 workload of the benchmark subsets, every fig9 config."""
    program = get_workload(workload).build(1)
    trace = FunctionalSimulator(program).run().trace
    assert_timing_identical(program, trace, CONFIGS[config_name])


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_timing_columns_match_python_on_random_programs(seed, config_name):
    program, trace = build_run(seed)
    assert_timing_identical(program, trace, CONFIGS[config_name])


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_timing_snapshot_handoff_across_backends(config_name):
    """A timing pipeline handed python → compiled → python mid-run, by
    snapshot/restore, fills the same columns as one uninterrupted run."""
    program, trace = build_run(SEEDS[1])
    reno = CONFIGS[config_name]
    reference = make_pipeline(program, trace, reno, "python",
                              collect_timing=True).run()

    pipeline = make_pipeline(program, trace, reno, "python",
                             collect_timing=True)
    hops = 0
    result = pipeline.run(max_cycles=113)
    while not result.finished:
        assert len(result.timing_records) == result.stats.committed
        hops += 1
        snapshot = pickle.loads(pickle.dumps(pipeline.snapshot()))
        backend = "compiled" if hops % 2 else "python"
        pipeline = make_pipeline(program, trace, reno, backend,
                                 collect_timing=True)
        pipeline.restore(snapshot)
        result = pipeline.run(max_cycles=113)
    assert hops >= 2, "program too short to exercise a backend hand-off"
    assert result.timing_records == reference.timing_records
    assert_results_identical(result, reference)


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("collect_timing", [False, True])
def test_kernel_error_replays_the_slice_exactly(monkeypatch, collect_timing,
                                                config_name):
    """A kernel that runs every slice to the end and then reports
    ERR_INTERNAL leaves no trace: the python replay of each slice — over
    the timing columns the kernel already wrote in place — gives exactly
    an all-python run's result."""
    kernel = build.load_kernel()
    calls = []

    def failing_kernel(sc, pt, pages):
        calls.append(kernel(sc, pt, pages))
        return ERR_INTERNAL

    monkeypatch.setattr(build, "load_kernel", lambda: failing_kernel)
    program, trace = build_run(SEEDS[2])
    reno = CONFIGS[config_name]
    replayed_pipeline = make_pipeline(program, trace, reno, "compiled",
                                      collect_timing=collect_timing)
    replayed = replayed_pipeline.run(max_cycles=97)
    while not replayed.finished:
        replayed = replayed_pipeline.run(max_cycles=97)
    python = make_pipeline(program, trace, reno, "python",
                           collect_timing=collect_timing).run()
    assert len(calls) > 1
    assert replayed.timing_records == python.timing_records
    assert (replayed.timing_records is None) == (not collect_timing)
    assert_results_identical(replayed, python)
