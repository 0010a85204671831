"""Tests for the AutoExecutor's persisted cross-run cost model.

The cost model (``costs.json`` next to the outcome cache) stores measured
per-workload cell timings so that later ``jobs="auto"`` runs pick the
serial loop or the process pool without re-probing.  These tests check the
store round-trip, the probe-side recording, the no-probe recall decision in
both directions (cheap → serial, expensive → pool), and the graceful
handling of corrupt stores.
"""

import json

import pytest

from repro.core.config import RenoConfig
from repro.harness import AutoExecutor, ProcessExecutor, SerialExecutor
from repro.harness.executors import COSTS_FILENAME, CostModel, build_tasks
import repro.harness.executors as executors_module
from repro.store import DiskStore
from repro.uarch.config import MachineConfig
from repro.workloads.base import get_workload

SMALL = ["micro_addi_chain", "micro_call_spill"]
MACHINES = {"4wide": MachineConfig.default_4wide()}
RENOS = {"BASE": None, "RENO": RenoConfig.reno_default()}


def micro_tasks(count: int = 2, cache_root=None):
    workloads = [get_workload(name) for name in SMALL[:count]]
    return build_tasks(workloads, MACHINES, RENOS,
                       cache_root=str(cache_root) if cache_root else None)


def test_cost_model_round_trip(tmp_path):
    model = CostModel(DiskStore(tmp_path))
    assert model.load() == {}
    task = micro_tasks(1)[0]
    model.record(task, 0.125)
    assert model.load() == {CostModel.key(task): 0.125}
    # Recording another key merges instead of overwriting.
    other = micro_tasks(2)[1]
    model.record(other, 0.5)
    stored = model.load()
    assert stored[CostModel.key(task)] == 0.125
    assert stored[CostModel.key(other)] == 0.5


def test_cost_model_tolerates_corrupt_store(tmp_path):
    (tmp_path / COSTS_FILENAME).write_text("{not json")
    model = CostModel(DiskStore(tmp_path))
    assert model.load() == {}
    (tmp_path / COSTS_FILENAME).write_text(json.dumps(["a", "list"]))
    assert model.load() == {}
    (tmp_path / COSTS_FILENAME).write_text(json.dumps({"k": "not-a-number"}))
    assert model.load() == {}


def test_probe_records_costs_for_later_runs(tmp_path):
    cache = DiskStore(tmp_path)
    tasks = micro_tasks(2, cache_root=tmp_path)
    executor = AutoExecutor(cpu_count=4, probe_threshold_s=float("inf"))
    blocks = executor.execute(tasks, cache)
    assert len(blocks) == 2
    costs = CostModel(cache).load()
    # The probe computed the first workload's cells and recorded its cost.
    assert CostModel.key(tasks[0]) in costs
    assert costs[CostModel.key(tasks[0])] > 0


def test_recall_skips_the_probe_and_stays_serial(tmp_path, monkeypatch):
    """With every task's cost recorded as cheap, execute() must delegate
    straight to the serial backend without running any in-process probe."""
    cache = DiskStore(tmp_path)
    tasks = micro_tasks(2, cache_root=tmp_path)
    model = CostModel(cache)
    for task in tasks:
        model.record(task, 1e-6)

    def no_probe(*args, **kwargs):
        raise AssertionError("probe ran despite a fully populated cost model")

    monkeypatch.setattr(executors_module, "run_workload_block", no_probe)
    sentinel = [[("key", None)]]
    monkeypatch.setattr(SerialExecutor, "execute",
                        lambda self, tasks, cache, **hooks: sentinel)
    executor = AutoExecutor(cpu_count=4, probe_threshold_s=0.5)
    assert executor.execute(tasks, cache) is sentinel


def test_recall_sends_expensive_grids_to_the_pool(tmp_path, monkeypatch):
    cache = DiskStore(tmp_path)
    tasks = micro_tasks(2, cache_root=tmp_path)
    model = CostModel(cache)
    for task in tasks:
        model.record(task, 10.0)            # clearly beyond the threshold

    called = {}

    def record_pool(self, tasks, cache, progress=None, cancel=None):
        called["jobs"] = self.jobs
        called["tasks"] = len(tasks)
        return []

    monkeypatch.setattr(ProcessExecutor, "execute", record_pool)
    executor = AutoExecutor(cpu_count=4, probe_threshold_s=0.5)
    executor.execute(tasks, cache)
    assert called == {"jobs": 2, "tasks": 2}


def test_recall_keeps_warm_grids_off_the_pool(tmp_path, monkeypatch):
    """Recorded costs assume uncached cells; when the grid is actually warm
    (the leading task's entries are all cached) the recall must fall back
    to the probe loop, which consumes hits in-process — never to a pool."""
    cache = DiskStore(tmp_path)
    tasks = micro_tasks(2, cache_root=tmp_path)
    # Warm every grid point, then record expensive-looking costs.
    AutoExecutor(cpu_count=1).execute(tasks, cache)
    model = CostModel(cache)
    for task in tasks:
        model.record(task, 10.0)

    def no_pool(self, tasks, cache, progress=None, cancel=None):
        raise AssertionError("pool spawned for a fully warm grid")

    monkeypatch.setattr(ProcessExecutor, "execute", no_pool)
    blocks = AutoExecutor(cpu_count=4, probe_threshold_s=0.5).execute(tasks, cache)
    assert len(blocks) == 2


def test_partial_costs_fall_back_to_the_probe(tmp_path):
    """Costs for only some tasks must not trigger the no-probe decision."""
    cache = DiskStore(tmp_path)
    tasks = micro_tasks(2, cache_root=tmp_path)
    CostModel(cache).record(tasks[0], 1e-6)
    executor = AutoExecutor(cpu_count=4, probe_threshold_s=float("inf"))
    blocks = executor.execute(tasks, cache)
    assert len(blocks) == 2                 # probe path still ran everything
    # ... and completed the model for next time.
    costs = CostModel(cache).load()
    assert CostModel.key(tasks[0]) in costs


def test_auto_results_identical_with_and_without_model(tmp_path):
    """The cost model may only change the backend, never the outcomes."""
    cache = DiskStore(tmp_path)
    tasks = micro_tasks(2, cache_root=tmp_path)
    executor = AutoExecutor(cpu_count=1)    # static serial: reference result
    reference = executor.execute(tasks, cache)
    model = CostModel(cache)
    for task in tasks:
        model.record(task, 1e-6)
    cold_cache = DiskStore(tmp_path / "other")
    tasks2 = micro_tasks(2, cache_root=tmp_path / "other")
    for task in tasks2:
        CostModel(cold_cache).record(task, 1e-6)
    recalled = AutoExecutor(cpu_count=4, probe_threshold_s=0.5).execute(
        tasks2, cold_cache)
    assert [[(key, outcome.cycles) for key, outcome in block]
            for block in recalled] == \
        [[(key, outcome.cycles) for key, outcome in block]
         for block in reference]
