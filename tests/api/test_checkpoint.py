"""Tests for time-sliced, disk-checkpointed simulation of one grid cell.

The slice loop lives in :meth:`FleetWorker._run_cell`: run
``slice_cycles`` at a time, park a :class:`PipelineSnapshot` on disk after
each unfinished slice, stop at a slice boundary when told to abandon, and
remove the checkpoint on completion.  These tests drive that loop in
process (no broker) and compare against one-shot :func:`simulate`.
"""

import threading
from dataclasses import fields

import pytest

from repro.api import worker as worker_mod
from repro.api.schema import TaskLease
from repro.api.worker import FleetWorker
from repro.core import RenoConfig
from repro.core.simulator import simulate
from repro.harness.cache import outcome_key, program_digest
from repro.store import DiskStore
from repro.uarch.config import MachineConfig
from repro.uarch.snapshot import PipelineSnapshot
from repro.workloads.base import get_workload

NAME, SCALE = "micro_call_spill", 2


def make_cell(tmp_path, slice_cycles, reno=None):
    program = get_workload(NAME).build(SCALE)
    machine = MachineConfig.default_4wide()
    return {
        "workload": NAME, "scale": SCALE,
        "machine_label": "m", "machine": machine.to_dict(),
        "reno_label": "r", "reno": reno.to_dict() if reno else None,
        "collect_timing": True, "record_stats": False,
        "max_instructions": 2_000_000,
        "outcome_key": outcome_key(program_digest(program), machine, reno,
                                   2_000_000, True, False),
        "cache_root": str(tmp_path / "cache"),
        "checkpoint_path": str(tmp_path / "ckpt" / "run.ckpt"),
        "slice_cycles": slice_cycles,
    }


def make_lease(cell):
    return TaskLease(lease_id="lease-1", job_tag="job", cell=cell,
                     lease_ttl_s=30.0, heartbeat_every_s=30.0)


def reference(reno=None):
    return simulate(get_workload(NAME).build(SCALE),
                    MachineConfig.default_4wide(), reno, collect_timing=True)


def stats_dict(timing):
    return {f.name: getattr(timing.stats, f.name) for f in fields(timing.stats)}


@pytest.fixture
def slice_saves(monkeypatch):
    """Record each parked snapshot; optionally abandon after N of them."""
    saves = []
    control = {"abandon": None, "after": None}
    original = PipelineSnapshot.save

    def save(snapshot, path):
        original(snapshot, path)
        saves.append(snapshot.cycle)
        if control["after"] is not None and len(saves) >= control["after"]:
            control["abandon"].set()

    monkeypatch.setattr(PipelineSnapshot, "save", save)
    return saves, control


def run_until_abandoned(cell, slice_saves, slices):
    """Run ``cell`` on a fresh worker, abandoning after ``slices`` slices."""
    saves, control = slice_saves
    control["abandon"], control["after"] = threading.Event(), slices
    worker = FleetWorker("http://127.0.0.1:1", worker_id="wa")
    with pytest.raises(worker_mod._Abandoned):
        worker._run_cell(make_lease(cell), control["abandon"])
    control["after"] = None


def test_run_sliced_matches_one_shot(tmp_path, slice_saves):
    saves, _ = slice_saves
    expected = reference().timing
    cell = make_cell(tmp_path, slice_cycles=200)
    worker = FleetWorker("http://127.0.0.1:1", worker_id="w")
    result = worker._run_cell(make_lease(cell), threading.Event())
    assert result.ok and not result.cached

    outcome = DiskStore(tmp_path / "cache").get(cell["outcome_key"])
    assert stats_dict(outcome.timing) == stats_dict(expected)
    assert outcome.timing.final_registers == expected.final_registers
    assert saves and saves == [200 * (i + 1) for i in range(len(saves))]
    assert not (tmp_path / "ckpt" / "run.ckpt").exists()  # removed on completion


def test_run_sliced_respects_max_slices(tmp_path, slice_saves):
    saves, _ = slice_saves
    cell = make_cell(tmp_path, slice_cycles=100)
    run_until_abandoned(cell, slice_saves, slices=2)
    assert saves == [100, 200]                  # stopped at the slice boundary
    checkpoint = tmp_path / "ckpt" / "run.ckpt"
    assert checkpoint.exists()                  # parked for a later resume
    assert PipelineSnapshot.load(checkpoint).cycle == 200
    assert DiskStore(tmp_path / "cache").get(cell["outcome_key"]) is None


def test_resume_sliced_from_disk(tmp_path, slice_saves):
    saves, _ = slice_saves
    reno = RenoConfig.reno_default()
    expected = reference(reno).timing
    cell = make_cell(tmp_path, slice_cycles=150, reno=reno)
    run_until_abandoned(cell, slice_saves, slices=3)
    checkpoint = tmp_path / "ckpt" / "run.ckpt"
    assert checkpoint.exists()

    # A different worker rebuilds the pipeline from the same inputs and
    # resumes at the parked cycle rather than starting over.
    saves.clear()
    resumer = FleetWorker("http://127.0.0.1:1", worker_id="wb")
    result = resumer._run_cell(make_lease(cell), threading.Event())
    assert result.ok and not result.cached
    assert saves == [600]                       # resumed at 450, not at 0

    outcome = DiskStore(tmp_path / "cache").get(cell["outcome_key"])
    assert stats_dict(outcome.timing) == stats_dict(expected)
    assert outcome.timing.final_registers == expected.final_registers
    assert not checkpoint.exists()
