"""In-process tests of one fleet worker running one leased cell.

No broker: each test hands a :class:`TaskLease` straight to the worker and
captures what it would post, so the cell path (checkpoint restore or
discard, the sliced run, the final-state check) is tested without HTTP.
"""

import threading

import pytest

from repro.api.schema import TaskLease, TaskResult
from repro.api.worker import FleetWorker
from repro.core.simulator import simulate
from repro.harness.cache import outcome_key, program_digest
from repro.store import DiskStore
from repro.uarch.config import MachineConfig
from repro.workloads.base import get_workload

NAME = "micro_addi_chain"


def make_cell(tmp_path, slice_cycles=7):
    """A leased cell for NAME on the default machine, RENO off."""
    program = get_workload(NAME).build(1)
    machine = MachineConfig()
    key = outcome_key(program_digest(program), machine, None,
                      2_000_000, True, False)
    return {
        "workload": NAME, "scale": 1,
        "machine_label": "m", "machine": machine.to_dict(),
        "reno_label": "r", "reno": None,
        "collect_timing": True, "record_stats": False,
        "max_instructions": 2_000_000,
        "outcome_key": key,
        "cache_root": str(tmp_path / "cache"),
        "checkpoint_path": str(tmp_path / "ckpt" / "cell.ckpt"),
        "slice_cycles": slice_cycles,
    }


def make_lease(cell):
    return TaskLease(lease_id="lease-1", job_tag="job", cell=cell,
                     lease_ttl_s=30.0, heartbeat_every_s=30.0)


def posted_result(worker, cell) -> TaskResult:
    """Run the lease through ``_execute_lease`` and return what it posts."""
    posted = []
    worker._post = lambda path, payload, timeout=None: posted.append(
        (path, payload)) or {}
    worker._execute_lease(make_lease(cell))
    [(path, payload)] = posted
    assert path == "/fleet/result"
    return TaskResult.from_dict(payload)


def test_junk_checkpoint_is_discarded_and_the_cell_completes(tmp_path):
    cell = make_cell(tmp_path)
    checkpoint = tmp_path / "ckpt" / "cell.ckpt"
    checkpoint.parent.mkdir()
    checkpoint.write_bytes(b"not a pickled snapshot")

    worker = FleetWorker("http://127.0.0.1:1", worker_id="w")
    result = worker._run_cell(make_lease(cell), threading.Event())
    assert result.ok and not result.cached
    assert not checkpoint.exists()

    reference = simulate(get_workload(NAME).build(1), MachineConfig(), None,
                         collect_timing=True)
    outcome = DiskStore(tmp_path / "cache").get(cell["outcome_key"])
    assert outcome.timing.stats == reference.timing.stats
    assert outcome.timing.final_registers == reference.timing.final_registers


def test_diverged_final_state_fails_the_lease_and_stores_nothing(tmp_path):
    cell = make_cell(tmp_path)
    worker = FleetWorker("http://127.0.0.1:1", worker_id="w")
    _, functional = worker._trace_for(NAME, 1, 2_000_000)
    functional.state.regs[1] ^= 1        # the memoised reference is now wrong

    result = posted_result(worker, cell)
    assert not result.ok
    assert result.error.startswith("ArchitecturalMismatchError:")
    assert DiskStore(tmp_path / "cache").get(cell["outcome_key"]) is None


@pytest.mark.parametrize("slice_cycles", [0, -5])
def test_slice_budget_below_one_fails_the_lease(tmp_path, slice_cycles):
    cell = make_cell(tmp_path, slice_cycles=slice_cycles)
    result = posted_result(FleetWorker("http://127.0.0.1:1", worker_id="w"),
                           cell)
    assert not result.ok
    assert result.error == (f"ValueError: slice_cycles must be >= 1, "
                            f"got {slice_cycles}")
    assert DiskStore(tmp_path / "cache").get(cell["outcome_key"]) is None
