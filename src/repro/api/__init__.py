"""``repro.api`` — the stable public API of the reproduction.

This package is the supported integration surface; everything else is
library internals that may change between versions.  It has four pieces:

* :class:`~repro.api.session.Session` / :class:`~repro.api.session.Job` —
  the submission facade: ``submit(request) -> Job`` with progress
  streaming, cancellation, and content-addressed request coalescing
  (:mod:`repro.api.session`).
* The versioned wire schema — :class:`~repro.api.schema.ExperimentRequest`,
  :class:`~repro.api.schema.JobStatus`, :class:`~repro.api.schema.JobState`
  (:mod:`repro.api.schema`).
* The HTTP front-end behind ``python -m repro serve``
  (:mod:`repro.api.service`).
* Incremental simulation — ``Pipeline.run(max_cycles=...)`` advances a
  run in slices, ``Pipeline.snapshot()``/``restore()`` capture and re-adopt
  its state as a :class:`~repro.uarch.snapshot.PipelineSnapshot`
  (re-exported here) and ``save()``/``load()`` park that on disk.  The
  fleet worker runs every cell this way.
* The distributed worker fleet — a lease broker plus ``python -m repro
  worker`` pullers executing experiment grids across processes with
  byte-identical results (:mod:`repro.api.fleet`, :mod:`repro.api.worker`;
  wire messages :class:`~repro.api.schema.WorkerHello`,
  :class:`~repro.api.schema.TaskLease`,
  :class:`~repro.api.schema.TaskResult`).
* The shared result store — every ``cache=`` argument accepts a
  :class:`~repro.store.base.ResultStore` instance or a locator string
  (path, ``sqlite://…``, ``http(s)://…``); the tiers and
  :func:`~repro.store.base.open_store` are re-exported from
  :mod:`repro.store`.

Quick start::

    from repro.api import ExperimentRequest, Session

    with Session(jobs="auto") as session:
        job = session.submit(ExperimentRequest("fig8", suite="micro"))
        report = job.result()
"""

from repro.api.fleet import (
    FleetBroker,
    FleetError,
    FleetExecutor,
    FleetSaturated,
    FleetServer,
    FleetStalled,
    FleetTaskError,
    WorkerRejected,
    make_fleet_server,
    shared_fleet,
)
from repro.api.schema import (
    WIRE_SCHEMA_VERSION,
    ExperimentRequest,
    JobState,
    JobStatus,
    SchemaError,
    TaskLease,
    TaskResult,
    WorkerHello,
)
from repro.api.service import make_server, serve
from repro.api.worker import FleetWorker
from repro.store import (
    DiskStore,
    HTTPStore,
    ResultStore,
    SqliteStore,
    open_store,
    store_locator,
)
from repro.api.session import (
    Job,
    JobCancelled,
    JobFailed,
    Session,
    default_session,
)
from repro.uarch.snapshot import PipelineSnapshot, SnapshotError

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "ExperimentRequest",
    "JobState",
    "JobStatus",
    "SchemaError",
    "Session",
    "Job",
    "JobCancelled",
    "JobFailed",
    "default_session",
    "serve",
    "make_server",
    "PipelineSnapshot",
    "SnapshotError",
    "WorkerHello",
    "TaskLease",
    "TaskResult",
    "FleetBroker",
    "FleetServer",
    "FleetExecutor",
    "FleetWorker",
    "FleetError",
    "FleetSaturated",
    "FleetStalled",
    "FleetTaskError",
    "WorkerRejected",
    "make_fleet_server",
    "shared_fleet",
    "ResultStore",
    "DiskStore",
    "SqliteStore",
    "HTTPStore",
    "open_store",
    "store_locator",
]
