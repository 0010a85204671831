"""Pluggable execution backends for experiment grids.

:func:`execute_grid` is the machinery behind
:func:`repro.harness.runner.run_matrix`: it splits the (workload × machine ×
RENO config) grid into one :class:`WorkloadTask` per workload, consults the
on-disk outcome cache, and hands the task list to an :class:`Executor`:

* :class:`SerialExecutor` runs every task in-process (keeping full outcomes).
* :class:`ProcessExecutor` fans tasks out over a ``fork`` multiprocessing
  pool, falling back to serial when the platform lacks ``fork``, a task
  cannot be pickled, or there is only one task.
* :class:`AutoExecutor` — the default behind ``jobs="auto"`` — probes the
  CPU count, the grid size, and the *measured* per-cell cost of the first
  workload before committing to a backend, so single-core containers and
  tiny grids never pay fork + pickling overhead just to lose to the plain
  serial loop.

Design points:

* **Task granularity is one workload.**  All (machine, RENO) points of a
  workload share one functional trace — exactly the paper's methodology and
  the serial runner's behaviour — so splitting finer would recompute traces.
  Parallelism across workloads is where the wall-clock time is.
* **Deterministic ordering.**  Results are assembled in grid order (workload,
  then machine, then RENO label) regardless of worker completion order, so
  ``MatrixResult`` iteration order is identical to the serial runner's.
* **Graceful fallback.**  Every executor degrades to in-process execution
  with identical results whenever a pool cannot help.
* **Cache-aware workers.**  Each worker checks the cache per grid point and
  only computes (and stores) the misses; the functional trace is built only
  if at least one point of the workload misses.

Workers return *slim* outcomes (no program / functional trace) to keep
inter-process traffic proportional to the statistics, not the trace length.
The in-process path keeps full outcomes for cache misses, preserving the
original ``run_matrix`` behaviour for callers that inspect
``outcome.functional``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, replace
from typing import Callable, Protocol, runtime_checkable

from repro.core.config import RenoConfig
from repro.core.simulator import SimulationOutcome, simulate
from repro.functional.simulator import FunctionalSimulator
from repro.harness.cache import outcome_key, program_digest, resolve_cache
from repro.store.base import ResultStore, open_store, store_locator
from repro.uarch.backend import DEFAULT_BACKEND, resolve_backend
from repro.uarch.config import MachineConfig
from repro.workloads.base import Workload

#: Environment variable supplying the default worker count for ``jobs=None``
#: (an integer, or ``auto`` for adaptive backend selection).
JOBS_ENV = "REPRO_JOBS"

#: Environment variable enabling the distributed fleet backend for
#: ``jobs=None`` (its value is the fleet worker-process count); an explicit
#: ``$REPRO_JOBS`` still wins.  See :mod:`repro.api.fleet`.
FLEET_ENV = "REPRO_FLEET"

#: Grid-point key: (workload name, machine label, RENO label).
GridKey = tuple[str, str, str]

#: One executed workload block: grid-ordered (key, outcome) pairs.
Block = list[tuple[GridKey, SimulationOutcome]]

#: Per-cell completion callback: ``progress(grid_key, cached, outcome)`` is
#: invoked once per grid cell as its outcome becomes available (``cached``
#: is True for cache hits; ``outcome`` is the cell's
#: :class:`SimulationOutcome`, which is how the session streams live
#: per-cell utilization).  In-process execution streams cell by cell; pool
#: execution streams block by block as workers finish.
ProgressFn = Callable[[GridKey, bool, SimulationOutcome], None]

#: Cooperative cancellation probe: return True to abort the grid.
CancelFn = Callable[[], bool]


class ExecutionCancelled(RuntimeError):
    """A grid execution was aborted by its cancellation callback."""


#: Estimated remaining serial seconds above which :class:`AutoExecutor`
#: switches from the serial loop to a process pool.  Roughly an order of
#: magnitude above pool spawn + pickling overhead, so going parallel is only
#: chosen when it can actually pay for itself.
PROBE_THRESHOLD_S = 0.5


@dataclass(frozen=True)
class WorkloadTask:
    """Everything a worker needs to run one workload's (machine × RENO) block."""

    workload: Workload
    scale: int
    machines: tuple[tuple[str, MachineConfig], ...]
    renos: tuple[tuple[str, RenoConfig | None], ...]
    collect_timing: bool
    max_instructions: int
    #: Result-store locator (a path, ``sqlite://...`` or ``http://...``;
    #: see :func:`repro.store.base.open_store`); None disables caching.
    #: Named ``cache_root`` for wire/pickle compatibility with pre-store
    #: payloads, where it was always a directory path.
    cache_root: str | None
    record_stats: bool = False
    #: Cycle-loop backend name (see :mod:`repro.uarch.backend`); None defers
    #: to ``$REPRO_BACKEND``/``python`` at simulation time.  Never part of
    #: the outcome-cache key — results are backend-independent.
    backend: str | None = None

    @property
    def cells(self) -> int:
        """Number of grid points this task covers."""
        return len(self.machines) * len(self.renos)

    def grid(self) -> list[tuple[GridKey, MachineConfig, RenoConfig | None]]:
        """``(grid_key, machine, reno)`` for every point, in grid order."""
        return [((self.workload.name, machine_label, reno_label), machine, reno)
                for machine_label, machine in self.machines
                for reno_label, reno in self.renos]

    def outcome_key(self, digest: str, machine: MachineConfig,
                    reno: RenoConfig | None) -> str:
        """The result-store key of one point, given the program digest."""
        return outcome_key(digest, machine, reno, self.max_instructions,
                           self.collect_timing, self.record_stats)


def _slim(outcome: SimulationOutcome) -> SimulationOutcome:
    """Drop the program and functional trace before crossing a process pipe."""
    return replace(outcome, program=None, functional=None)


def run_workload_block(
    task: WorkloadTask,
    *,
    slim: bool,
    cache: ResultStore | None = None,
    progress: ProgressFn | None = None,
    cancel: CancelFn | None = None,
) -> Block:
    """Run (or load from cache) every grid point of one workload.

    Args:
        task: The workload block description.
        slim: Strip programs/traces from computed outcomes (used by worker
            processes; the in-process path keeps them).
        cache: Store instance to use; defaults to one opened from the
            ``task.cache_root`` locator (worker processes build their own
            so the task stays cheap to pickle).
        progress: Optional per-cell completion callback (see
            :data:`ProgressFn`).
        cancel: Optional cancellation probe, checked before every computed
            cell; raises :class:`ExecutionCancelled` when it returns True.

    Returns:
        ``[(grid_key, outcome), ...]`` in (machine, RENO) grid order.
    """
    workload = task.workload
    if cache is None and task.cache_root is not None:
        cache = open_store(task.cache_root)
    if cancel is not None and cancel():
        raise ExecutionCancelled(f"cancelled before workload {workload.name}")
    program = workload.build(task.scale)
    digest = program_digest(program) if cache is not None else ""

    points = []
    for grid_key, machine, reno in task.grid():
        key = outcome = None
        if cache is not None:
            key = task.outcome_key(digest, machine, reno)
            outcome = cache.get(key)
        points.append((grid_key, machine, reno, key, outcome))

    functional = None
    if any(outcome is None for *_, outcome in points):
        functional = FunctionalSimulator(program, task.max_instructions).run()

    results: Block = []
    for grid_key, machine, reno, key, outcome in points:
        cached = outcome is not None
        if outcome is None:
            if cancel is not None and cancel():
                raise ExecutionCancelled(f"cancelled in workload {workload.name}")
            outcome = simulate(
                program,
                machine,
                reno,
                trace=functional,
                collect_timing=task.collect_timing,
                record_stats=task.record_stats,
                max_instructions=task.max_instructions,
                backend=task.backend,
            )
            if cache is not None:
                cache.put(key, outcome)
            if slim:
                outcome = _slim(outcome)
        results.append((grid_key, outcome))
        if progress is not None:
            progress(grid_key, cached, outcome)
    return results


def _worker(task: WorkloadTask):
    """Pool entry point: slim outcomes plus the worker-local cache stats,
    which the parent merges so ``cache.stats`` is meaningful for pools."""
    cache = open_store(task.cache_root)
    block = run_workload_block(task, slim=True, cache=cache)
    return block, (cache.stats if cache is not None else None)


def _task_fully_cached(task: WorkloadTask, cache: ResultStore) -> bool:
    """Whether every grid point of ``task`` already has a store entry.

    Checks entry existence only (``contains``: no payload decode, no
    hit/miss stats), so the :class:`AutoExecutor` recall path can cheaply
    distinguish a warm repeat run from a cold grid before committing to a
    worker pool.
    """
    digest = program_digest(task.workload.build(task.scale))
    return all(cache.contains(task.outcome_key(digest, machine, reno))
               for _, machine, reno in task.grid())


def _fork_context():
    """The fork multiprocessing context, or None when the platform lacks it."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _tasks_picklable(tasks: list[WorkloadTask]) -> bool:
    """Whether every task can cross a process boundary (ad-hoc workloads with
    closure builders cannot; they silently run in-process instead)."""
    try:
        for task in tasks:
            pickle.dumps(task)
    except Exception:
        return False
    return True


def build_tasks(
    workloads: list[Workload],
    machines: dict[str, MachineConfig],
    renos: dict[str, RenoConfig | None],
    *,
    scale: int = 1,
    collect_timing: bool = False,
    record_stats: bool = False,
    max_instructions: int = 2_000_000,
    cache_root: str | None = None,
    backend: str | None = None,
) -> list[WorkloadTask]:
    """One :class:`WorkloadTask` per workload, covering the full grid."""
    return [
        WorkloadTask(
            workload=workload,
            scale=scale,
            machines=tuple(machines.items()),
            renos=tuple(renos.items()),
            collect_timing=collect_timing,
            max_instructions=max_instructions,
            cache_root=cache_root,
            record_stats=record_stats,
            backend=backend,
        )
        for workload in workloads
    ]


# ---------------------------------------------------------------------------
# The persisted cost model
# ---------------------------------------------------------------------------


#: File name of the persisted cost model inside the outcome-cache root.
COSTS_FILENAME = "costs.json"

#: Meta-document name the cost model lives under in a result store (the
#: disk tier maps it onto :data:`COSTS_FILENAME` in the store root).
COSTS_META = "costs"


class CostModel:
    """Cross-run store of measured per-workload cell timings.

    Lives in the result store's ``costs`` meta document — for the disk
    tier that is the historical ``$REPRO_CACHE_DIR/costs.json``; through
    the sqlite or HTTP tiers the same document is shared fleet-wide, so
    one worker's probe timing spares every other worker the probe.  Keys
    are per workload task — name, scale, timing collection and
    instruction budget — mirroring how the outcome cache distinguishes
    grid points; values are measured serial seconds per computed
    (machine × RENO) cell.

    :class:`AutoExecutor` records a cost every time its in-process probe
    actually computes cells, and on later runs uses the recorded costs to
    pick the serial loop or the process pool *without any probe*.  Costs are
    advisory (a stale entry can only cost wall-clock time, never results),
    so the store degrades gracefully: unreadable documents read as empty
    and failed writes are ignored.
    """

    def __init__(self, store: ResultStore):
        """Create a model over the result store ``store``."""
        self._store = store

    @staticmethod
    def key(task: WorkloadTask) -> str:
        """The store key for one workload task (outcome-cache style).

        Includes the *resolved* cycle-loop backend name — ``task.backend``
        run through :func:`repro.uarch.backend.resolve_backend`, so a
        requested-but-unavailable ``compiled`` keys as ``python``, matching
        the loop that will actually run.  Compiled-backend timings are an
        order of magnitude off python-backend ones; sharing entries would
        poison the pool-or-serial decision for whichever backend reads a
        cost the other wrote.
        """
        backend = resolve_backend(task.backend).name
        return (f"{task.workload.name}|scale={task.scale}"
                f"|timing={int(task.collect_timing)}"
                f"|stats={int(task.record_stats)}"
                f"|budget={task.max_instructions}"
                f"|backend={backend}")

    def load(self) -> dict[str, float]:
        """All recorded costs (empty on a missing or unreadable store).

        Version-1 stores (written before backends existed) lack the
        ``|backend=`` key component; every v1 timing was measured on the
        python reference loop, so such keys are read as
        ``|backend=python`` entries.  The migration is pure-read — the
        document itself upgrades on the next :meth:`record`, and a v1 key
        never shadows a real v2 entry.
        """
        try:
            payload = self._store.get_meta(COSTS_META)
        except Exception:             # noqa: BLE001 - advisory data only
            return {}
        costs: dict[str, float] = {}
        migrated: dict[str, float] = {}
        for key, value in payload.items():
            if not isinstance(value, (int, float)):
                continue
            if "|backend=" in key:
                costs[key] = float(value)
            else:
                migrated[f"{key}|backend={DEFAULT_BACKEND}"] = float(value)
        for key, value in migrated.items():
            costs.setdefault(key, value)
        return costs

    def record(self, task: WorkloadTask, seconds_per_cell: float) -> None:
        """Merge one measured cost into the store (atomic, best-effort).

        The merge happens store-side (:meth:`~repro.store.base.ResultStore.
        merge_meta`): the disk tier runs it under a cross-process file
        lock, the sqlite tier inside a transaction, and the HTTP tier on
        the server — so parallel Sessions and fleet workers sharing one
        store never lose each other's entries.
        """
        try:
            self._store.merge_meta(
                COSTS_META, {self.key(task): seconds_per_cell})
        except Exception:             # noqa: BLE001 - advisory data only
            pass


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


@runtime_checkable
class Executor(Protocol):
    """Strategy for running a list of workload tasks.

    Implementations must return one block per task, **in task order**, with
    each block's (machine, RENO) pairs in grid order — the deterministic
    ordering contract every consumer of :func:`execute_grid` relies on.

    Callers always pass the ``progress``/``cancel`` keyword hooks (see
    :data:`ProgressFn` / :data:`CancelFn`), None when unused.
    """

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: ResultStore | None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[Block]:
        """Run every task and return their blocks in task order."""
        ...  # pragma: no cover - protocol definition


class SerialExecutor:
    """Run every task in-process (full, non-slim outcomes)."""

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: ResultStore | None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[Block]:
        """Run the tasks one after another in the current process."""
        return [
            run_workload_block(task, slim=False, cache=cache,
                               progress=progress, cancel=cancel)
            for task in tasks
        ]


class ProcessExecutor:
    """Fan tasks out over a ``fork`` multiprocessing pool.

    Falls back to :class:`SerialExecutor` whenever a pool cannot help or
    cannot work: a single task, ``jobs <= 1``, a platform without ``fork``,
    or tasks that cannot be pickled.

    Progress streams block by block as workers finish (worker processes
    cannot call back into the parent per cell); cancellation is checked
    between arriving blocks and terminates the pool.
    """

    def __init__(self, jobs: int):
        """Create an executor using at most ``jobs`` worker processes."""
        self.jobs = jobs

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: ResultStore | None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[Block]:
        """Run the tasks on a worker pool (serial fallback when impossible)."""
        jobs = min(self.jobs, len(tasks))
        context = _fork_context()
        if jobs <= 1 or context is None or not _tasks_picklable(tasks):
            return SerialExecutor().execute(tasks, cache, progress=progress,
                                            cancel=cancel)
        blocks: list[Block] = []
        with context.Pool(processes=jobs) as pool:
            # imap preserves task order while letting finished blocks stream
            # back before the whole grid is done (progress + cancellation).
            for block, worker_stats in pool.imap(_worker, tasks):
                if cancel is not None and cancel():
                    pool.terminate()
                    raise ExecutionCancelled(
                        f"cancelled after {len(blocks)}/{len(tasks)} workloads")
                blocks.append(block)
                if cache is not None and worker_stats is not None:
                    cache.stats.hits += worker_stats.hits
                    cache.stats.misses += worker_stats.misses
                    cache.stats.stores += worker_stats.stores
                if progress is not None:
                    for grid_key, outcome in block:
                        progress(grid_key, outcome.cached, outcome)
        return blocks


class AutoExecutor:
    """Adaptive backend selection: recall, else probe, then commit.

    The decision has three phases:

    1. **Static** (:meth:`static_choice`): serial whenever a pool cannot
       possibly win — one CPU, fewer than two tasks, no ``fork``, or
       unpicklable tasks.  This is what fixes the historical single-core
       regression, where fork + pickling overhead made ``jobs=N`` slower
       than the plain loop.
    2. **Recall** (when a cache is active): if the persisted
       :class:`CostModel` has a measured per-cell cost for *every* task,
       the backend is chosen from the recorded costs alone — no probe runs
       at all on repeat grids.
    3. **Probe**: otherwise tasks run in-process until one actually
       *computes* something (an all-cache-hit block costs ~nothing and says
       nothing about simulation cost, so it is consumed and the probe moves
       on), giving a measured per-miss cell cost — which is also recorded
       into the cost model for the next run.  The remaining tasks go to a
       :class:`ProcessExecutor` only when their estimated serial time
       exceeds ``probe_threshold_s``; tiny grids (e.g. micro-workload test
       sweeps) stay serial and skip pool spawn entirely.

    Simulated results are identical whichever backend is chosen; only
    wall-clock time (and outcome slimness, see module docstring) differ.
    """

    def __init__(
        self,
        cpu_count: int | None = None,
        probe_threshold_s: float = PROBE_THRESHOLD_S,
    ):
        """Create the executor.

        Args:
            cpu_count: Override the probed CPU count (for tests).
            probe_threshold_s: Estimated remaining serial seconds above
                which the process pool is chosen.
        """
        self.cpu_count = cpu_count
        self.probe_threshold_s = probe_threshold_s

    def _cpus(self) -> int:
        return self.cpu_count if self.cpu_count is not None else (os.cpu_count() or 1)

    def static_choice(self, tasks: list[WorkloadTask]) -> Executor | None:
        """The backend decidable without probing, or None when a probe is needed."""
        if self._cpus() <= 1 or len(tasks) < 2:
            return SerialExecutor()
        if _fork_context() is None or not _tasks_picklable(tasks):
            return SerialExecutor()
        return None

    def _pool_jobs(self, tasks: list[WorkloadTask]) -> int:
        return min(self._cpus(), len(tasks))

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: ResultStore | None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[Block]:
        """Run the tasks on the backend the cost model or probe selects."""
        choice = self.static_choice(tasks)
        # Recall: with a recorded cost for every task, choose the backend
        # without probing at all (the cross-run cost model lives next to
        # the outcome cache).  Recorded costs assume uncached cells, so
        # before committing to a pool the first task's cache entries are
        # checked: a fully warm leading block means the grid is probably
        # warm, and the probe loop below (which consumes all-hit blocks
        # in-process) handles that case without ever spawning workers.
        model = CostModel(cache) if choice is None and cache is not None else None
        if model is not None:
            costs = model.load()
            if costs:
                known = [costs.get(CostModel.key(task)) for task in tasks]
                if all(cost is not None for cost in known):
                    estimate = sum(cost * task.cells
                                   for cost, task in zip(known, tasks))
                    if estimate < self.probe_threshold_s:
                        choice = SerialExecutor()
                    elif not _task_fully_cached(tasks[0], cache):
                        choice = ProcessExecutor(self._pool_jobs(tasks))
        if choice is not None:
            return choice.execute(tasks, cache, progress=progress, cancel=cancel)

        # Probe in-process until a block actually computes cells: estimating
        # cost from an all-cache-hit block would read as "free" and wrongly
        # keep an expensive, mostly-uncached remainder serial.
        blocks: list[Block] = []
        per_cell = None
        index = 0
        while index < len(tasks):
            task = tasks[index]
            misses_before = cache.stats.misses if cache is not None else 0
            start = time.perf_counter()
            blocks.append(run_workload_block(task, slim=False, cache=cache,
                                             progress=progress, cancel=cancel))
            elapsed = time.perf_counter() - start
            computed = (cache.stats.misses - misses_before
                        if cache is not None else task.cells)
            index += 1
            if computed:
                per_cell = elapsed / computed
                if model is not None:
                    model.record(task, per_cell)
                break

        rest = tasks[index:]
        if not rest:
            return blocks
        # Remaining cells are costed as if uncached — an upper bound, so a
        # warm remainder at worst pays one pool spawn for near-free hits.
        remaining_cells = sum(task.cells for task in rest)
        if per_cell * remaining_cells < self.probe_threshold_s:
            rest_executor = SerialExecutor()
        else:
            rest_executor = ProcessExecutor(self._pool_jobs(rest))
        blocks.extend(rest_executor.execute(rest, cache, progress=progress,
                                            cancel=cancel))
        return blocks


def resolve_executor(
    jobs: int | str | None = None, executor: Executor | None = None
) -> Executor:
    """Normalise the ``jobs=`` / ``executor=`` arguments to an :class:`Executor`.

    * An explicit ``executor`` always wins.
    * ``jobs=None`` (the default) reads ``$REPRO_JOBS``; when that is also
      unset but ``$REPRO_FLEET`` is set, the process-shared distributed
      fleet is selected; otherwise ``"auto"``.
    * ``jobs="auto"`` selects :class:`AutoExecutor`.
    * ``jobs="fleet"`` selects the process-shared
      :class:`repro.api.fleet.FleetExecutor` (broker + worker processes
      over the wire schema; worker count from ``$REPRO_FLEET``).
    * ``jobs<=1`` selects :class:`SerialExecutor`; larger integers select
      :class:`ProcessExecutor` with that many workers.

    Any other value raises :class:`ValueError` naming it.
    """
    if executor is not None:
        return executor
    source = "jobs"
    if jobs is None:
        source = f"${JOBS_ENV}"
        jobs = os.environ.get(JOBS_ENV, "").strip()
        if not jobs:
            jobs = "fleet" if os.environ.get(FLEET_ENV, "").strip() else "auto"
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            return AutoExecutor()
        if jobs.lower() == "fleet":
            # Imported lazily: the fleet lives in the api layer, and plain
            # in-process runs must not pay (or require) its import.
            from repro.api.fleet import shared_fleet

            return shared_fleet()
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(f"{source}={jobs!r} is not an integer, 'auto' "
                             f"or 'fleet'") from None
    if jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)


# ---------------------------------------------------------------------------
# The grid entry point
# ---------------------------------------------------------------------------


def execute_grid(
    workloads: list[Workload],
    machines: dict[str, MachineConfig],
    renos: dict[str, RenoConfig | None],
    *,
    scale: int = 1,
    collect_timing: bool = False,
    record_stats: bool = False,
    max_instructions: int = 2_000_000,
    jobs: int | str | None = None,
    cache: ResultStore | bool | str | None = None,
    executor: Executor | None = None,
    progress: ProgressFn | None = None,
    cancel: CancelFn | None = None,
    backend: str | None = None,
) -> dict[GridKey, SimulationOutcome]:
    """Run the full grid and return outcomes in deterministic grid order.

    Args:
        workloads: Resolved workload objects (one task each).
        machines: Machine-label → configuration.
        renos: RENO-label → configuration (None = baseline).
        scale: Workload scale factor.
        collect_timing: Keep per-instruction timing records.
        record_stats: Record occupancy/utilization histograms per cell
            (``outcome.stats.occupancy``; see :mod:`repro.uarch.observe`).
        max_instructions: Functional-simulation budget.
        jobs: Worker processes: an int, ``"auto"`` (adaptive; the default),
            or None to read ``$REPRO_JOBS``.
        cache: Outcome cache; accepts every form
            :func:`repro.harness.cache.resolve_cache` understands
            (instance / bool / path / None).
        executor: Explicit :class:`Executor` instance (overrides ``jobs``).
        progress: Optional per-cell completion callback
            (:data:`ProgressFn`); this is what streams job progress out of
            a :class:`repro.api.session.Session`.
        cancel: Optional cancellation probe (:data:`CancelFn`); a True
            return aborts the grid with :class:`ExecutionCancelled`.
        backend: Cycle-loop backend name for every simulation in the grid
            (see :mod:`repro.uarch.backend`); None defers to
            ``$REPRO_BACKEND``/``python``.  Provenance only — outcome-cache
            keys do not include it, because results are
            backend-independent.

    Returns:
        ``{(workload name, machine label, reno label): outcome}`` ordered
        exactly as the serial nested loops would produce it.  Outcomes
        computed by worker processes or loaded from the cache are *slim*:
        ``program``/``functional`` are None, while all timing-side fields
        are byte-identical to an in-process run.
    """
    executor = resolve_executor(jobs, executor)
    cache = resolve_cache(cache)
    cache_root = store_locator(cache)
    tasks = build_tasks(
        workloads,
        machines,
        renos,
        scale=scale,
        collect_timing=collect_timing,
        record_stats=record_stats,
        max_instructions=max_instructions,
        cache_root=cache_root,
        backend=backend,
    )
    blocks = (executor.execute(tasks, cache, progress=progress, cancel=cancel)
              if tasks else [])
    outcomes: dict[GridKey, SimulationOutcome] = {}
    for block in blocks:
        for grid_key, outcome in block:
            outcomes[grid_key] = outcome
    return outcomes
