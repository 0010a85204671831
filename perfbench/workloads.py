"""The benchmark's workloads: request streams and the clients that send them.

Every workload is a closed loop with one client: it sends a request,
waits for the report, and only then sends the next.  One *pass* is the
whole request stream of a workload.  All workloads use the workload
subsets of ``benchmarks/conftest.py``.

* ``sweep-cold`` — the five kernel-supported grids on the specint subset,
  compiled backend, serial, store off: the paper-reproduction path.
* ``observe-cold`` — the critical-path figure (fig9), whose timing
  records the compiled kernel refuses, so the python cycle loop and
  ``analysis.critpath`` do the work: the bypass workload for any change
  to the compiled path.
* ``service-mixed`` — an in-process ``repro serve`` on loopback with a
  seeded stream of first-seen requests (two of them run on a process
  pool), repeats (store hits) and back-to-back duplicates (in-flight
  coalescing).
* ``fleet-cold`` — ``sweep-cold``'s grids on a two-worker fleet with an
  empty store at the start of every pass.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.check import Checker, Request, bench_subsets

#: The five grids the compiled kernel runs end to end.
SWEEP_GRIDS = ("fig8", "fig10", "fig11_regs", "fig11_width", "fig12")

#: Indices into each bench subset: two disjoint workload subsets, and a
#: single workload (one task, which the auto executor runs serially
#: without probing).
SPLITS = {"a": (0, 3, 4), "b": (1, 2), "c": (2,)}

#: The distinct requests of a ``service-mixed`` pass: every experiment on
#: both suites, each on one subset and scale, half of them at scale 2.
#: With the default executor (``auto``) the two ``specint`` grids on
#: subset ``a`` at scale 2 go to a process pool and the others run
#: serially.  Every estimate the auto executor makes here is at least
#: twice or at most half its 0.5 s pool threshold, so the choice holds
#: while the host's speed drifts.
SERVICE_PLAN = (
    ("fig8", "specint", "b", 2), ("fig8", "mediabench", "a", 1),
    ("fig10", "specint", "b", 1), ("fig10", "mediabench", "b", 2),
    ("fig11_regs", "specint", "a", 2), ("fig11_regs", "mediabench", "c", 1),
    ("fig12", "specint", "a", 2), ("fig12", "mediabench", "b", 1),
)

#: How long one request may take before the client gives up on it.
REQUEST_TIMEOUT_S = 120.0

#: Seconds the calibration loop takes on the reference host (a 2-core
#: container on which one ``sweep-cold`` pass takes about 3 s).
CALIBRATION_REF_S = 0.008

#: Calibration loops per core before and after a pass, and between its
#: requests.
CALIBRATION_LOOPS = 8
CALIBRATION_LOOPS_BETWEEN = 3


def _calibration_loop() -> float:
    """Seconds one fixed piece of interpreter work takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    values: list[int] = []
    x = 0
    for i in range(40_000):
        x = (x * 31 + i) & 0xFFFF
        table[x & 1023] = i
        if i & 7 == 0:
            values.append(table.get(x & 511, 0))
    return time.perf_counter() - start


def loop_times(all_cores: bool = False, count: int = CALIBRATION_LOOPS) -> list[float]:
    """``count`` timings of the calibration loop where the process runs
    or, with ``all_cores``, as many on each core (for work spread over
    several processes)."""
    allowed = os.sched_getaffinity(0)
    cores = sorted(allowed) if all_cores else [None]
    times = []
    try:
        for cpu in cores:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            times += [_calibration_loop() for _ in range(count)]
    finally:
        if all_cores:
            os.sched_setaffinity(0, allowed)
    return times


def host_factor(times: list[float]) -> float:
    """How much faster than the reference host this one ran while the
    calibration loop took ``times``.

    The host shares its cores with other machines: its speed jumps by a
    third from one tenth of a second to the next and drifts by a third
    within minutes.  One short loop samples that speed at one moment, so
    a factor is taken from the mean of many loops.  Multiplying computing
    time in host seconds by it gives reference-host seconds.
    """
    return CALIBRATION_REF_S / statistics.fmean(times)


def cpu_seconds(pids=()) -> float:
    """CPU seconds used so far by this process, its reaped children and
    the live processes ``pids``."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / ticks   # utime, stime
        except (OSError, IndexError, ValueError):
            pass
    return total


class Calibrated:
    """Times the requests of one pass in reference-host seconds.

    Host speed stretches only the time spent computing, not the time
    spent waiting on timers (a hit on ``service-mixed`` is mostly two
    40 ms TCP delayed-ACK waits).  So each :meth:`span` is split by its
    CPU share (CPU seconds of the processes doing the work over wall
    seconds, at most 1): the waiting part is kept as measured and the
    computing part is scaled by the host factor of calibration loops run
    before and after the pass and, unless ``between`` is false, between
    its spans; never inside one.
    """

    def __init__(self, all_cores: bool = False, pids=(), between: bool = True):
        self._all_cores = all_cores
        self._pids = pids
        self._between = between
        self._spans: list[tuple[list["Sample"], float, float]] = []
        self._loops = loop_times(all_cores)

    @contextlib.contextmanager
    def span(self):
        """Time the block; it appends the samples it produced to the list
        it is given, in host seconds."""
        samples: list[Sample] = []
        start, cpu = time.perf_counter(), cpu_seconds(self._pids)
        try:
            yield samples
        finally:
            wall = time.perf_counter() - start
            share = min(1.0, (cpu_seconds(self._pids) - cpu) / wall) if wall > 0 else 1.0
            self._spans.append((samples, wall, share))
        if self._between:
            self._loops += loop_times(self._all_cores, CALIBRATION_LOOPS_BETWEEN)

    def result(self, committed: int) -> "PassResult":
        """The pass, with every latency converted to reference seconds."""
        factor = host_factor(self._loops + loop_times(self._all_cores))
        samples, wall_s, raw_s = [], 0.0, 0.0
        for span_samples, wall, share in self._spans:
            scale = 1.0 - share + share * factor
            for sample in span_samples:
                sample.latency_s *= scale
            samples += span_samples
            wall_s += wall * scale
            raw_s += wall
        return PassResult(wall_s, samples, committed, raw_s)


def _subsets() -> dict[str, tuple[str, ...]]:
    raw = bench_subsets()
    return {"specint": tuple(raw["SPEC_SUBSET"]),
            "mediabench": tuple(raw["MEDIA_SUBSET"]),
            "critpath-specint": tuple(raw["CRITPATH_SPEC_SUBSET"]),
            "critpath-mediabench": tuple(raw["CRITPATH_MEDIA_SUBSET"])}


def sweep_requests() -> list[Request]:
    """The requests of one ``sweep-cold`` / ``fleet-cold`` pass."""
    spec = _subsets()["specint"]
    return [Request(grid, "specint", spec) for grid in SWEEP_GRIDS]


def observe_requests() -> list[Request]:
    """The requests of one ``observe-cold`` pass: both critical-path
    subsets, then each specint one alone.

    Five requests of distinct latency over seven passes put the median
    and the tail (the 11th-highest of 35 samples) each in the middle of
    one request's seven samples, not on the edge between two requests.
    """
    subsets = _subsets()
    return ([Request("fig9", "specint", subsets["critpath-specint"]),
             Request("fig9", "mediabench", subsets["critpath-mediabench"])]
            + [Request("fig9", "specint", (workload,))
               for workload in subsets["critpath-specint"]])


def service_requests() -> list[Request]:
    """The distinct requests of one ``service-mixed`` pass."""
    subsets = _subsets()
    return [Request(experiment, suite,
                    tuple(subsets[suite][i] for i in SPLITS[split]), scale)
            for experiment, suite, split, scale in SERVICE_PLAN]


def service_stream(seed: int, distinct: list[Request]) -> list[tuple[Request, ...]]:
    """The ``service-mixed`` request stream for ``seed`` (a pure function).

    Returns groups of requests sent back to back before the client waits.
    Distinct requests come in plan order, so every seed computes the same
    cells with the same cost-model history.  After each first-seen
    request, two repeats of earlier requests follow, drawn by the seed so
    that every distinct request is repeated exactly twice: about two of
    every three requests are store hits.  Every fourth first-seen request is
    sent twice back to back, so the second copy coalesces onto the first.
    """
    rng = random.Random(seed)
    owed: list[Request] = []          # repeats not sent yet
    groups: list[tuple[Request, ...]] = []
    for index, request in enumerate(distinct):
        groups.append((request, request) if index % 4 == 3 else (request,))
        owed += [request, request]
        if index:                     # draw from every repeat still owed
            for _ in range(2):
                groups.append((owed.pop(rng.randrange(len(owed))),))
    rng.shuffle(owed)
    return groups + [(request,) for request in owed]


def expected_kinds(distinct: list[Request]) -> dict[str, int]:
    """The hit/miss/coalesced counts every ``service-mixed`` pass must show."""
    return {"hit": 2 * len(distinct), "miss": len(distinct),
            "coalesced": len(distinct) // 4}


@dataclass
class Sample:
    """One request as the client saw it."""

    request: Request
    latency_s: float
    kind: str                        # "miss", "hit" or "coalesced"
    report: dict | None = None       # an ExperimentReport until checked
    error: str | None = None


@dataclass
class PassResult:
    """One pass of a workload's stream."""

    wall_s: float
    samples: list[Sample] = field(default_factory=list)
    committed: int = 0               # instructions of computed cells
    raw_wall_s: float = 0.0          # host seconds, not calibrated


class CommitCounter:
    """Public progress callback summing committed instructions.

    Only computed cells count; store hits simulate nothing.  Thread-safe,
    because a serving session reports cells from its worker threads.
    """

    def __init__(self):
        self.committed = 0
        self._lock = threading.Lock()

    def __call__(self, grid_key, cached, outcome) -> None:
        if not cached:
            with self._lock:
                self.committed += outcome.stats.committed

    def take(self) -> int:
        """The count so far, resetting it to zero."""
        with self._lock:
            committed, self.committed = self.committed, 0
        return committed


class CountingExecutor:
    """Executor front that feeds every cell to a :class:`CommitCounter`.

    A serving session gives its executor the job's own progress callback;
    this front adds the counter beside it and leaves everything else to
    the wrapped executor.
    """

    def __init__(self, inner, counter: CommitCounter):
        self.inner = inner
        self.counter = counter

    def execute(self, tasks, cache, progress=None, cancel=None):
        """Run ``tasks`` on the wrapped executor, counting each cell."""
        counter = self.counter

        def both(grid_key, cached, outcome=None):
            counter(grid_key, cached, outcome)
            if progress is not None:
                progress(grid_key, cached, outcome)

        return self.inner.execute(tasks, cache, progress=both, cancel=cancel)


def peak_rss_mb(extra_pids=()) -> float:
    """Peak resident memory of this process plus ``extra_pids``, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


class Workload:
    """Base class: one named request stream and the client that sends it."""

    name = ""
    why = ""
    #: Expected wall-clock of one pass on a 2-core host; fixes how many
    #: passes a run makes for a given ``--seconds`` (see ``run.py``).
    nominal_pass_s = 1.0
    #: Set-up steps a fresh process performs (see ``setup_probe.py``).
    setup_kind = "inproc"
    #: Whether the workload's numbers mean anything on the python loop.
    needs_compiled = False
    #: Whether its work runs on several cores at once (pooled cells,
    #: fleet workers), so the calibration loop runs on every core.
    multi_core = False

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.checker = Checker()
        self.counter = CommitCounter()

    def start(self) -> None:
        """Main-process set-up, after the kernel is loaded."""

    def warm(self) -> None:
        """Untimed requests that finish lazy set-up before timing."""

    def run_pass(self) -> PassResult:
        """Send the whole stream once and return what the client saw."""
        raise NotImplementedError

    def check(self, result: PassResult) -> list[str]:
        """Problems with a pass's reports (empty when all are right)."""
        problems = []
        for sample in result.samples:
            if sample.error is not None:
                problems.append(sample.error)
                continue
            problem = self.checker.problem(sample.request, sample.report)
            if problem is not None:
                sample.error = problem
                problems.append(problem)
        return problems

    def close(self) -> None:
        """Stop everything :meth:`start` started."""

    def worker_pids(self) -> list[int]:
        """Long-lived processes, besides this one, that do its work."""
        return []

    def memory_mb(self) -> float:
        """Peak host memory of the processes serving this workload."""
        return peak_rss_mb(self.worker_pids())

    def counters(self) -> dict:
        """Cumulative counters the program exposes for this workload."""
        return {}


class InProcessSweep(Workload):
    """Requests made with ``run_experiment`` in this process; each grid runs
    serially with the store off.

    The stream is the same for every seed: a grid's latency depends on the
    grids before it (caches, the fleet's trace memo), so a seeded order
    would move per-request latencies between runs without changing the
    work.
    """

    #: Builds the pass's requests.
    make_requests = staticmethod(sweep_requests)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.requests = self.make_requests()

    def _engine(self) -> dict:
        return {"jobs": 1, "cache": False}

    def _run(self, request: Request):
        from repro.harness.spec import run_experiment

        return run_experiment(
            request.experiment, suite=request.suite,
            workloads=list(request.workloads), scale=request.scale,
            backend="compiled", progress=self.counter, **self._engine())

    def warm(self) -> None:
        first = self.requests[0]
        self._run(Request(first.experiment, first.suite, first.workloads[:1]))
        self.counter.take()

    def run_pass(self) -> PassResult:
        clock = Calibrated(self.multi_core, self.worker_pids())
        for request in self.requests:
            with clock.span() as samples:
                sent = time.perf_counter()
                try:
                    report = self._run(request)
                    error = None
                except Exception as exc:      # noqa: BLE001 - counted as failed
                    report, error = None, f"{request.key}: {type(exc).__name__}: {exc}"
                samples.append(Sample(request, time.perf_counter() - sent,
                                      "miss", report, error))
        return clock.result(self.counter.take())

    def check(self, result: PassResult) -> list[str]:
        # Reports are serialised here, where a traced run has its recorder
        # paused: the serialisation is the benchmark's, not the program's.
        for sample in result.samples:
            if sample.report is not None:
                sample.report = sample.report.to_dict()
        return super().check(result)


class SweepCold(InProcessSweep):
    name = "sweep-cold"
    why = ("paper-reproduction path: five kernel-supported grids computed "
           "cold on the compiled backend; functional sim, flatten, marshal "
           "and kernel do the work")
    nominal_pass_s = 3.0
    needs_compiled = True


class ObserveCold(InProcessSweep):
    name = "observe-cold"
    why = ("critical-path figure whose timing records the kernel refuses: "
           "python cycle loop and critpath analysis do the work; bypasses "
           "the compiled path")
    nominal_pass_s = 2.3
    make_requests = staticmethod(observe_requests)


class FleetCold(InProcessSweep):
    name = "fleet-cold"
    why = ("sweep-cold grids on a two-worker fleet with an empty store each "
           "pass: broker leases, worker processes and store commits")
    nominal_pass_s = 2.1
    setup_kind = "fleet"
    needs_compiled = True
    multi_core = True

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.fleet = None
        self._store = None

    def start(self) -> None:
        from repro.api import FleetExecutor

        self.fleet = FleetExecutor(workers=2)
        self.fleet.ensure_started()
        deadline = time.monotonic() + 60
        while self.fleet.broker.worker_count() < 2:
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers did not register within 60 s")
            time.sleep(0.01)

    def _engine(self) -> dict:
        return {"executor": self.fleet, "cache": self._store}

    def _fresh_store(self) -> None:
        from repro.store import DiskStore

        self._drop_store()
        self._store = DiskStore(tempfile.mkdtemp(prefix="fleet-store-",
                                                 dir=self.work_dir))

    def _drop_store(self) -> None:
        if self._store is not None:
            shutil.rmtree(self._store.root, ignore_errors=True)
            self._store = None

    def warm(self) -> None:
        # Worker processes load the kernel and import lazily on their first
        # cells; one untimed grid spreads cells over both workers.
        self._fresh_store()
        self._run(self.requests[0])
        self.counter.take()

    def run_pass(self) -> PassResult:
        self._fresh_store()
        return super().run_pass()

    def counters(self) -> dict:
        """The broker's counters, read from ``GET /fleet/stats``."""
        connection = http.client.HTTPConnection(
            self.fleet.url.split("//", 1)[1], timeout=30)
        try:
            connection.request("GET", "/fleet/stats")
            return json.loads(connection.getresponse().read())["counters"]
        finally:
            connection.close()

    def worker_pids(self) -> list[int]:
        with self.fleet._lock:
            return [process.pid for process in self.fleet.processes]

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
        self._drop_store()


class ServiceMixed(Workload):
    name = "service-mixed"
    why = ("seeded stream to an in-process repro serve: 2/3 store hits, "
           "misses run serially or on a process pool as the auto executor "
           "picks, back-to-back duplicates coalesce")
    nominal_pass_s = 3.75
    setup_kind = "service"
    multi_core = True                # pooled cells run in child processes

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.distinct = service_requests()
        self.groups = service_stream(seed, self.distinct)
        self.expected_kinds = expected_kinds(self.distinct)
        self.kind_counts: list[dict[str, int]] = []
        self._server = None
        self._thread = None
        self._cache_dir = None

    def _serve(self) -> None:
        """A fresh session, store and server (outside the timed region)."""
        from repro.api import Session, make_server
        from repro.harness.executors import AutoExecutor

        self._stop()
        self._cache_dir = tempfile.mkdtemp(prefix="service-store-",
                                           dir=self.work_dir)
        os.environ["REPRO_CACHE_DIR"] = self._cache_dir
        session = Session(executor=CountingExecutor(AutoExecutor(), self.counter),
                          backend="compiled")
        session.cache                        # open the store now
        self._server = make_server("127.0.0.1", 0, session=session)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._thread.start()

    def _stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server.session.close()
            self._thread.join(timeout=30)
            self._server = self._thread = None
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None
        os.environ.pop("REPRO_CACHE_DIR", None)

    def start(self) -> None:
        self._serve()

    def warm(self) -> None:
        connection = self._connect()
        try:
            request = self.distinct[0]
            small = Request(request.experiment, request.suite,
                            request.workloads[:1], 1)
            for _ in range(2):               # one miss, one hit
                self._send(connection, (small,))
        finally:
            connection.close()
        self.counter.take()

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._server.server_address[:2]
        return http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    @staticmethod
    def _call(connection, method: str, path: str, body: dict | None = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    def _send(self, connection, group: tuple[Request, ...]) -> list[Sample]:
        """Submit ``group`` back to back, then wait for every job."""
        submitted = []
        for request in group:
            sent = time.perf_counter()
            status, body = self._call(connection, "POST", "/experiments",
                                      request.body())
            if status != 202:
                submitted.append((request, sent, None, False,
                                  f"{request.key}: POST {status}: {body.get('error')}"))
            else:
                submitted.append((request, sent, body["job_id"],
                                  body.get("coalesced", False), None))
        samples = []
        deadline = time.perf_counter() + REQUEST_TIMEOUT_S
        finished: dict[str, tuple[float, dict]] = {}
        for request, sent, job_id, coalesced, error in submitted:
            if error is not None:
                samples.append(Sample(request, time.perf_counter() - sent,
                                      "miss", error=error))
                continue
            while job_id not in finished:
                status, body = self._call(connection, "GET",
                                          f"/jobs/{job_id}?wait=30")
                if status != 200 or body["state"] in ("succeeded", "failed",
                                                      "cancelled"):
                    finished[job_id] = (time.perf_counter(), body)
                elif time.perf_counter() > deadline:
                    finished[job_id] = (time.perf_counter(),
                                        {"state": "timeout"})
            done, body = finished[job_id]
            if coalesced:
                kind = "coalesced"
            elif body.get("cells_total") and body.get("cells_cached") == body["cells_total"]:
                kind = "hit"
            else:
                kind = "miss"
            error = (None if body.get("state") == "succeeded" else
                     f"{request.key}: job {body.get('state')}: {body.get('error')}")
            samples.append(Sample(request, done - sent, kind,
                                  report=body.get("report"), error=error))
        return samples

    def run_pass(self) -> PassResult:
        self._serve()
        connection = self._connect()
        # Requests follow each other with no pause (the clock calibrates
        # only before and after the pass): a pause between them would let
        # the client's delayed-ACK timer fire, which changes how many of
        # the server's responses wait out a 40 ms Nagle stall.
        clock = Calibrated(self.multi_core, self.worker_pids(), between=False)
        try:
            for group in self.groups:
                with clock.span() as samples:
                    sent = time.perf_counter()
                    try:
                        samples += self._send(connection, group)
                    except (OSError, http.client.HTTPException, ValueError) as exc:
                        samples += [Sample(request, time.perf_counter() - sent,
                                           "miss", error=f"{request.key}: {exc}")
                                    for request in group]
                        connection.close()
                        connection = self._connect()
        finally:
            connection.close()
        result = clock.result(self.counter.take())
        kinds = {kind: 0 for kind in self.expected_kinds}
        for sample in result.samples:
            kinds[sample.kind] += 1
        self.kind_counts.append(kinds)
        return result

    def check(self, result: PassResult) -> list[str]:
        problems = super().check(result)
        if self.kind_counts and self.kind_counts[-1] != self.expected_kinds:
            problems.append(f"hit/miss/coalesced counts {self.kind_counts[-1]} "
                            f"differ from the stream's {self.expected_kinds}")
        return problems

    def close(self) -> None:
        self._stop()


WORKLOADS = {cls.name: cls for cls in (SweepCold, ObserveCold, ServiceMixed,
                                       FleetCold)}


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest sample with 10 samples above it.

    With ``n`` samples that is the ``100 * (n - 11) / (n - 1)``-th
    percentile by nearest rank.  When that is not above the median
    (``n <= 21``) there are too few samples for a tail, and the median is
    returned as the 50th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11
    if 2 * index <= n - 1:
        return 50.0, statistics.median(ordered)
    return 100.0 * index / (n - 1), ordered[index]
