"""Tests for the ``repro.api`` Session/Job facade and wire schema.

Covers: request validation + content-addressed digests, submit/result/
status lifecycle, per-cell progress counters (cold vs warm cache),
coalescing of identical concurrent requests, cancellation, failure
propagation, the thin-client equivalence (``run_experiment`` and the
``figure*`` wrappers route through the default session and stay
byte-identical), and the report schema versioning.
"""

import threading

import pytest

from repro.api import (
    ExperimentRequest,
    JobFailed,
    JobState,
    SchemaError,
    Session,
)
from repro.api.schema import JobStatus
from repro.harness import run_experiment
from repro.harness.experiments import ExperimentReport

SMALL = ["micro_addi_chain", "micro_call_spill"]


def small_request(workloads=None):
    return ExperimentRequest("fig8", suite="micro",
                             workloads=workloads or SMALL[:1])


# ---------------------------------------------------------------------------
# Wire schema
# ---------------------------------------------------------------------------


def test_request_roundtrip_and_digest_stability():
    request = ExperimentRequest("fig11_regs", suite="micro", workloads=SMALL,
                                scale=2, params={"register_sizes": [96, 160]})
    clone = ExperimentRequest.from_dict(request.to_dict())
    assert clone == request
    assert clone.digest() == request.digest()
    # Tuples and lists digest identically (in-process vs wire callers).
    tupled = ExperimentRequest("fig11_regs", suite="micro", workloads=SMALL,
                               scale=2, params={"register_sizes": (96, 160)})
    assert tupled.digest() == request.digest()
    # Any field change moves the digest.
    assert small_request().digest() != request.digest()


@pytest.mark.parametrize("payload", [
    {"experiment": ""},
    {"experiment": "fig8", "scale": 0},
    {"experiment": "fig8", "scale": "2"},
    {"experiment": "fig8", "workloads": "micro_addi_chain"},
    {"experiment": "fig8", "params": []},
    {"experiment": "fig8", "schema_version": 999},
])
def test_malformed_requests_are_rejected(payload):
    with pytest.raises(SchemaError):
        ExperimentRequest.from_dict(payload)


def test_job_status_roundtrip():
    status = JobStatus(job_id="job-0001", state=JobState.RUNNING,
                       experiment="fig8", request=small_request().to_dict(),
                       cells_done=2, cells_total=4, cells_cached=1)
    assert JobStatus.from_dict(status.to_dict()) == status


def test_report_schema_version_is_stamped_and_checked():
    report = run_experiment("fig8", suite="micro", workloads=SMALL[:1],
                            jobs=1, cache=False)
    payload = report.to_dict()
    assert payload["schema_version"] == 2
    assert ExperimentReport.from_dict(payload) == report
    # Artifacts that predate versioning read as version 1 (all other
    # fields still round-trip).
    legacy = dict(payload)
    del legacy["schema_version"]
    parsed = ExperimentReport.from_dict(legacy)
    assert parsed.schema_version == 1
    assert parsed.rows == report.rows
    assert parsed.data == report.data
    # Newer-than-us artifacts fail loudly.
    payload["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version 99"):
        ExperimentReport.from_dict(payload)


# ---------------------------------------------------------------------------
# Session lifecycle
# ---------------------------------------------------------------------------


def test_submit_result_and_progress(tmp_path):
    seen = []
    with Session(jobs=1, cache=tmp_path / "cache") as session:
        job = session.submit(small_request(),
                             on_progress=lambda j, key, cached: seen.append((key, cached)))
        report = job.result(timeout=120)
        status = job.status()
    assert status.state == JobState.SUCCEEDED
    assert status.cells_total == 4          # 1 workload x 2 machines x 2 renos
    assert status.cells_done == status.cells_total == len(seen)
    assert status.cells_cached == 0         # cold cache
    assert not any(cached for _, cached in seen)
    assert report.rows
    assert status.report == report.to_dict()


def test_warm_resubmit_is_fully_cached(tmp_path):
    with Session(jobs=1, cache=tmp_path / "cache") as session:
        cold = session.submit(small_request()).result(timeout=120)
        warm_job = session.submit(small_request())
        warm = warm_job.result(timeout=120)
        status = warm_job.status()
    assert warm.rows == cold.rows
    assert warm.data == cold.data
    assert status.cells_cached == status.cells_done == status.cells_total


def test_sync_run_matches_async_submit(tmp_path):
    with Session(jobs=1, cache=tmp_path / "cache") as session:
        sync = session.run(small_request())
        asynch = session.submit(small_request()).result(timeout=120)
    assert sync.to_dict() == asynch.to_dict()


def test_identical_concurrent_requests_coalesce(tmp_path):
    release = threading.Event()
    started = threading.Event()

    def slow_progress(job, key, cached):
        started.set()
        release.wait(timeout=60)

    with Session(jobs=1, cache=tmp_path / "cache") as session:
        first = session.submit(
            ExperimentRequest("fig8", suite="micro", workloads=SMALL),
            on_progress=slow_progress)
        started.wait(timeout=60)
        second = session.submit(
            ExperimentRequest("fig8", suite="micro", workloads=SMALL))
        release.set()
        assert second is first
        assert first.submissions == 2
        assert first.result(timeout=120).rows
    # A *different* request never coalesces.
    with Session(jobs=1, cache=tmp_path / "cache") as session:
        job_a = session.submit(small_request())
        job_b = session.submit(ExperimentRequest("mix", suite="micro",
                                                 workloads=SMALL[:1]))
        assert job_a is not job_b
        job_a.result(timeout=120)
        job_b.result(timeout=120)


def test_unknown_experiment_is_rejected_before_job_creation(tmp_path):
    with Session(cache=tmp_path / "cache") as session:
        with pytest.raises(KeyError, match="no_such_experiment"):
            session.submit(ExperimentRequest("no_such_experiment"))
        assert session.jobs() == []


def test_failed_job_propagates_the_error(tmp_path):
    with Session(jobs=1, cache=tmp_path / "cache") as session:
        job = session.submit(ExperimentRequest("fig8", suite="micro",
                                               workloads=["no_such_workload"]))
        with pytest.raises(JobFailed, match="no_such_workload"):
            job.result(timeout=120)
        status = job.status()
    assert status.state == JobState.FAILED
    assert "no_such_workload" in status.error
    assert status.report is None


def test_cancel_before_start(tmp_path):
    with Session(jobs=1, cache=tmp_path / "cache", workers=1) as session:
        blocker = threading.Event()
        hold = session.submit(small_request(),
                              on_progress=lambda *a: blocker.wait(timeout=60))
        # The single worker is busy; the next job is still pending.
        victim = session.submit(ExperimentRequest("fig8", suite="micro",
                                                  workloads=SMALL))
        assert victim.cancel()
        blocker.set()
        hold.result(timeout=120)
        victim.wait(timeout=120)
        assert victim.status().state == JobState.CANCELLED
        assert not victim.cancel()          # already terminal


def test_session_rejects_bad_submissions(tmp_path):
    with Session(cache=tmp_path / "cache") as session:
        with pytest.raises(TypeError, match="ExperimentRequest"):
            session.submit(42)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(small_request())


# ---------------------------------------------------------------------------
# Thin clients
# ---------------------------------------------------------------------------


def test_legacy_entry_points_route_through_the_session(tmp_path):
    with Session(jobs=1, cache=tmp_path / "cache") as session:
        facade = session.run(small_request())
    legacy = run_experiment("fig8", suite="micro", workloads=SMALL[:1],
                            jobs=1, cache=False)
    assert legacy.rows == facade.rows
    assert legacy.data == facade.data
    assert legacy.experiment == facade.experiment == "fig8"


def test_session_estimates_grid_totals():
    session = Session()
    try:
        from repro.harness.spec import get_experiment

        entry = get_experiment("fig8")
        total = session._estimate_cells(entry, small_request())
        assert total == 4                  # 1 workload x 2 machines x 2 renos
        mix = session._estimate_cells(get_experiment("mix"),
                                      ExperimentRequest("mix", suite="micro"))
        assert mix is None                 # custom-runner shape
    finally:
        session.close()


def test_sync_run_survives_a_cancelled_coalesced_job(tmp_path):
    """run() reuses an identical in-flight job, but another client's
    cancel() must not poison the synchronous caller — it falls back to
    executing the request itself."""
    import threading

    release = threading.Event()
    started = threading.Event()

    def stall(job, key, cached):
        started.set()
        release.wait(timeout=60)

    with Session(jobs=1, cache=tmp_path / "cache") as session:
        request = ExperimentRequest("fig8", suite="micro", workloads=SMALL)
        job = session.submit(request, on_progress=stall)
        started.wait(timeout=60)
        job.cancel()
        release.set()
        report = session.run(request)       # must not raise JobCancelled
        assert report.rows
        job.wait(timeout=120)


# ---------------------------------------------------------------------------
# Job retention and live occupancy
# ---------------------------------------------------------------------------


def test_terminal_jobs_are_evicted_beyond_the_cap(tmp_path):
    """Many sequential jobs must not grow the job table without bound."""
    with Session(jobs=1, cache=tmp_path / "cache", max_retained_jobs=5,
                 job_ttl_s=None) as session:
        job_ids = []
        for index in range(12):
            # Distinct digests: each request is a different workload subset.
            request = ExperimentRequest(
                "mix", suite="micro", workloads=[SMALL[index % 2]],
                scale=1 + index // 2)
            job = session.submit(request)
            job_ids.append(job.job_id)
            assert job.result(timeout=120) is not None
        assert len(session.jobs()) <= 5
        # The most recent job is still queryable; the oldest are gone.
        assert session.job(job_ids[-1]) is not None
        assert session.job(job_ids[0]) is None


def test_job_ttl_sweeps_expired_terminal_jobs(tmp_path):
    with Session(jobs=1, cache=tmp_path / "cache",
                 job_ttl_s=0.05) as session:
        first = session.submit(small_request())
        assert first.result(timeout=120) is not None
        import time

        time.sleep(0.1)
        # The next submission sweeps the expired job.
        second = session.submit(ExperimentRequest(
            "mix", suite="micro", workloads=SMALL[:1]))
        assert second.result(timeout=120) is not None
        assert session.job(first.job_id) is None
        assert session.job(second.job_id) is second


def test_job_ttl_sweeps_on_the_status_path_too(tmp_path):
    """Expired jobs vanish from ``job()``/``jobs()`` without a new submit.

    A status-polling client (``repro serve`` with no further submissions)
    must not see expired jobs forever just because nothing new arrived;
    the sweep runs on the read path as well.  The injected clock makes the
    expiry deterministic — no sleeps.
    """
    class FakeClock:
        def __init__(self):
            self.now = 100.0

        def __call__(self):
            return self.now

    clock = FakeClock()
    with Session(jobs=1, cache=tmp_path / "cache", job_ttl_s=30.0,
                 clock=clock) as session:
        job = session.submit(small_request())
        assert job.result(timeout=120) is not None
        clock.now += 29.0
        assert session.job(job.job_id) is job     # inside the TTL
        clock.now += 2.0                          # now past it
        assert session.job(job.job_id) is None
        assert session.jobs() == []


def test_inflight_jobs_are_never_evicted(tmp_path):
    """The cap only applies to terminal jobs; a running job survives any
    number of subsequent submissions."""
    release = threading.Event()
    started = threading.Event()

    def stall(job, key, cached):
        started.set()
        release.wait(timeout=60)

    with Session(jobs=1, cache=tmp_path / "cache", workers=2,
                 max_retained_jobs=1, job_ttl_s=None) as session:
        running = session.submit(
            ExperimentRequest("fig8", suite="micro", workloads=SMALL),
            on_progress=stall)
        started.wait(timeout=60)
        try:
            quick = session.submit(ExperimentRequest(
                "mix", suite="micro", workloads=SMALL[:1]))
            assert quick.result(timeout=120) is not None
            # In-flight job still present despite the cap of 1.
            assert session.job(running.job_id) is running
        finally:
            release.set()
        assert running.result(timeout=240) is not None


def test_session_rejects_bad_retention_arguments():
    with pytest.raises(ValueError, match="max_retained_jobs"):
        Session(max_retained_jobs=0)
    with pytest.raises(ValueError, match="job_ttl_s"):
        Session(job_ttl_s=0.0)


def test_status_carries_live_occupancy_for_recording_experiments(tmp_path):
    with Session(jobs=1, cache=tmp_path / "cache") as session:
        job = session.submit(ExperimentRequest(
            "bottleneck", suite="micro", workloads=SMALL[:1]))
        report = job.result(timeout=240)
        status = job.status()
    assert status.occupancy
    assert "micro_addi_chain/4wide/RENO" in status.occupancy
    for summary in status.occupancy.values():
        assert 0.0 <= summary["structures"]["rob"]["utilization"] <= 1.0
    # The finished report carries the same per-cell section.
    assert report.occupancy
    assert set(report.occupancy) == set(status.occupancy)
    # And the status round-trips through its wire form, occupancy included.
    assert JobStatus.from_dict(status.to_dict()) == status


def test_status_occupancy_is_none_without_recording(tmp_path):
    with Session(jobs=1, cache=tmp_path / "cache") as session:
        job = session.submit(small_request())
        assert job.result(timeout=120) is not None
        assert job.status().occupancy is None
