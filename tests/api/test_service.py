"""Tests for ``repro serve``: the HTTP front-end and its CLI clients.

An in-process :class:`~repro.api.service.ReproServer` (ephemeral port,
driven from a background thread) covers the endpoint table: health,
registry listing, submit → poll → report, long-polling, warm-cache
resubmission (identical JSON, all cells cached), concurrent-submit
coalescing, cancellation and the error paths.  One subprocess test boots
the real ``python -m repro serve`` and drives it with the ``submit`` /
``status`` CLI subcommands end to end; another boots ``python -m repro
store-serve`` and checks its SIGTERM shutdown.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import Session, make_server
from repro.harness.experiments import ExperimentReport

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SMALL = ["micro_addi_chain"]

REQUEST = {"experiment": "fig8", "suite": "micro", "workloads": SMALL,
           "scale": 1, "params": {}}


@pytest.fixture()
def server(tmp_path):
    """An in-process service on an ephemeral port, torn down after the test."""
    instance = make_server(port=0, session=Session(jobs=1,
                                                   cache=tmp_path / "cache"))
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    host, port = instance.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        instance.shutdown()
        instance.server_close()
        instance.session.close(wait=False)
        thread.join(timeout=10)


def call(base, path, payload=None, timeout=60.0):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if payload is not None else "GET")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def call_error(base, path, payload=None):
    try:
        call(base, path, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    raise AssertionError(f"{path} unexpectedly succeeded")


def test_healthz_and_registry(server):
    code, body = call(server, "/healthz")
    assert (code, body["ok"]) == (200, True)
    code, body = call(server, "/experiments")
    names = [entry["name"] for entry in body["experiments"]]
    assert code == 200 and "fig8" in names and "scale_sweep" in names


def test_submit_poll_and_cached_resubmit(server):
    code, submitted = call(server, "/experiments", REQUEST)
    assert code == 202 and submitted["job_id"]
    assert submitted["coalesced"] is False

    code, status = call(server, f"/jobs/{submitted['job_id']}?wait=60")
    assert code == 200
    assert status["state"] == "succeeded"
    assert status["cells_done"] == status["cells_total"] == 4
    assert status["cells_cached"] == 0           # cold run
    report = ExperimentReport.from_dict(status["report"])
    assert report.rows and report.experiment == "fig8"

    # Identical resubmission: a new job, every cell a cache hit, and the
    # report JSON byte-identical to the cold run's.
    code, resubmitted = call(server, "/experiments", REQUEST)
    assert code == 202 and resubmitted["job_id"] != submitted["job_id"]
    _, warm = call(server, f"/jobs/{resubmitted['job_id']}?wait=60")
    assert warm["state"] == "succeeded"
    assert warm["cells_cached"] == warm["cells_total"] == 4
    assert json.dumps(warm["report"], sort_keys=True) == \
        json.dumps(status["report"], sort_keys=True)


def test_concurrent_identical_submissions_coalesce(server):
    # Two rapid-fire submissions of a fresh request: the second must land on
    # the first job (content-addressed in-flight coalescing).
    request = dict(REQUEST, workloads=["micro_addi_chain", "micro_call_spill"])
    _, first = call(server, "/experiments", request)
    _, second = call(server, "/experiments", request)
    if second["job_id"] == first["job_id"]:
        assert second["coalesced"] is True
    else:
        # The first job can finish before the second arrives on a fast
        # machine; then the cache must have absorbed the repeat instead.
        _, warm = call(server, f"/jobs/{second['job_id']}?wait=60")
        assert warm["cells_cached"] == warm["cells_total"]
    _, done = call(server, f"/jobs/{first['job_id']}?wait=60")
    assert done["state"] == "succeeded"


def test_cancel_endpoint(server):
    _, submitted = call(server, "/experiments",
                        dict(REQUEST, workloads=["micro_addi_chain"],
                             scale=3))
    code, cancelled = call(server, f"/jobs/{submitted['job_id']}/cancel",
                           payload={})
    assert code == 200 and cancelled["job_id"] == submitted["job_id"]
    _, status = call(server, f"/jobs/{submitted['job_id']}?wait=60")
    assert status["state"] in ("cancelled", "succeeded")


def test_error_paths(server):
    code, body = call_error(server, "/jobs/nope")
    assert code == 404 and "unknown job" in body["error"]
    code, body = call_error(server, "/nope")
    assert code == 404
    code, body = call_error(server, "/experiments",
                            {"experiment": "not_registered"})
    assert code == 404 and "not_registered" in body["error"]
    code, body = call_error(server, "/experiments", {"experiment": ""})
    assert code == 400
    code, body = call_error(server, "/experiments",
                            {"experiment": "fig8", "schema_version": 99})
    assert code == 400 and "wire schema" in body["error"]


def test_serve_smoke_subprocess(tmp_path):
    """Boot the real `python -m repro serve` and drive it with the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True)
    try:
        line = server.stdout.readline()
        assert "listening on " in line, line
        base = line.rsplit(" ", 1)[-1].strip()

        def cli(*args, check=True):
            result = subprocess.run(
                [sys.executable, "-m", "repro", *args, "--server", base],
                capture_output=True, text=True, env=env, timeout=300)
            if check:
                assert result.returncode == 0, result.stderr
            return result

        submitted = cli("submit", "fig8", "--suite", "micro",
                        "--workloads", "micro_addi_chain", "--wait",
                        "--json", "-")
        report = ExperimentReport.from_json(
            submitted.stdout[submitted.stdout.index("{"):])
        assert report.experiment == "fig8" and report.rows

        job_id = cli("submit", "fig8", "--suite", "micro",
                     "--workloads", "micro_addi_chain").stdout.strip()
        status = cli("status", job_id, "--wait", "60", "--json", "-")
        payload = json.loads(status.stdout[status.stdout.index("{"):])
        assert payload["state"] == "succeeded"
        assert payload["cells_cached"] == payload["cells_total"]
        warm = ExperimentReport.from_dict(payload["report"])
        assert warm.to_dict() == report.to_dict()
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()
    assert "shut down cleanly" in output


def test_store_serve_smoke_subprocess(tmp_path):
    """Boot the real `python -m repro store-serve` and stop it with SIGTERM."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_STORE_TOKEN", None)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "store-serve", "--port", "0",
         "--db", str(tmp_path / "store.sqlite3")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True)
    try:
        line = server.stdout.readline()
        assert "listening on " in line, line
        base = line.split("listening on ", 1)[1].split()[0]
        code, body = call(base, "/healthz")
        assert (code, body["ok"]) == (200, True)
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()
    assert server.returncode == 0, output
    assert "shut down cleanly" in output


def test_wait_parameter_validation(server):
    """Malformed ?wait= answers 400; negatives and oversized values clamp."""
    _, submitted = call(server, "/experiments", REQUEST)
    job_id = submitted["job_id"]
    for bad in ("abc", "", "nan", "1.5x"):
        code, body = call_error(server, f"/jobs/{job_id}?wait={bad}")
        assert code == 400, bad
        assert "wait" in body["error"]
    # Negative waits clamp to zero (an immediate status read).
    code, status = call(server, f"/jobs/{job_id}?wait=-1")
    assert code == 200 and status["job_id"] == job_id
    # Oversized waits clamp to the server maximum instead of erroring; the
    # job finishes well inside it, so this returns promptly.
    code, status = call(server, f"/jobs/{job_id}?wait=99999")
    assert code == 200 and status["state"] == "succeeded"


def test_job_routes_unquote_the_id_segment(server):
    """URL-encoded job ids resolve to the same job on GET and cancel."""
    _, submitted = call(server, "/experiments", REQUEST)
    job_id = submitted["job_id"]
    encoded = job_id.replace("-", "%2D")
    assert encoded != job_id
    code, status = call(server, f"/jobs/{encoded}?wait=60")
    assert code == 200 and status["job_id"] == job_id
    code, cancelled = call(server, f"/jobs/{encoded}/cancel", payload={})
    assert code == 200 and cancelled["job_id"] == job_id
    # An unknown encoded id still 404s with the decoded name.
    code, body = call_error(server, "/jobs/no%20such%20job")
    assert code == 404 and "no such job" in body["error"]


def test_submit_survives_bare_keyerror(server, monkeypatch):
    """A bare KeyError() from the session must surface as a 404, not crash
    the handler (str(error.args[0]) used to raise IndexError)."""
    from repro.api.session import Session as SessionClass

    def raise_bare(self, request, on_progress=None):
        raise KeyError()

    monkeypatch.setattr(SessionClass, "submit", raise_bare)
    code, body = call_error(server, "/experiments", REQUEST)
    assert code == 404
    assert isinstance(body["error"], str)


def test_job_status_carries_occupancy_for_recording_experiments(server):
    request = dict(REQUEST, experiment="bottleneck")
    _, submitted = call(server, "/experiments", request)
    _, status = call(server, f"/jobs/{submitted['job_id']}?wait=60")
    assert status["state"] == "succeeded"
    assert status["occupancy"]
    cell = status["occupancy"]["micro_addi_chain/4wide/RENO"]
    assert 0.0 <= cell["structures"]["rob"]["utilization"] <= 1.0
    assert 0.0 <= cell["issue"]["utilization"] <= 1.0
    # The finished report embeds the same section.
    assert status["report"]["occupancy"]
    assert set(status["report"]["occupancy"]) == set(status["occupancy"])
    # Non-recording experiments keep the field null.
    _, plain = call(server, "/experiments", REQUEST)
    _, plain_status = call(server, f"/jobs/{plain['job_id']}?wait=60")
    assert plain_status["state"] == "succeeded"
    assert plain_status["occupancy"] is None
