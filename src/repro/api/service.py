"""``python -m repro serve``: JSON-over-HTTP front-end for a Session.

A deliberately dependency-free service (stdlib ``http.server`` only) that
maps the :class:`~repro.api.session.Session` facade onto five endpoints:

========  =======================  ==========================================
method    path                     behaviour
========  =======================  ==========================================
GET       ``/healthz``             liveness probe (``{"ok": true}``)
GET       ``/experiments``         the experiment registry (names + titles)
POST      ``/experiments``         submit an ``ExperimentRequest`` body →
                                   202 with ``job_id`` (identical concurrent
                                   requests coalesce onto one job)
GET       ``/jobs/<id>``           job status incl. per-cell progress and,
                                   when finished, the serialised report;
                                   ``?wait=<seconds>`` long-polls
POST      ``/jobs/<id>/cancel``    cooperative cancellation
GET       ``/fleet``               broker stats when the session executes
                                   on a worker fleet (404 otherwise)
GET       ``/store/stats``         result-store counters (hits, misses,
                                   evictions, bytes — see ``docs/store.md``)
                                   when the session has a store (404
                                   otherwise)
========  =======================  ==========================================

When the session runs on a :class:`~repro.api.fleet.FleetExecutor`, a
submission that would overflow the broker queue is refused with a
structured **429** (``retry_after_s`` plus the live queue numbers) instead
of growing memory without bound — the fleet's backpressure surfaced at the
HTTP edge.

Requests are handled on one thread each (``ThreadingHTTPServer``), the
CPU-heavy work lives on the session's workers, and identical concurrent
submissions execute once: in-flight requests via the session's
content-addressed coalescing, repeats via the result store.  Two *separate*
``repro serve`` processes sharing a store (``--store sqlite://…`` or an
HTTP store URL) coalesce across processes too — the store carries the
in-flight claim markers (see ``docs/store.md``).
"""

from __future__ import annotations

from urllib.parse import unquote

from repro.api.schema import WIRE_SCHEMA_VERSION, ExperimentRequest, SchemaError
from repro.api.session import Session
from repro.jsonhttp import JSONHTTPServer, JSONRequestHandler, serve_until_signalled

#: Default bind address of ``python -m repro serve``.
DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``python -m repro serve``.
DEFAULT_PORT = 8765

#: Upper bound on ``?wait=`` long-poll durations (seconds).
MAX_WAIT_S = 60.0


class ReproServer(JSONHTTPServer):
    """A threading HTTP server bound to one :class:`Session`."""

    def __init__(self, address, session: Session):
        """Bind to ``address`` and serve ``session``."""
        self.session = session
        super().__init__(address, ReproRequestHandler)


class ReproRequestHandler(JSONRequestHandler):
    """Routes the endpoint table in the module docstring (one per request)."""

    server: ReproServer
    schema_version = WIRE_SCHEMA_VERSION

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """GET router: ``/healthz``, ``/experiments``, ``/jobs/<id>``,
        ``/fleet``, ``/store/stats``."""
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self.reply(200, {"schema_version": WIRE_SCHEMA_VERSION, "ok": True})
            return
        if path == "/experiments":
            from repro.harness.spec import list_experiments

            self.reply(200, {
                "schema_version": WIRE_SCHEMA_VERSION,
                "experiments": [
                    {"name": entry.name, "title": entry.title,
                     "description": entry.description,
                     "default_suite": entry.default_suite}
                    for entry in list_experiments()
                ],
            })
            return
        if path == "/fleet":
            broker = getattr(self.server.session.executor, "broker", None)
            if broker is None:
                self.error(404, "this session does not run on a worker "
                           "fleet; start one with `repro serve "
                           "--workers N`")
                return
            self.reply(200, broker.stats())
            return
        if path == "/store/stats":
            store = self.server.session.cache
            if store is None:
                self.error(404, "this session has no result store; start "
                           "one with `repro serve --cache-dir DIR` or "
                           "`--store URL`")
                return
            self.reply(200, store.stats_payload())
            return
        if path.startswith("/jobs/"):
            job_id = unquote(path[len("/jobs/"):])
            job = self.server.session.job(job_id)
            if job is None:
                self.error(404, f"unknown job {job_id!r}")
                return
            wait = _parse_wait(query)
            if wait is None:
                self.error(400, f"malformed wait= parameter in {query!r}; "
                           f"expected a number of seconds")
                return
            if wait:
                job.wait(wait)
            self.reply(200, job.status().to_dict())
            return
        self.error(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """POST router: ``/experiments`` (submit), ``/jobs/<id>/cancel``."""
        path = self.path.partition("?")[0]
        if path == "/experiments":
            payload = self.read_json()
            if payload is None:
                return
            from repro.api.fleet import FleetSaturated

            try:
                request = ExperimentRequest.from_dict(payload)
                job = self.server.session.submit(request)
            except SchemaError as error:
                self.error(400, str(error))
            except FleetSaturated as error:
                # Backpressure, not failure: the fleet queue is full.  The
                # structured body carries the live numbers so clients can
                # back off intelligently instead of hammering the edge.
                self.reply(429, {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "error": str(error),
                    "queue_depth": error.queue_depth,
                    "max_queue_depth": error.max_queue_depth,
                    "retry_after_s": 5.0,
                })
            except KeyError as error:
                # A bare ``KeyError()`` has no args; fall back to the
                # exception itself rather than crashing the handler.
                detail = error.args[0] if error.args else error
                self.error(404, str(detail))
            else:
                self.reply(202, {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "job_id": job.job_id,
                    "state": job.state,
                    "coalesced": job.submissions > 1,
                })
            return
        if path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = unquote(path[len("/jobs/"):-len("/cancel")])
            job = self.server.session.job(job_id)
            if job is None:
                self.error(404, f"unknown job {job_id!r}")
                return
            accepted = job.cancel()
            self.reply(200, {
                "schema_version": WIRE_SCHEMA_VERSION,
                "job_id": job.job_id,
                "cancelled": accepted,
                "state": job.state,
            })
            return
        self.error(404, f"unknown path {path!r}")


def _parse_wait(query: str) -> float | None:
    """Extract the ``wait=<seconds>`` long-poll duration from a query string.

    Returns 0.0 when no ``wait=`` is present, the clamped duration
    otherwise — negatives clamp to 0 and oversized values to
    :data:`MAX_WAIT_S` — and **None** when the value is malformed
    (non-numeric, empty, or NaN), so the handler can answer 400 instead of
    silently ignoring a request it did not understand.
    """
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == "wait":
            try:
                wait = float(unquote(value))
            except ValueError:
                return None
            if wait != wait:          # NaN: no meaningful duration
                return None
            return max(0.0, min(MAX_WAIT_S, wait))
    return 0.0


def make_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    session: Session | None = None,
) -> ReproServer:
    """Create (but do not start) a :class:`ReproServer`.

    ``port=0`` binds an ephemeral free port — the chosen one is in
    ``server.server_address``.  Tests drive the returned server from a
    thread via ``serve_forever()``/``shutdown()``.
    """
    return ReproServer((host, port), session or Session())


def serve(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
          session: Session | None = None) -> int:
    """Run the service until SIGINT/SIGTERM (the ``repro serve`` body).

    Prints one ``listening on http://host:port`` line (flushed, so process
    supervisors and CI scripts can wait for readiness), then serves
    forever; both signals trigger a clean shutdown that drains in-flight
    HTTP handlers and closes the session.
    """
    server = make_server(host, port, session)
    print(f"repro serve: listening on {server.url}", flush=True)
    serve_until_signalled(server, lambda: server.session.close(wait=False))
    print("repro serve: shut down cleanly", flush=True)
    return 0
