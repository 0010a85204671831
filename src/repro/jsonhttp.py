"""The JSON-over-HTTP server layer shared by every ``repro`` server.

``repro serve`` (:mod:`repro.api.service`), the fleet broker
(:mod:`repro.api.fleet`) and ``repro store-serve`` (:mod:`repro.store.http`)
are all stdlib ``http.server`` servers that speak JSON.  This module holds
what they share, so each of them keeps only its routes:

* :class:`JSONHTTPServer` — a threading server whose handler threads are
  daemons, with a ``url`` property and silence for clients that hang up
  mid-reply;
* :class:`JSONRequestHandler` — HTTP/1.1 replies, the error envelope
  ``{"schema_version": N, "error": "..."}`` and a JSON body reader that
  answers 400 for an empty body, malformed JSON or a non-object;
* :func:`serve_until_signalled` — the run-until-SIGINT/SIGTERM loop of the
  ``serve`` and ``store-serve`` commands.

Stdlib only, and free of ``repro`` imports, so the store layer does not
depend on the api layer.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class JSONHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server with daemon handler threads."""

    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        """Swallow disconnect noise: a client that leaves mid-reply (e.g. a
        SIGKILLed fleet worker tearing down a long-poll) is not a server
        bug."""
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)

    @property
    def url(self) -> str:
        """The server's base URL (host resolved after an ephemeral bind)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Reply and body-reading plumbing; subclasses add the ``do_*`` routes.

    ``schema_version`` is the version stamped on every error envelope.
    """

    protocol_version = "HTTP/1.1"
    schema_version: int

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Suppress the default per-request stderr chatter."""

    def reply(self, code: int, payload: dict) -> None:
        """Send ``payload`` as a JSON reply with status ``code``."""
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def reply_bytes(self, code: int, blob: bytes, head_only: bool = False) -> None:
        """Send ``blob`` as an octet-stream reply (headers only for HEAD)."""
        self.send_response(code)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        if not head_only:
            self.wfile.write(blob)

    def error(self, code: int, message: str) -> None:
        """Send the structured error envelope."""
        self.reply(code, {"schema_version": self.schema_version,
                          "error": message})

    def read_body(self) -> bytes:
        """The request body (empty without a positive Content-Length)."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        return self.rfile.read(length) if length > 0 else b""

    def read_json(self) -> dict | None:
        """The request body as a JSON object, or None after answering 400."""
        body = self.read_body()
        if not body:
            self.error(400, "request body required")
            return None
        try:
            payload = json.loads(body)
        except ValueError as error:          # includes UnicodeDecodeError
            self.error(400, f"malformed JSON body: {error}")
            return None
        if not isinstance(payload, dict):
            self.error(400, "JSON body must be an object")
            return None
        return payload


def serve_until_signalled(server: ThreadingHTTPServer,
                          on_close: Callable[[], None]) -> None:
    """Serve until SIGINT/SIGTERM, then close ``server`` and call ``on_close``.

    Both signals trigger a clean shutdown that drains in-flight handlers.
    Signal handlers can only be installed from the main thread; elsewhere
    the loop runs until ``server.shutdown()`` is called.
    """

    def _request_stop(signum, frame):
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except ValueError:            # non-main thread (tests)
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        on_close()
