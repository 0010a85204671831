"""The error envelope every JSON-over-HTTP server shares (:mod:`repro.jsonhttp`).

``repro serve``, the fleet broker and ``repro store-serve`` each answer a
body that is empty, malformed JSON or not an object with a 400, and an
unknown path with a 404, as ``{"schema_version": N, "error": "..."}``
stamped with that server's own wire version.
"""

import http.client
import json
import threading
import time

import pytest

from repro.api import Session, make_fleet_server, make_server
from repro.api.schema import WIRE_SCHEMA_VERSION
from repro.store import make_store_server
from repro.store.schema import STORE_SCHEMA_VERSION


def _serve():
    server = make_server(port=0, session=Session(jobs=1, cache=False))
    return server, server.session.close


# name -> (factory returning (server, close), JSON route, schema version)
SERVERS = {
    "serve": (_serve, "/experiments", WIRE_SCHEMA_VERSION),
    "fleet": (lambda: (make_fleet_server(port=0), lambda: None),
              "/fleet/lease", WIRE_SCHEMA_VERSION),
    "store": (lambda: (make_store_server(port=0), lambda: None),
              "/store/claim", STORE_SCHEMA_VERSION),
}


@pytest.fixture(params=sorted(SERVERS))
def running(request):
    """One of the three servers on an ephemeral port, plus its route/version."""
    factory, route, version = SERVERS[request.param]
    server, close = factory()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, route, version
    finally:
        server.shutdown()
        server.server_close()
        close()
        thread.join(timeout=10)


def _send(server, method, path, body=b""):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_error_envelope(running):
    server, route, version = running
    for body in (b"", b"{not json", b"[]"):
        code, payload = _send(server, "POST", route, body)
        assert code == 400, (route, body, payload)
        assert set(payload) == {"schema_version", "error"}
        assert payload["schema_version"] == version
        assert isinstance(payload["error"], str) and payload["error"]
    code, payload = _send(server, "GET", "/no/such/path")
    assert code == 404
    assert payload == {"schema_version": version,
                       "error": "unknown path '/no/such/path'"}


def test_keep_alive_replies_do_not_wait_for_delayed_acks(running):
    """A reply writes its headers and body as two segments; with Nagle on,
    the body waits for the client's delayed ACK (~40 ms per reply)."""
    server, _route, version = running
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        start = time.perf_counter()
        for _ in range(20):
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["schema_version"] == version
        elapsed = time.perf_counter() - start
    finally:
        connection.close()
    assert elapsed < 0.3, f"20 keep-alive replies took {elapsed:.3f} s"
