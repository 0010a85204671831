"""The HTTP result-store tier: ``python -m repro store-serve`` + client.

The server side fronts any local store (a :class:`~repro.store.sqlite.
SqliteStore` by default, so it inherits LRU/TTL/size-cap eviction) with a
dependency-free JSON/octet-stream API; the client side
(:class:`HTTPStore`) implements the full
:class:`~repro.store.base.ResultStore` protocol over it, which is what
lets ``python -m repro worker --store http://host:port`` commit outcomes
with **no shared filesystem**.

========  =========================  =====================================
method    path                       behaviour
========  =========================  =====================================
GET       ``/healthz``               liveness probe (never authenticated)
GET       ``/store/blob/<key>``      payload bytes, 404 on a miss
HEAD      ``/store/blob/<key>``      existence probe (``contains``)
PUT       ``/store/blob/<key>``      conditional put → ``BlobPutReply``
                                     (first writer wins, exactly-once)
GET       ``/store/stats``           ``StoreStatsReply`` counters + sizes
POST      ``/store/claim``           acquire an in-flight marker
POST      ``/store/release``         drop an in-flight marker
GET       ``/store/meta/<name>``     one shared JSON document
POST      ``/store/meta/<name>``     server-side merge into the document
========  =========================  =====================================

Every route except ``/healthz`` requires the bearer token when the server
was given one (``--token`` / ``$REPRO_STORE_TOKEN``): a missing or wrong
``Authorization: Bearer <token>`` header answers a structured 401.  The
payload shapes and the auth header/scheme are frozen by the
``store-schema`` lint rule (see :mod:`repro.store.schema`).
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from urllib.parse import unquote

from repro.core.simulator import SimulationOutcome
from repro.jsonhttp import JSONHTTPServer, JSONRequestHandler
from repro.store.base import StoreStats, decode_payload, encode_payload
from repro.store.schema import (
    AUTH_HEADER,
    AUTH_SCHEME,
    STORE_SCHEMA_VERSION,
    TOKEN_ENV,
    BlobPutReply,
    ClaimReply,
    MetaReply,
    StoreStatsReply,
)

#: Default bind address of ``python -m repro store-serve``.
DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``python -m repro store-serve``.
DEFAULT_PORT = 8878


class StoreError(RuntimeError):
    """The store server answered an error (or is unreachable)."""


class StoreAuthError(StoreError):
    """The store server refused this client's credentials (401)."""


class HTTPStore:
    """A :class:`~repro.store.base.ResultStore` client over HTTP.

    Args:
        base_url: The store server (``http://host:port``).
        token: Bearer token; None reads ``$REPRO_STORE_TOKEN``.  Sent on
            every request (the server ignores it when it runs open).
        timeout_s: Per-request network timeout.
    """

    def __init__(self, base_url: str, token: str | None = None,
                 *, timeout_s: float = 60.0):
        """Create the client (no traffic until the first operation)."""
        self.base_url = base_url.rstrip("/")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV)
        self.timeout_s = timeout_s
        self.stats = StoreStats()

    @property
    def locator(self) -> str:
        """The locator that re-opens this store (its base URL)."""
        return self.base_url

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(self, method: str, path: str, body: bytes | None = None,
                 content_type: str = "application/json"):
        headers = {"Content-Type": content_type}
        if self.token:
            headers[AUTH_HEADER] = f"{AUTH_SCHEME} {self.token}"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method)
        try:
            return urllib.request.urlopen(request, timeout=self.timeout_s)
        except urllib.error.HTTPError as error:
            if error.code == 401:
                detail = error.read().decode(errors="replace")
                raise StoreAuthError(
                    f"store at {self.base_url} refused this client's "
                    f"credentials (set ${TOKEN_ENV}): {detail}") from None
            raise
        except (urllib.error.URLError, OSError) as error:
            raise StoreError(
                f"store at {self.base_url} unreachable: {error}") from None

    def _json(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = json.dumps(payload).encode() if payload is not None else None
        with self._request(method, path, body) as response:
            return json.loads(response.read())

    # ------------------------------------------------------------------
    # The ResultStore protocol
    # ------------------------------------------------------------------

    def get(self, key: str) -> SimulationOutcome | None:
        """Fetch and decode the payload under ``key`` (None on 404)."""
        try:
            with self._request("GET", f"/store/blob/{key}") as response:
                blob = response.read()
        except urllib.error.HTTPError as error:
            if error.code == 404:
                self.stats.misses += 1
                return None
            raise
        outcome = decode_payload(blob)
        if outcome is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return outcome

    def put(self, key: str, outcome: SimulationOutcome) -> bool:
        """Conditionally upload the payload for ``key`` (first put wins)."""
        blob = encode_payload(outcome)
        with self._request("PUT", f"/store/blob/{key}", blob,
                           content_type="application/octet-stream") as response:
            reply = BlobPutReply.from_dict(json.loads(response.read()))
        if reply.stored:
            self.stats.stores += 1
        else:
            self.stats.duplicate_puts += 1
        return reply.stored

    def contains(self, key: str) -> bool:
        """HEAD-probe whether an entry for ``key`` exists."""
        try:
            with self._request("HEAD", f"/store/blob/{key}"):
                return True
        except urllib.error.HTTPError as error:
            if error.code == 404:
                return False
            raise

    def claim(self, token: str, owner: str, ttl_s: float) -> bool:
        """Acquire the in-flight marker ``token`` on the server."""
        reply = ClaimReply.from_dict(self._json("POST", "/store/claim", {
            "schema_version": STORE_SCHEMA_VERSION,
            "token": token, "owner": owner, "ttl_s": ttl_s}))
        if reply.granted:
            self.stats.claims += 1
        else:
            self.stats.claim_conflicts += 1
        return reply.granted

    def release(self, token: str, owner: str) -> None:
        """Drop the in-flight marker ``token`` on the server."""
        self._json("POST", "/store/release", {
            "schema_version": STORE_SCHEMA_VERSION,
            "token": token, "owner": owner})

    def get_meta(self, name: str) -> dict:
        """Fetch the shared JSON document ``name``."""
        reply = MetaReply.from_dict(self._json("GET", f"/store/meta/{name}"))
        return reply.entries

    def merge_meta(self, name: str, entries: dict) -> dict:
        """Merge ``entries`` into document ``name`` server-side."""
        reply = MetaReply.from_dict(self._json(
            "POST", f"/store/meta/{name}",
            {"schema_version": STORE_SCHEMA_VERSION, "entries": entries}))
        return reply.entries

    def stats_payload(self) -> dict:
        """The *server's* ``/store/stats`` payload (fleet-wide counters)."""
        return self._json("GET", "/store/stats")


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


class StoreServer(JSONHTTPServer):
    """A threading HTTP server fronting one backing store."""

    def __init__(self, address, backing, token: str | None = None):
        """Bind to ``address`` and serve ``backing`` (token = require auth)."""
        self.backing = backing
        self.token = token
        super().__init__(address, StoreRequestHandler)


class StoreRequestHandler(JSONRequestHandler):
    """Routes the endpoint table in the module docstring (one per request)."""

    server: StoreServer
    schema_version = STORE_SCHEMA_VERSION

    def _authorized(self) -> bool:
        """Check the bearer token; answer the 401 when it fails."""
        expected = self.server.token
        if not expected:
            return True
        supplied = self.headers.get(AUTH_HEADER, "")
        scheme, _, credential = supplied.partition(" ")
        if scheme == AUTH_SCHEME and credential.strip() == expected:
            return True
        self.error(401, f"missing or invalid {AUTH_SCHEME} token in the "
                   f"{AUTH_HEADER} header")
        return False

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """GET router: ``/healthz``, ``/store/blob``, ``/store/stats``,
        ``/store/meta``."""
        path = self.path.partition("?")[0]
        if path == "/healthz":
            self.reply(200, {"schema_version": STORE_SCHEMA_VERSION,
                             "ok": True})
            return
        if not self._authorized():
            return
        if path.startswith("/store/blob/"):
            key = unquote(path[len("/store/blob/"):])
            blob = self._raw_blob(key)
            if blob is None:
                self.error(404, f"no entry for key {key!r}")
                return
            self.reply_bytes(200, blob)
            return
        if path == "/store/stats":
            self.reply(200, StoreStatsReply(
                **self.server.backing.stats_payload()).to_dict())
            return
        if path.startswith("/store/meta/"):
            name = unquote(path[len("/store/meta/"):])
            self.reply(200, MetaReply(
                name=name,
                entries=self.server.backing.get_meta(name)).to_dict())
            return
        self.error(404, f"unknown path {path!r}")

    def do_HEAD(self) -> None:  # noqa: N802 - stdlib naming
        """HEAD router: ``/store/blob/<key>`` existence probes."""
        path = self.path.partition("?")[0]
        if not self._authorized():
            return
        if path.startswith("/store/blob/"):
            key = unquote(path[len("/store/blob/"):])
            if self.server.backing.contains(key):
                self.reply_bytes(200, b"", head_only=True)
            else:
                self.reply_bytes(404, b"", head_only=True)
            return
        self.reply_bytes(404, b"", head_only=True)

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        """PUT router: ``/store/blob/<key>`` conditional payload uploads."""
        path = self.path.partition("?")[0]
        if not self._authorized():
            return
        if not path.startswith("/store/blob/"):
            self.error(404, f"unknown path {path!r}")
            return
        key = unquote(path[len("/store/blob/"):])
        blob = self.read_body()
        outcome = decode_payload(blob)
        if outcome is None:
            self.error(400, f"payload for {key!r} is not a valid "
                       f"cache-format entry")
            return
        stored = self.server.backing.put(key, outcome)
        self.reply(200, BlobPutReply(
            key=key, stored=stored, duplicate=not stored).to_dict())

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """POST router: ``/store/claim``, ``/store/release``,
        ``/store/meta/<name>`` merges."""
        path = self.path.partition("?")[0]
        if not self._authorized():
            return
        if path == "/store/claim":
            payload = self.read_json()
            if payload is None:
                return
            token = str(payload.get("token", ""))
            owner = str(payload.get("owner", ""))
            try:
                ttl_s = float(payload.get("ttl_s", 60.0))
            except (TypeError, ValueError):
                self.error(400, "ttl_s must be a number")
                return
            granted = self.server.backing.claim(token, owner, ttl_s)
            holder = owner if granted else self._holder(token)
            self.reply(200, ClaimReply(
                token=token, granted=granted, holder=holder).to_dict())
            return
        if path == "/store/release":
            payload = self.read_json()
            if payload is None:
                return
            token = str(payload.get("token", ""))
            owner = str(payload.get("owner", ""))
            self.server.backing.release(token, owner)
            self.reply(200, ClaimReply(
                token=token, granted=False,
                holder=self._holder(token)).to_dict())
            return
        if path.startswith("/store/meta/"):
            payload = self.read_json()
            if payload is None:
                return
            entries = payload.get("entries")
            if not isinstance(entries, dict):
                self.error(400, "entries must be an object")
                return
            name = unquote(path[len("/store/meta/"):])
            merged = self.server.backing.merge_meta(name, entries)
            self.reply(200, MetaReply(name=name,
                                      entries=merged).to_dict())
            return
        self.error(404, f"unknown path {path!r}")

    # ------------------------------------------------------------------
    # Backing-store helpers
    # ------------------------------------------------------------------

    def _raw_blob(self, key: str) -> bytes | None:
        """The raw payload bytes for ``key`` via the backing store.

        Round-trips through the backing store's ``get`` so hit/miss/TTL
        accounting happens exactly once, then re-encodes — the payload
        codec is deterministic, so the bytes a client receives equal the
        bytes any other tier would serve.
        """
        outcome = self.server.backing.get(key)
        if outcome is None:
            return None
        return encode_payload(outcome)

    def _holder(self, token: str) -> str | None:
        """Current marker owner when the backing store can say (else None)."""
        probe = getattr(self.server.backing, "holder", None)
        return probe(token) if probe is not None else None


def make_store_server(host: str = DEFAULT_HOST, port: int = 0,
                      backing=None, token: str | None = None) -> StoreServer:
    """Create (but do not start) a :class:`StoreServer`.

    ``port=0`` binds an ephemeral free port (the chosen URL is
    ``server.url``); ``backing=None`` serves an in-memory
    :class:`~repro.store.sqlite.SqliteStore`.  Tests drive the returned
    server from a thread via ``serve_forever()``/``shutdown()``.
    """
    if backing is None:
        from repro.store.sqlite import SqliteStore

        backing = SqliteStore(":memory:")
    return StoreServer((host, port), backing, token=token)
