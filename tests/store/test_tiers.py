"""Protocol tests across all three result-store tiers.

One behavioural suite — payload round-trip, conditional (exactly-once)
puts, corrupt-entry handling, claims, meta documents, stats — run against
the disk, sqlite and HTTP tiers so the tiers cannot drift apart.  The
HTTP tier runs against a real in-thread ``StoreServer``.
"""

import logging
import pickle
import threading

import pytest

from repro.core.simulator import simulate_workload
from repro.harness.executors import COSTS_META, CostModel, WorkloadTask
from repro.store import (
    CACHE_FORMAT_VERSION,
    STORE_SCHEMA_VERSION,
    DiskStore,
    HTTPStore,
    SqliteStore,
    decode_payload,
    encode_payload,
    make_store_server,
    open_store,
    store_locator,
)
from repro.uarch.backend import DEFAULT_BACKEND
from repro.workloads.base import get_workload

KEY = "ab" * 32
OTHER_KEY = "cd" * 32


@pytest.fixture(scope="module")
def outcome():
    """One real simulation outcome shared by every round-trip test."""
    return simulate_workload("micro_addi_chain", max_instructions=2000)


@pytest.fixture(params=["disk", "sqlite", "http"])
def store(request, tmp_path):
    """Each tier behind the one ResultStore protocol."""
    if request.param == "disk":
        yield DiskStore(tmp_path / "cache")
        return
    if request.param == "sqlite":
        tier = SqliteStore(tmp_path / "store.sqlite3")
        yield tier
        tier.close()
        return
    backing = SqliteStore(":memory:")
    server = make_store_server(backing=backing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield HTTPStore(server.url)
    finally:
        server.shutdown()
        server.server_close()
        backing.close()


def test_payload_of_the_previous_cache_version_decodes_as_a_miss(outcome):
    assert decode_payload(encode_payload(outcome)) is not None
    old = pickle.dumps({"version": CACHE_FORMAT_VERSION - 1,
                        "timing": outcome.timing,
                        "reno_config": outcome.reno_config})
    assert decode_payload(old) is None


def test_round_trip_and_contains(store, outcome):
    assert store.get(KEY) is None
    assert not store.contains(KEY)
    assert store.put(KEY, outcome) is True
    assert store.contains(KEY)
    loaded = store.get(KEY)
    assert loaded is not None
    assert loaded.cached is True
    assert loaded.timing.stats == outcome.timing.stats
    assert loaded.timing.final_registers == outcome.timing.final_registers
    assert loaded.cycles == outcome.cycles


def test_put_is_conditional_first_writer_wins(store, outcome):
    assert store.put(KEY, outcome) is True
    assert store.put(KEY, outcome) is False
    assert store.stats.stores == 1
    assert store.stats.duplicate_puts == 1
    assert store.put(OTHER_KEY, outcome) is True
    assert store.stats.stores == 2


def test_claim_conflict_renewal_and_release(store):
    assert store.claim("request/abc", "alice", 60.0) is True
    # Renewal by the same owner is a grant; another owner conflicts.
    assert store.claim("request/abc", "alice", 60.0) is True
    assert store.claim("request/abc", "bob", 60.0) is False
    store.release("request/abc", "bob")        # not the owner: no-op
    assert store.claim("request/abc", "bob", 60.0) is False
    store.release("request/abc", "alice")
    assert store.claim("request/abc", "bob", 60.0) is True


def test_meta_documents_merge(store):
    assert store.get_meta("costs") == {}
    assert store.merge_meta("costs", {"a": 1.0}) == {"a": 1.0}
    merged = store.merge_meta("costs", {"b": 2.0})
    assert merged == {"a": 1.0, "b": 2.0}
    assert store.get_meta("costs") == {"a": 1.0, "b": 2.0}


def test_stats_payload_shape(store, outcome):
    store.put(KEY, outcome)
    store.get(KEY)
    store.get(OTHER_KEY)
    payload = store.stats_payload()
    assert payload["schema_version"] == STORE_SCHEMA_VERSION
    for counter in ("hits", "misses", "stores", "evictions",
                    "duplicate_puts", "claims", "claim_conflicts"):
        assert counter in payload
    assert payload["entries"] == 1
    assert payload["bytes"] > 0
    assert payload["hits"] >= 1
    assert payload["misses"] >= 1


def test_open_store_round_trips_locator(store):
    locator = store_locator(store)
    reopened = open_store(locator)
    assert store_locator(reopened) == locator
    assert type(reopened) is type(store)


# ---------------------------------------------------------------------------
# Corrupt payloads read as misses and are deleted (satellite: corruption)
# ---------------------------------------------------------------------------


def test_disk_corrupt_payload_is_miss_deleted_and_logged(tmp_path, outcome,
                                                         caplog):
    store = DiskStore(tmp_path / "cache")
    store.put(KEY, outcome)
    path = store.path_for(KEY)
    path.write_bytes(b"\x80garbage not a pickle")
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert store.get(KEY) is None
    assert not path.exists()                  # deleted, not left to rot
    assert store.stats.misses == 1
    assert any("corrupt" in record.message.lower()
               for record in caplog.records)
    # A truncated (partially written) payload behaves the same way.
    store.put(KEY, outcome)
    blob = encode_payload(outcome)
    store.path_for(KEY).write_bytes(blob[:len(blob) // 2])
    assert store.get(KEY) is None
    assert not store.path_for(KEY).exists()
    # The slot is reusable after deletion.
    assert store.put(KEY, outcome) is True
    assert store.get(KEY) is not None


def test_sqlite_corrupt_payload_is_miss_and_deleted(tmp_path, outcome):
    store = SqliteStore(tmp_path / "store.sqlite3")
    store.put(KEY, outcome)
    with store._lock:
        store._db.execute("UPDATE blobs SET payload = ? WHERE key = ?",
                          (b"\x80garbage", KEY))
        store._db.commit()
    assert store.get(KEY) is None
    assert len(store) == 0
    assert store.put(KEY, outcome) is True
    store.close()


# ---------------------------------------------------------------------------
# The cost model rides the store (satellite: shared probe data)
# ---------------------------------------------------------------------------


def _task(scale: int = 1) -> WorkloadTask:
    return WorkloadTask(
        workload=get_workload("micro_addi_chain"), scale=scale,
        machines=(), renos=(), collect_timing=False,
        max_instructions=1000, cache_root=None)


def test_cost_model_shared_through_store(store):
    writer = CostModel(store)
    writer.record(_task(1), 0.125)
    # A second model over the same store sees the entry — through the
    # HTTP tier that means a *different worker* shares the probe data.
    reader = CostModel(store)
    costs = reader.load()
    assert costs[CostModel.key(_task(1))] == 0.125


def test_cost_model_v1_entries_migrate_to_backend_keys(store):
    v2_key = CostModel.key(_task(1))
    v1_key = v2_key.split("|backend=")[0]
    store.merge_meta(COSTS_META, {v1_key: 0.25})
    costs = CostModel(store).load()
    assert costs[f"{v1_key}|backend={DEFAULT_BACKEND}"] == 0.25
    # A real (v2) entry is never shadowed by the migrated v1 value.
    store.merge_meta(COSTS_META, {v2_key: 0.5})
    costs = CostModel(store).load()
    assert costs[v2_key] == 0.5
