"""Tests for the crash-safe persistent plan store (repro.service.store)."""

import json

import pytest

from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.faults import FaultEvent, FaultInjector, FaultPlan, InjectedPersistError
from repro.faults.plan import PERSIST_ERROR
from repro.service import (
    STORE_FORMAT_VERSION,
    PlanCache,
    PlanStore,
    StoreError,
    payload_checksum,
)


@pytest.fixture
def populated_cache(tiny_tasks):
    """A cache holding one planned entry (with rendered payload)."""
    planner = ExecutionPlanner(make_cluster(4, devices_per_node=4))
    plan = planner.plan(tiny_tasks)
    cache = PlanCache(capacity=8)
    cache.put(plan.fingerprint, plan)
    assert cache.get_payload(plan.fingerprint) is not None
    return cache, plan.fingerprint


class TestRoundTrip:
    def test_save_then_warm_start(self, tmp_path, populated_cache):
        cache, fingerprint = populated_cache
        store = PlanStore(tmp_path / "plans.json")
        store.save(cache)

        restored = PlanCache(capacity=8)
        result = PlanStore(tmp_path / "plans.json").load_into(restored)
        assert result.loaded == 1
        assert result.quarantined == {}
        # Payload-only entries miss on get() — live plans are not
        # reconstructed, so callers know they must plan — but serve payload
        # lookups byte-identically, and the cache stats count both.
        assert restored.get(fingerprint) is None
        assert restored.stats.misses == 1
        assert restored.get_payload(fingerprint) == cache.get_payload(fingerprint)
        assert restored.stats.hits == 1

    def test_missing_snapshot_loads_nothing(self, tmp_path):
        result = PlanStore(tmp_path / "absent.json").load_into(PlanCache())
        assert result.loaded == 0 and result.total == 0

    def test_snapshot_format_is_versioned_and_checksummed(
        self, tmp_path, populated_cache
    ):
        cache, fingerprint = populated_cache
        path = PlanStore(tmp_path / "plans.json").save(cache)
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        assert snapshot["format_version"] == STORE_FORMAT_VERSION
        assert snapshot["entry_count"] == 1
        record = snapshot["entries"][fingerprint]
        assert record["checksum"] == payload_checksum(record["payload"])


    def test_save_of_an_empty_cache_writes_an_empty_snapshot(self, tmp_path):
        path = PlanStore(tmp_path / "empty.json").save(PlanCache())
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        assert (snapshot["entries"], snapshot["entry_count"]) == ({}, 0)
        result = PlanStore(path).load_into(PlanCache())
        assert result.loaded == 0 and result.quarantined == {}

    def test_save_creates_missing_directories(self, tmp_path, populated_cache):
        cache, fingerprint = populated_cache
        path = PlanStore(tmp_path / "a" / "b" / "plans.json").save(cache)
        assert path == tmp_path / "a" / "b" / "plans.json"
        restored = PlanCache()
        assert PlanStore(path).load_into(restored).loaded == 1
        assert restored.get_payload(fingerprint) == cache.get_payload(fingerprint)


class TestAtomicity:
    def _failing_store(self, path, *, fail_saves):
        events = [FaultEvent(index=i, kind=PERSIST_ERROR) for i in fail_saves]
        return PlanStore(path, injector=FaultInjector(FaultPlan(events)))

    def test_injected_failure_leaves_no_snapshot(self, tmp_path, populated_cache):
        cache, _ = populated_cache
        store = self._failing_store(tmp_path / "plans.json", fail_saves=[0])
        with pytest.raises(InjectedPersistError):
            store.save(cache)
        assert not (tmp_path / "plans.json").exists()
        assert PlanStore(tmp_path / "plans.json").load_into(PlanCache()).loaded == 0

    def test_injected_failure_preserves_previous_snapshot(
        self, tmp_path, populated_cache
    ):
        cache, fingerprint = populated_cache
        store = self._failing_store(tmp_path / "plans.json", fail_saves=[1])
        store.save(cache)  # save 0 succeeds
        before = (tmp_path / "plans.json").read_text(encoding="utf-8")
        cache.invalidate(fingerprint)
        with pytest.raises(InjectedPersistError):
            store.save(cache)  # save 1 dies mid-write (torn temp file)
        assert (tmp_path / "plans.json").read_text(encoding="utf-8") == before
        restored = PlanCache()
        assert PlanStore(tmp_path / "plans.json").load_into(restored).loaded == 1
        assert restored.get_payload(fingerprint) is not None


    def test_next_save_replaces_the_torn_temp_file(self, tmp_path, populated_cache):
        cache, fingerprint = populated_cache
        path = tmp_path / "plans.json"
        torn = tmp_path / "plans.json.tmp"
        store = self._failing_store(path, fail_saves=[0])
        with pytest.raises(InjectedPersistError):
            store.save(cache)
        assert torn.exists() and not path.exists()
        store.save(cache)
        assert not torn.exists()
        result = PlanStore(path).load_into(PlanCache())
        assert result.loaded == 1 and result.quarantined == {}


class TestQuarantine:
    def test_corrupt_entry_quarantined_intact_entries_load(
        self, tmp_path, populated_cache
    ):
        cache, fingerprint = populated_cache
        path = PlanStore(tmp_path / "plans.json").save(cache)
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        good = snapshot["entries"][fingerprint]
        snapshot["entries"]["bad-fp"] = {
            "payload": good["payload"] + " ",
            "checksum": good["checksum"],
        }
        snapshot["entry_count"] = 2
        path.write_text(json.dumps(snapshot), encoding="utf-8")

        restored = PlanCache()
        store = PlanStore(path)
        result = store.load_into(restored)
        assert result.loaded == 1
        assert result.quarantined == {"bad-fp": "checksum mismatch"}
        assert store.quarantined == result.quarantined
        assert restored.get_payload(fingerprint) is not None
        assert restored.get_payload("bad-fp") is None

    def test_entry_count_mismatch_is_flagged(self, tmp_path, populated_cache):
        cache, _ = populated_cache
        path = PlanStore(tmp_path / "plans.json").save(cache)
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        snapshot["entry_count"] = 5  # truncation: fewer entries than declared
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        result = PlanStore(path).load_into(PlanCache())
        assert result.loaded == 1
        assert "<snapshot>" in result.quarantined

    def test_non_object_entry_quarantined(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": STORE_FORMAT_VERSION,
                    "entry_count": 1,
                    "entries": {"fp": "not-an-object"},
                }
            ),
            encoding="utf-8",
        )
        result = PlanStore(path).load_into(PlanCache())
        assert result.quarantined == {"fp": "entry is not an object"}

    def test_next_save_drops_quarantined_entries(self, tmp_path, populated_cache):
        """Quarantined entries never enter the cache, so saving the loaded
        cache rewrites the snapshot with only the intact entries."""
        cache, fingerprint = populated_cache
        path = PlanStore(tmp_path / "plans.json").save(cache)
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        good = snapshot["entries"][fingerprint]
        snapshot["entries"]["bad-fp"] = {
            "payload": good["payload"] + " ",
            "checksum": good["checksum"],
        }
        snapshot["entries"]["not-an-object"] = "payload"
        snapshot["entry_count"] = 3
        path.write_text(json.dumps(snapshot), encoding="utf-8")

        loaded = PlanCache()
        assert len(PlanStore(path).load_into(loaded).quarantined) == 2
        PlanStore(path).save(loaded)
        reloaded = PlanCache()
        result = PlanStore(path).load_into(reloaded)
        assert result.quarantined == {}
        assert reloaded.fingerprints() == [fingerprint]
        assert reloaded.get_payload(fingerprint) == good["payload"]


class TestCounters:
    """Persisting reads the cache without serving from it."""

    @staticmethod
    def _unserved_cache(tiny_tasks):
        plan = ExecutionPlanner(make_cluster(4, devices_per_node=4)).plan(tiny_tasks)
        cache = PlanCache(capacity=8)
        fingerprints = [payload_checksum(str(i)) for i in range(8)]
        for fingerprint in fingerprints:
            cache.put(fingerprint, plan)
        return cache, fingerprints

    def test_save_counts_no_hit_and_keeps_the_lru_order(self, tmp_path, tiny_tasks):
        cache, fingerprints = self._unserved_cache(tiny_tasks)
        PlanStore(tmp_path / "plans.json").save(cache)
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        assert cache.stats.hit_rate == 0.0
        assert cache.fingerprints() == fingerprints
        restored = PlanCache(capacity=8)
        assert PlanStore(tmp_path / "plans.json").load_into(restored).loaded == 8

    def test_load_into_a_smaller_cache_keeps_the_most_recent_entries(
        self, tmp_path, tiny_tasks
    ):
        """The snapshot lists entries least recent first, so a warm start
        into a smaller cache evicts exactly what the saved cache would."""
        cache, fingerprints = self._unserved_cache(tiny_tasks)
        path = PlanStore(tmp_path / "plans.json").save(cache)
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        assert list(snapshot["entries"]) == fingerprints
        restored = PlanCache(capacity=3)
        assert PlanStore(path).load_into(restored).loaded == 8
        assert restored.fingerprints() == fingerprints[-3:]
        assert restored.stats.evictions == 5

    def test_save_quarantines_a_corrupt_entry_without_counting_a_miss(self, tmp_path, tiny_tasks):
        cache, fingerprints = self._unserved_cache(tiny_tasks)
        assert cache.corrupt(fingerprints[3])
        path = PlanStore(tmp_path / "plans.json").save(cache)
        assert fingerprints[3] not in json.loads(path.read_text(encoding="utf-8"))["entries"]
        assert fingerprints[3] not in cache
        assert cache.stats.corruptions == 1
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)


class TestStructuralErrors:
    def test_unparseable_snapshot_raises(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text('{"torn": ', encoding="utf-8")
        with pytest.raises(StoreError):
            PlanStore(path).load_into(PlanCache())

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"format_version": 99, "entries": {}}))
        with pytest.raises(StoreError):
            PlanStore(path).load_into(PlanCache())

    def test_missing_entries_mapping_raises(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"format_version": STORE_FORMAT_VERSION}))
        with pytest.raises(StoreError):
            PlanStore(path).load_into(PlanCache())


class TestLegacyV1:
    def test_v1_snapshot_is_rejected(self, tmp_path, populated_cache):
        """The checksum-less v1 format has no writer left, so a v1 snapshot
        is refused whole instead of loading unverified payloads."""
        cache, fingerprint = populated_cache
        path = tmp_path / "v1.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "entries": {fingerprint: cache.get_payload(fingerprint)},
                }
            ),
            encoding="utf-8",
        )
        restored = PlanCache()
        with pytest.raises(StoreError, match="snapshot version 1 "):
            PlanStore(path).load_into(restored)
        assert len(restored) == 0
