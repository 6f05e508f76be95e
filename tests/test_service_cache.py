"""Tests for the fingerprint-keyed LRU plan cache."""

import json
import time

import pytest

from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.core.serialization import plan_to_json, validate_plan_document
from repro.obs.telemetry import TelemetryJournal
from repro.service.cache import CacheError, PlanCache, payload_checksum


@pytest.fixture
def plan(tiny_tasks):
    return ExecutionPlanner(make_cluster(4, devices_per_node=4)).plan(tiny_tasks)


class TestBasicOperations:
    def test_get_miss_then_hit(self, plan):
        cache = PlanCache()
        assert cache.get(plan.fingerprint) is None
        cache.put(plan.fingerprint, plan)
        assert cache.get(plan.fingerprint) is plan
        assert plan.fingerprint in cache
        assert len(cache) == 1

    def test_payload_is_byte_identical_across_hits(self, plan):
        cache = PlanCache()
        cache.put(plan.fingerprint, plan)
        first = cache.get_payload(plan.fingerprint)
        second = cache.get_payload(plan.fingerprint)
        assert first.encode("utf-8") == second.encode("utf-8")
        assert first == plan_to_json(plan)
        validate_plan_document(json.loads(first))

    def test_invalidate_and_clear(self, plan):
        cache = PlanCache()
        cache.put(plan.fingerprint, plan)
        assert cache.invalidate(plan.fingerprint)
        assert not cache.invalidate(plan.fingerprint)
        cache.put(plan.fingerprint, plan)
        cache.clear()
        assert len(cache) == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(CacheError):
            PlanCache(capacity=0)


class TestEviction:
    def test_lru_eviction_order(self, plan):
        cache = PlanCache(capacity=2)
        cache.put("a", plan)
        cache.put("b", plan)
        assert cache.get("a") is plan  # refresh "a": now "b" is LRU
        cache.put("c", plan)
        assert cache.get("b") is None
        assert cache.get("a") is plan
        assert cache.get("c") is plan
        assert cache.stats.evictions == 1

    def test_overwrite_does_not_evict(self, plan):
        cache = PlanCache(capacity=2)
        cache.put("a", plan)
        cache.put("a", plan)
        cache.put("b", plan)
        assert len(cache) == 2
        assert cache.stats.evictions == 0


class TestNoExpiry:
    def test_entries_never_expire(self, plan, monkeypatch):
        """Planning is a pure function of its inputs, so a cached plan never
        goes out of date: only eviction or invalidation removes it."""
        cache = PlanCache()
        cache.put("a", plan)
        payload = cache.get_payload("a")
        monkeypatch.setattr(time, "monotonic", lambda: 1e12)
        monkeypatch.setattr(time, "time", lambda: 1e12)
        assert cache.get("a") is plan
        assert cache.get_payload("a") == payload
        assert "a" in cache


class TestIntegrity:
    def test_corrupted_payload_is_quarantined(self, plan):
        cache = PlanCache()
        cache.put("a", plan)
        assert cache.get_payload("a") is not None
        assert cache.corrupt("a")
        assert cache.get_payload("a") is None
        assert "a" not in cache
        # The detecting access is re-counted as a miss, so it counts once.
        assert cache.stats.corruptions == 1
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_quarantine_is_journaled(self, plan):
        journal = TelemetryJournal()
        cache = PlanCache(journal=journal)
        cache.put("a", plan)
        cache.corrupt("a")
        assert cache.get_payload("a") is None
        assert [
            (event["kind"], event["trace_id"], event["fingerprint"])
            for event in journal.events()
        ] == [("cache.quarantined", None, "a")]

    def test_restored_payload_is_verified_against_its_checksum(self, plan):
        payload = plan_to_json(plan)
        cache = PlanCache()
        cache.put_payload("good", payload, payload_checksum(payload))
        cache.put_payload("bad", payload, payload_checksum(payload + " "))
        assert cache.get_payload("good") == payload
        assert cache.get_payload("bad") is None
        assert cache.stats.corruptions == 1
        assert cache.fingerprints() == ["good"]


class TestStats:
    def test_hit_rate(self, plan):
        cache = PlanCache()
        cache.put("a", plan)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert cache.stats.as_dict()["puts"] == 1

    def test_as_dict_reports_every_counter(self, plan):
        cache = PlanCache(capacity=1)
        cache.put("a", plan)
        cache.put("b", plan)
        cache.get("b")
        cache.get("a")
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "puts": 2,
            "evictions": 1,
            "corruptions": 0,
            "hit_rate": 0.5,
        }
