"""Tests for the fingerprint-keyed LRU+TTL plan cache."""

import pytest

from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.core.serialization import plan_to_json, validate_plan_document
from repro.service.cache import CacheError, PlanCache

import json


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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
        with pytest.raises(CacheError):
            PlanCache(ttl_seconds=0.0)


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


class TestTTL:
    def test_entries_expire(self, plan):
        clock = FakeClock()
        cache = PlanCache(ttl_seconds=10.0, clock=clock)
        cache.put("a", plan)
        clock.advance(9.0)
        assert cache.get("a") is plan
        clock.advance(2.0)
        assert cache.get("a") is None
        assert cache.stats.expirations == 1

    def test_purge_expired(self, plan):
        clock = FakeClock()
        cache = PlanCache(ttl_seconds=5.0, clock=clock)
        cache.put("a", plan)
        cache.put("b", plan)
        clock.advance(6.0)
        cache.put("c", plan)
        assert cache.purge_expired() == 2
        assert cache.fingerprints() == ["c"]

    def test_no_ttl_never_expires(self, plan):
        clock = FakeClock()
        cache = PlanCache(clock=clock)
        cache.put("a", plan)
        clock.advance(1e9)
        assert cache.get("a") is plan
        assert cache.purge_expired() == 0


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
