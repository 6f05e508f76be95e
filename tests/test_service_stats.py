"""Tests for service stats: latency edge cases and the registry export."""

import random
import tracemalloc

import pytest

from repro.obs import RELATIVE_ACCURACY, MetricsRegistry
from repro.service import OUTCOME_COALESCED, OUTCOME_HIT, OUTCOME_MISS
from repro.service.stats import ServiceStats


def latency_of(samples):
    stats = ServiceStats()
    for sample in samples:
        stats.record(OUTCOME_MISS, sample)
    return stats.latency(OUTCOME_MISS)


class TestOutcomeLatency:
    def test_empty_is_all_zeros(self):
        summary = latency_of([])
        assert summary.count == 0
        assert summary.mean == summary.p50 == summary.p95 == summary.max == 0.0

    def test_single_sample_is_its_own_distribution(self):
        summary = latency_of([0.25])
        assert summary.count == 1
        assert summary.mean == 0.25
        assert summary.p50 == 0.25
        assert summary.p95 == 0.25
        assert summary.max == 0.25

    def test_two_samples_interpolate(self):
        summary = latency_of([0.0, 1.0])
        assert summary.count == 2
        assert summary.mean == pytest.approx(0.5)
        assert summary.p50 == pytest.approx(0.5)
        assert summary.p95 == pytest.approx(0.95)
        assert summary.max == 1.0

    def test_unsorted_input_handled(self):
        summary = latency_of([3.0, 1.0, 2.0])
        assert summary.p50 == pytest.approx(2.0, rel=RELATIVE_ACCURACY)
        assert summary.max == 3.0

    def test_overall_latency_merges_every_outcome(self):
        stats = ServiceStats()
        stats.record(OUTCOME_HIT, 0.001)
        stats.record(OUTCOME_MISS, 0.100)
        overall = stats.overall_latency()
        assert overall.count == 2
        assert overall.min == 0.001 and overall.max == 0.100
        assert overall.p50 == pytest.approx(0.0505)


class TestBoundedMemory:
    def test_latency_memory_does_not_grow_with_requests(self):
        stats = ServiceStats()
        registry = MetricsRegistry()
        rng = random.Random(7)

        def record(count: int) -> None:
            for _ in range(count):
                latency = rng.uniform(1e-4, 5e-2)  # a fresh float object
                stats.record(OUTCOME_HIT, latency)
                registry.observe("service.latency_seconds", latency)

        tracemalloc.start()
        try:
            record(10_000)
            before, _ = tracemalloc.get_traced_memory()
            record(90_000)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.count(OUTCOME_HIT) == 100_000
        assert registry.histogram_summary("service.latency_seconds").count == 100_000
        assert after - before < 64 * 1024


class TestServiceStats:
    def make_stats(self) -> ServiceStats:
        stats = ServiceStats(clock=iter([0.0, 10.0] + [10.0] * 50).__next__)
        stats.record(OUTCOME_MISS, 0.100)
        stats.record(OUTCOME_HIT, 0.001)
        stats.record(OUTCOME_HIT, 0.003)
        stats.record(OUTCOME_COALESCED, 0.050)
        stats.record_error()
        return stats

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            ServiceStats().record("bogus", 1.0)

    def test_aggregates(self):
        stats = self.make_stats()
        assert stats.total_requests == 4
        assert stats.errors == 1
        assert stats.hit_rate == pytest.approx(3 / 4)
        assert stats.throughput == pytest.approx(4 / 10.0)

    def test_zero_requests_and_zero_elapsed_are_safe(self):
        stats = ServiceStats(clock=iter([5.0] + [5.0] * 20).__next__)
        assert stats.hit_rate == 0.0
        assert stats.throughput == 0.0
        assert stats.overall_latency().count == 0

    def test_single_request_percentiles_well_defined(self):
        stats = ServiceStats()
        stats.record(OUTCOME_MISS, 0.2)
        summary = stats.latency(OUTCOME_MISS)
        assert summary.p50 == 0.2
        assert summary.p95 == 0.2
        metrics = stats.to_metrics()
        assert metrics["latency_p50"].value == pytest.approx(200.0)
        assert metrics["latency_p95"].value == pytest.approx(200.0)

    def test_to_registry_uses_canonical_names(self):
        stats = self.make_stats()
        registry = stats.to_registry()
        assert registry.counter_value("service.requests") == 4
        assert registry.counter_value("service.cache", outcome=OUTCOME_HIT) == 2
        assert registry.counter_value("service.cache", outcome=OUTCOME_MISS) == 1
        assert (
            registry.counter_value("service.cache", outcome=OUTCOME_COALESCED) == 1
        )
        assert registry.counter_value("service.errors") == 1
        assert registry.gauge_value("service.hit_rate") == pytest.approx(3 / 4)
        overall = registry.histogram_summary("service.latency_seconds")
        assert overall.count == 4
        per_hit = registry.histogram_summary(
            "service.latency_seconds", outcome=OUTCOME_HIT
        )
        assert per_hit.count == 2
        assert per_hit.max == pytest.approx(0.003)

    def test_to_registry_fills_a_caller_registry(self):
        stats = self.make_stats()
        registry = MetricsRegistry()
        returned = stats.to_registry(registry)
        assert returned is registry
        assert registry.counter_value("service.requests") == 4

    def test_to_metrics_keeps_the_legacy_key_set(self):
        stats = self.make_stats()
        metrics = stats.to_metrics(prefix="service.")
        assert set(metrics) == {
            "service.requests",
            "service.hit_rate",
            "service.errors",
            "service.throughput",
            "service.latency_p50",
            "service.latency_p95",
            "service.latency_p99",
        }
        assert metrics["service.requests"].value == 4
        assert metrics["service.requests"].gated
        assert metrics["service.hit_rate"].higher_is_better
        assert metrics["service.errors"].regression_threshold == 0.0
        assert not metrics["service.throughput"].gated  # machine-dependent
        assert not metrics["service.latency_p50"].gated

    def test_to_metrics_values_match_direct_aggregates(self):
        stats = self.make_stats()
        metrics = stats.to_metrics()
        overall = stats.overall_latency()
        assert metrics["hit_rate"].value == pytest.approx(stats.hit_rate)
        assert metrics["latency_p50"].value == pytest.approx(overall.p50 * 1e3)
        assert metrics["latency_p95"].value == pytest.approx(overall.p95 * 1e3)

    def test_as_dict_and_render(self):
        stats = self.make_stats()
        data = stats.as_dict()
        assert data["requests"] == 4
        assert data["hits"] == 2
        assert data["errors"] == 1
        text = stats.render()
        assert "hit rate" in text
        assert "latency hit" in text
