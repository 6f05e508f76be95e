"""Tests for the metrics registry: naming, aggregation, snapshots, export."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.result import Metric
from repro.obs import (
    RELATIVE_ACCURACY,
    Histogram,
    MetricsRegistry,
    get_metrics,
    metric_key,
    split_metric_key,
)


def percentile(ordered: list[float], fraction: float) -> float:
    """Oracle: exact linear-interpolated percentile of an ascending list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def histogram_of(values) -> Histogram:
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


# A bucket-edge value can land one bucket up when float ``log`` rounds.
BOUND = RELATIVE_ACCURACY + 1e-9


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestMetricKeys:
    def test_bare_name(self):
        assert metric_key("planner.solve_seconds") == "planner.solve_seconds"

    def test_labels_sorted_by_key(self):
        key = metric_key("service.cache", {"outcome": "hit", "node": 2})
        assert key == "service.cache{node=2,outcome=hit}"

    def test_split_is_the_inverse(self):
        name, labels = split_metric_key("service.cache{node=2,outcome=hit}")
        assert name == "service.cache"
        assert labels == {"node": "2", "outcome": "hit"}
        assert split_metric_key("plain") == ("plain", {})


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        assert Histogram().quantile(0.95) == 0.0
        assert Histogram().summary().count == 0

    def test_single_sample_is_every_percentile(self):
        histogram = histogram_of([7.0])
        assert histogram.quantile(0.0) == 7.0
        assert histogram.quantile(0.5) == 7.0
        assert histogram.quantile(1.0) == 7.0

    def test_interpolates_between_samples(self):
        histogram = histogram_of([0.0, 10.0])
        assert histogram.quantile(0.5) == pytest.approx(5.0)
        assert histogram.quantile(0.95) == pytest.approx(9.5)

    def test_endpoints_exact(self):
        histogram = histogram_of([1.0, 2.0, 3.0, 4.0])
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 4.0

    def test_identical_samples_read_exactly(self):
        # Inner ranks read the bucket representative clamped to [min, max].
        histogram = histogram_of([0.2] * 5)
        assert histogram.quantile(0.5) == 0.2
        assert histogram.quantile(0.95) == 0.2

    def test_inner_ranks_within_the_relative_accuracy(self):
        values = [0.001 * 1.37**i for i in range(40)]
        histogram = histogram_of(values)
        for fraction in (0.1, 0.5, 0.95, 0.99):
            assert histogram.quantile(fraction) == pytest.approx(
                percentile(values, fraction), rel=BOUND
            )

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1e-9)

    def test_subtracting_a_non_ancestor_is_rejected(self):
        with pytest.raises(ValueError):
            histogram_of([1.0]) - histogram_of([2.0])


samples = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e2)),
    min_size=1,
    max_size=60,
)
fractions = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5)


def assert_within_bound(histogram: Histogram, values, qs) -> None:
    ordered = sorted(values)
    for q in [0.0, 0.5, 0.95, 0.99, 1.0, *qs]:
        exact = percentile(ordered, q)
        assert abs(histogram.quantile(q) - exact) <= BOUND * exact


class TestHistogramProperties:
    @given(samples, fractions)
    @settings(max_examples=200, deadline=None)
    def test_quantiles_within_bound_and_aggregates_exact(self, values, qs):
        histogram = histogram_of(values)
        assert_within_bound(histogram, values, qs)
        if len(values) <= 2:
            for q in qs:
                assert histogram.quantile(q) == percentile(sorted(values), q)
        total = 0.0
        for value in values:
            total += value
        assert histogram.count == len(values)
        assert histogram.total == total
        assert histogram.min == min(values)
        assert histogram.max == max(values)

    @given(samples, samples, fractions)
    @settings(max_examples=200, deadline=None)
    def test_merge_within_bound(self, first, second, qs):
        merged = histogram_of(first)
        part = histogram_of(second)
        merged.merge(part)
        assert_within_bound(merged, first + second, qs)
        assert merged.count == len(first) + len(second)
        assert merged.total == histogram_of(first).total + part.total
        assert merged.min == min(first + second)
        assert merged.max == max(first + second)

    @given(samples, samples, fractions)
    @settings(max_examples=200, deadline=None)
    def test_subtraction_keeps_only_the_later_samples(self, first, second, qs):
        earlier = histogram_of(first)
        later = earlier.copy()
        for value in second:
            later.observe(value)
        delta = later - earlier
        assert_within_bound(delta, second, qs)
        assert delta.count == len(second)
        assert delta.total == later.total - earlier.total
        assert delta.total == pytest.approx(sum(second), abs=1e-12 * later.total)


class TestRecording:
    def test_counter_accumulates_per_label_set(self, registry):
        registry.inc("service.cache", outcome="hit")
        registry.inc("service.cache", outcome="hit")
        registry.inc("service.cache", outcome="miss")
        assert registry.counter_value("service.cache", outcome="hit") == 2
        assert registry.counter_value("service.cache", outcome="miss") == 1
        assert registry.counter_value("service.cache", outcome="coalesced") == 0

    def test_gauge_keeps_latest(self, registry):
        registry.gauge("service.hit_rate", 0.25)
        registry.gauge("service.hit_rate", 0.75)
        assert registry.gauge_value("service.hit_rate") == 0.75

    def test_histogram_summary(self, registry):
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("planner.solve_seconds", value, stage="allocation")
        summary = registry.histogram_summary(
            "planner.solve_seconds", stage="allocation"
        )
        assert summary.count == 4
        assert summary.total == pytest.approx(10.0)
        assert summary.min == 1.0 and summary.max == 4.0
        assert summary.mean == pytest.approx(2.5)
        assert summary.p50 == pytest.approx(2.5, rel=BOUND)

    def test_percentiles_describe_every_observation(self):
        # No sample reservoir: a p99 reflects the latest observations too.
        registry = MetricsRegistry()
        for _ in range(5000):
            registry.observe("x_seconds", 0.001)
        for _ in range(500):
            registry.observe("x_seconds", 1.0)
        summary = registry.histogram_summary("x_seconds")
        assert summary.count == 5500
        assert summary.total == pytest.approx(505.0)
        assert summary.p99 == pytest.approx(1.0, rel=BOUND)
        assert summary.p50 == pytest.approx(0.001, rel=BOUND)

    def test_merge_adds_a_histogram(self, registry):
        registry.observe("x_seconds", 0.5)
        registry.merge("x_seconds", histogram_of([0.25, 1.0]))
        summary = registry.histogram_summary("x_seconds")
        assert summary.count == 3
        assert summary.min == 0.25 and summary.max == 1.0

    def test_thread_safety_of_inc(self, registry):
        def worker() -> None:
            for _ in range(1000):
                registry.inc("hits")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert registry.counter_value("hits") == 4000


class TestSnapshotsAndDiff:
    def test_snapshot_is_frozen(self, registry):
        registry.inc("n")
        snap = registry.snapshot()
        registry.inc("n")
        assert snap.counters["n"] == 1
        assert registry.counter_value("n") == 2

    def test_diff_meters_one_region(self, registry):
        registry.inc("service.cache", 5, outcome="hit")
        registry.observe("simulator.wave_seconds", 1.0)
        before = registry.snapshot()
        registry.inc("service.cache", 2, outcome="hit")
        registry.inc("service.cache", outcome="miss")
        registry.observe("simulator.wave_seconds", 3.0)
        registry.observe("simulator.wave_seconds", 5.0)
        registry.gauge("service.hit_rate", 0.5)
        delta = registry.snapshot().diff(before)
        assert delta.counters == {
            "service.cache{outcome=hit}": 2,
            "service.cache{outcome=miss}": 1,
        }
        wave = delta.histograms["simulator.wave_seconds"].summary()
        assert wave.count == 2
        assert wave.total == pytest.approx(8.0)
        assert wave.mean == pytest.approx(4.0)
        # Percentiles of the region alone, not zeros or the whole history.
        assert wave.p50 == pytest.approx(4.0, rel=BOUND)
        assert wave.min == pytest.approx(3.0, rel=BOUND)
        assert wave.max == pytest.approx(5.0, rel=BOUND)
        assert delta.gauges["service.hit_rate"] == 0.5

    def test_diff_drops_gauges_untouched_in_the_region(self, registry):
        registry.gauge("service.breaker_state", 0.0, topology="other")
        before = registry.snapshot()
        registry.gauge("service.hit_rate", 0.5)
        delta = registry.snapshot().diff(before)
        assert delta.gauges == {"service.hit_rate": 0.5}

    def test_diffed_percentiles_match_a_fresh_registry(self, registry):
        fresh = MetricsRegistry()
        for value in (0.2, 0.4, 0.8):
            registry.observe("h_seconds", value)
        before = registry.snapshot()
        region = [0.001 * 1.5**i for i in range(30)]
        for value in region:
            registry.observe("h_seconds", value)
            fresh.observe("h_seconds", value)
        diffed = registry.snapshot().diff(before).histograms["h_seconds"]
        expected = fresh.histogram_summary("h_seconds")
        summary = diffed.summary()
        assert summary.count == expected.count
        for name in ("p50", "p95", "p99"):
            assert getattr(summary, name) == pytest.approx(
                getattr(expected, name), rel=2 * BOUND
            )

    def test_diff_drops_unchanged_series(self, registry):
        registry.inc("stable")
        registry.observe("h_seconds", 1.0)
        before = registry.snapshot()
        delta = registry.snapshot().diff(before)
        assert delta.counters == {}
        assert delta.histograms == {}

    def test_as_dict_is_json_shaped(self, registry):
        registry.inc("c", outcome="hit")
        registry.gauge("g", 1.5)
        registry.observe("h_seconds", 2.0)
        data = registry.snapshot().as_dict()
        assert data["counters"] == {"c{outcome=hit}": 1.0}
        assert data["gauges"] == {"g": 1.5}
        assert data["histograms"]["h_seconds"]["count"] == 1

    def test_clear(self, registry):
        registry.inc("c")
        registry.gauge("g", 1.0)
        registry.observe("h", 1.0)
        registry.clear()
        snap = registry.snapshot()
        assert not snap.counters and not snap.gauges and not snap.histograms


class TestBenchExport:
    def test_counters_and_gauges_export_values(self, registry):
        registry.inc("service.cache", 3, outcome="hit")
        registry.gauge("service.hit_rate", 0.75)
        metrics = registry.to_bench_metrics()
        assert metrics["service.cache{outcome=hit}"].value == 3
        assert metrics["service.hit_rate"].value == 0.75

    def test_seconds_histograms_export_count_and_percentiles(self, registry):
        registry.observe("planner.solve_seconds", 0.010, stage="allocation")
        registry.observe("planner.solve_seconds", 0.030, stage="allocation")
        metrics = registry.to_bench_metrics(prefix="obs.")
        key = "obs.planner.solve_seconds{stage=allocation}"
        assert metrics[f"{key}.count"].value == 2
        assert metrics[f"{key}.p50_ms"].value == pytest.approx(20.0)
        assert metrics[f"{key}.p95_ms"].unit == "ms"
        assert metrics[f"{key}.p99_ms"].value == pytest.approx(29.8)

    def test_diffed_export_reads_the_region(self, registry):
        registry.observe("planner.solve_seconds", 0.5)
        before = registry.snapshot()
        registry.observe("planner.solve_seconds", 0.010)
        registry.observe("planner.solve_seconds", 0.030)
        snapshot = registry.snapshot().diff(before)
        metrics = registry.to_bench_metrics(snapshot=snapshot)
        assert metrics["planner.solve_seconds.count"].value == 2
        assert metrics["planner.solve_seconds.p50_ms"].value == pytest.approx(
            20.0, rel=BOUND
        )
        assert metrics["planner.solve_seconds.p99_ms"].value == pytest.approx(
            29.8, rel=BOUND
        )

    def test_non_seconds_histograms_export_count_only(self, registry):
        registry.observe("queue.depth", 4.0)
        metrics = registry.to_bench_metrics()
        assert "queue.depth.count" in metrics
        assert "queue.depth.p50_ms" not in metrics

    def test_informational_by_default_gated_on_request(self, registry):
        registry.inc("service.errors")
        default = registry.to_bench_metrics()["service.errors"]
        assert not default.gated
        gated = registry.to_bench_metrics(gated=["service.errors"])
        assert gated["service.errors"].gated
        assert isinstance(gated["service.errors"], Metric)

    def test_to_bench_result_round_trips_schema(self, registry):
        registry.inc("service.requests", 7)
        result = registry.to_bench_result("obs_smoke", figure="fig8")
        payload = result.to_dict()
        assert payload["name"] == "obs_smoke"
        assert payload["metrics"]["service.requests"]["value"] == 7
        assert "obs" in payload["tags"]


class TestRender:
    def test_empty_registry_renders_placeholder(self, registry):
        assert registry.render() == "(no metrics recorded)"

    def test_render_contains_all_sections(self, registry):
        registry.inc("c")
        registry.gauge("g", 2.0)
        registry.observe("h_seconds", 0.5)
        text = registry.render()
        assert "counters:" in text and "gauges:" in text
        assert "histograms:" in text and "h_seconds" in text


class TestConcurrentWriters:
    def test_barrier_synced_workers_keep_exact_aggregates(self):
        """4 workers hammer one histogram + counter through the same barrier.

        Label kwargs arrive in a different order per worker, so the test also
        proves canonicalization under contention: every write lands on the
        same key, and count/total stay exact.
        """
        registry = MetricsRegistry()
        barrier = threading.Barrier(4)
        per_worker = 500
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for step in range(per_worker):
                    if index % 2 == 0:
                        registry.observe(
                            "solve_seconds", 0.001, stage="alloc", node=1
                        )
                        registry.inc("requests", outcome="hit", tier="cache")
                    else:
                        registry.observe(
                            "solve_seconds", 0.001, node=1, stage="alloc"
                        )
                        registry.inc("requests", tier="cache", outcome="hit")
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors

        snap = registry.snapshot()
        # Canonical label ordering: exactly one series per metric.
        assert list(snap.histograms) == ["solve_seconds{node=1,stage=alloc}"]
        assert list(snap.counters) == ["requests{outcome=hit,tier=cache}"]
        summary = registry.histogram_summary("solve_seconds", stage="alloc", node=1)
        assert summary.count == 4 * per_worker
        assert summary.total == pytest.approx(4 * per_worker * 0.001)
        assert (
            registry.counter_value("requests", outcome="hit", tier="cache")
            == 4 * per_worker
        )


def test_global_registry_is_a_singleton():
    assert get_metrics() is get_metrics()
