"""Unit tests for the metrics registry."""

import random
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    configure_metrics,
    get_metrics,
    metrics_enabled,
)


class TestTypes:
    def test_counter_accumulates(self):
        c = Counter("hits")
        c.add()
        c.add(4)
        assert c.value == 5
        assert c.as_dict() == {"type": "counter", "value": 5}

    def test_counter_rejects_negative(self):
        c = Counter("hits")
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_set_and_add(self):
        g = Gauge("size")
        g.set(10)
        g.add(-3)
        assert g.value == 7
        assert g.as_dict()["type"] == "gauge"

    def test_histogram_summary(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["sum"] == 6.0
        assert d["min"] == 1.0 and d["max"] == 3.0
        assert d["mean"] == 2.0

    def test_histogram_reservoir_bounded(self):
        h = Histogram("lat", capacity=4)
        for v in range(100):
            h.observe(v)
        assert h.count == 100
        assert len(h._recent) == 4
        assert h._recent == [96.0, 97.0, 98.0, 99.0]

    def test_empty_histogram_is_finite(self):
        d = Histogram("lat").as_dict()
        assert d["count"] == 0 and d["min"] == 0.0 and d["mean"] == 0.0


class TestQuantiles:
    def test_exact_at_extremes(self):
        h = Histogram("lat")
        for v in (0.002, 0.004, 0.07, 0.3):
            h.observe(v)
        assert h.quantile(0.0) == 0.002
        assert h.quantile(1.0) == 0.3

    def test_median_lands_in_crossing_bucket(self):
        h = Histogram("lat")
        for _ in range(100):
            h.observe(0.02)  # all in the (0.01, 0.025] bucket
        assert 0.01 <= h.quantile(0.5) <= 0.025

    def test_monotone_in_q(self):
        h = Histogram("lat")
        for v in (0.0001, 0.002, 0.02, 0.2, 2.0, 20.0):
            h.observe(v)
        quantiles = [h.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)

    def test_empty_is_zero(self):
        assert Histogram("lat").quantile(0.5) == 0.0

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)

    def test_quantile_from_dict_matches_live(self):
        h = Histogram("lat")
        for v in (0.001, 0.02, 0.4, 3.0):
            h.observe(v)
        d = h.as_dict()
        for q in (0.0, 0.5, 0.95, 1.0):
            assert Histogram.quantile_from_dict(d, q) == h.quantile(q)

    def test_legacy_snapshot_without_buckets(self):
        d = {"type": "histogram", "count": 2, "min": 1.0, "max": 3.0}
        assert Histogram.quantile_from_dict(d, 0.5) == 2.0


class TestMergeDicts:
    def test_counter_merge_sums(self):
        a, b = Counter("n"), Counter("n")
        a.add(3)
        b.add(4)
        a.merge_dict(b.as_dict())
        assert a.value == 7

    def test_gauge_merge_newest_wins(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(1.0, ts=100.0)
        b.set(2.0, ts=50.0)  # older write must not clobber
        a.merge_dict(b.as_dict())
        assert a.value == 1.0
        b.merge_dict(a.as_dict())
        assert b.value == 1.0

    def test_histogram_merge_bins_and_extremes(self):
        a, b = Histogram("h"), Histogram("h")
        a.observe(0.001)
        b.observe(5.0)
        b.observe(0.3)
        a.merge_dict(b.as_dict())
        assert a.count == 3
        assert a.quantile(0.0) == 0.001 and a.quantile(1.0) == 5.0

    def test_histogram_merge_empty_is_noop(self):
        a = Histogram("h")
        a.observe(1.0)
        a.merge_dict(Histogram("h", bounds=(1.0, 2.0)).as_dict())
        assert a.count == 1  # empty snapshot merges even with odd bounds

    def test_histogram_bounds_mismatch_raises(self):
        a = Histogram("h")
        other = Histogram("h", bounds=(1.0, 2.0))
        other.observe(1.5)
        with pytest.raises(ValueError):
            a.merge_dict(other.as_dict())

    def test_registry_merge_snapshot_creates_and_folds(self):
        source = MetricsRegistry()
        source.counter("c").add(2)
        source.gauge("g").set(5)
        source.histogram("h").observe(0.1)
        target = MetricsRegistry()
        target.counter("c").add(1)
        target.merge_snapshot(source.snapshot())
        assert target.counter("c").value == 3
        assert target.gauge("g").value == 5
        assert target.histogram("h").count == 1

    def test_registry_merge_snapshot_excludes_prefixes(self):
        source = MetricsRegistry()
        source.counter("eval.requests").add(2)
        source.counter("distrib.steals").add(1)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot(), exclude_prefixes=("eval.",))
        assert "eval.requests" not in target.snapshot()
        assert target.counter("distrib.steals").value == 1


# Exact-in-float values: sums of multiples of 0.25 carry no rounding,
# so merges in any order produce bit-identical sums and means.
_exact = st.integers(min_value=0, max_value=40).map(lambda n: n * 0.25)


@st.composite
def _registry_snapshots(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    gauge_ts = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=count, max_size=count, unique=True,
        )
    )
    snapshots = []
    for index in range(count):
        reg = MetricsRegistry()
        counters = draw(
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=100),
                max_size=3,
            )
        )
        for name, value in counters.items():
            reg.counter(name).add(value)
        reg.gauge("g").set(draw(_exact), ts=float(gauge_ts[index]))
        for value in draw(st.lists(_exact, max_size=6)):
            reg.histogram("h").observe(value)
        snapshots.append(reg.snapshot())
    return snapshots


def _fold(snapshots):
    reg = MetricsRegistry()
    for snapshot in snapshots:
        reg.merge_snapshot(snapshot)
    return reg.snapshot()


class TestMergeLaws:
    """``merge_snapshot`` promises a commutative, associative fold."""

    @settings(max_examples=60, deadline=None)
    @given(snapshots=_registry_snapshots(), seed=st.integers(0, 2**16))
    def test_fold_order_never_changes_the_result(self, snapshots, seed):
        shuffled = list(snapshots)
        random.Random(seed).shuffle(shuffled)
        assert _fold(snapshots) == _fold(shuffled)

    @settings(max_examples=30, deadline=None)
    @given(snapshots=_registry_snapshots())
    def test_fold_is_associative(self, snapshots):
        # Folding a pre-merged prefix equals folding one at a time.
        split = len(snapshots) // 2
        grouped = [_fold(snapshots[:split]), _fold(snapshots[split:])]
        assert _fold(grouped) == _fold(snapshots)


class TestRegistry:
    def test_created_on_first_use_then_shared(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        b = reg.counter("x")
        assert a is b
        assert len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b").add(2)
        reg.gauge("a").set(1.5)
        reg.histogram("c").observe(0.25)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b", "c"]
        json.dumps(snap)  # must serialize without a custom encoder

    def test_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("x").add()
        reg.reset()
        assert len(reg) == 0

    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()

        def work():
            c = reg.counter("shared")
            for _ in range(1000):
                c.add()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("shared").value == 8000


class TestGlobalRegistry:
    def test_disabled_by_default(self):
        assert not metrics_enabled()

    def test_configure_toggles_and_resets(self):
        reg = configure_metrics(True, reset=True)
        try:
            assert metrics_enabled()
            assert reg is get_metrics()
            reg.counter("t").add()
            assert len(reg) == 1
        finally:
            configure_metrics(False, reset=True)
        assert not metrics_enabled()
        assert len(get_metrics()) == 0

    def test_eval_stats_publish_respects_flag(self):
        from repro.tuning.evaluator import EvalStats

        stats = EvalStats(requests=3, hits=1, misses=2, wall_s=0.5)
        stats.publish()  # disabled: must record nothing
        assert len(get_metrics()) == 0
        configure_metrics(True, reset=True)
        try:
            stats.publish()
            snap = get_metrics().snapshot()
            assert snap["eval.requests"]["value"] == 3
            assert snap["eval.wall_s"]["count"] == 1
            assert snap["eval.wall_s"]["sum"] == 0.5
        finally:
            configure_metrics(False, reset=True)
