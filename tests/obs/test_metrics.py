"""Unit tests for the metrics registry and the run's metrics series."""

import json
import threading

import pytest

from repro.obs import (
    Counter,
    MetricsRegistry,
    configure_metrics,
    counter,
    get_metrics,
    run_series,
)
from repro.tuning.evaluator import EvalStats


class TestTypes:
    def test_counter_accumulates(self):
        c = Counter("hits")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        c = Counter("hits")
        with pytest.raises(ValueError):
            c.add(-1)


class TestRegistry:
    def test_created_on_first_use_then_shared(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        b = reg.counter("x")
        assert a is b
        assert len(reg) == 1

    def test_snapshot_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b").add(2)
        reg.counter("a").add(1.5)
        reg.counter("c")
        snap = reg.snapshot()
        assert snap == {"a": 1.5, "b": 2, "c": 0}
        assert list(snap) == ["a", "b", "c"]
        json.dumps(snap)  # must serialize without a custom encoder

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("x").add()
        snap = reg.snapshot()
        reg.counter("x").add()
        assert snap == {"x": 1}

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
    def test_configure_returns_the_process_registry(self):
        assert configure_metrics() is get_metrics()

    def test_configure_reset_empties(self):
        counter("t").add()
        reg = configure_metrics(reset=True)
        assert len(reg) == 0

    def test_counts_without_a_switch(self):
        before = get_metrics().counter("always.on").value
        counter("always.on").add(2)
        assert get_metrics().counter("always.on").value == before + 2


class TestRunSeries:
    def test_registry_alone_without_an_engine(self):
        reg = configure_metrics(reset=True)
        reg.counter("simulate.calls").add(3)
        assert run_series() == {"simulate.calls": 3}

    def test_eval_stats_become_the_eval_series(self):
        configure_metrics(reset=True)
        stats = EvalStats(requests=4, hits=1, misses=3, screened=1, wall_s=0.5)
        series = run_series(stats)
        assert series == {
            f"eval.{name}": value for name, value in stats.as_dict().items()
        }
        assert series["eval.simulations"] == 2
        assert series["eval.simulations_avoided"] == 2

    def test_wall_s_is_a_plain_seconds_value(self):
        configure_metrics(reset=True)
        assert run_series(EvalStats(wall_s=0.125))["eval.wall_s"] == 0.125

    def test_idle_engine_has_no_wall_s(self):
        configure_metrics(reset=True)
        series = run_series(EvalStats())
        assert "eval.wall_s" not in series
        assert series["eval.requests"] == 0

    def test_merged_with_the_registry_sorted_by_name(self):
        reg = configure_metrics(reset=True)
        reg.counter("simulate.calls").add()
        reg.counter("analysis.cache_miss.flops").add()
        series = run_series(EvalStats(requests=2, wall_s=0.1))
        assert list(series) == sorted(series)
        assert series["simulate.calls"] == 1
        assert series["eval.requests"] == 2
        json.dumps(series)

    def test_engine_stats_own_the_eval_names(self):
        # The engine's statistics are the only source of ``eval.*``: a
        # registry counter of that name is shown as the engine reports.
        reg = configure_metrics(reset=True)
        reg.counter("eval.requests").add(99)
        assert run_series(EvalStats(requests=4))["eval.requests"] == 4
