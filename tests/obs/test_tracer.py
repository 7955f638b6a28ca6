"""Unit tests for the span tracer: nesting, threading, no-op behavior."""

import threading
import time

import pytest

from repro.obs import (
    Tracer,
    configure_tracing,
    get_tracer,
    span,
    traced,
    tracing_enabled,
)
from repro.obs.tracer import _NOOP


@pytest.fixture
def global_tracing():
    """Enable the process tracer for a test, restore cleanly after."""
    tracer = configure_tracing(True, clear=True)
    try:
        yield tracer
    finally:
        configure_tracing(False, clear=True)


class TestNesting:
    def test_parent_child_links_and_depth(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None and outer.depth == 0
        assert middle.parent_id == outer.span_id and middle.depth == 1
        assert inner.parent_id == middle.span_id and inner.depth == 2

    def test_finished_in_completion_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        names = [s.name for s in tracer.finished()]
        assert names == ["b", "c", "a"]

    def test_siblings_share_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("one") as one:
                pass
            with tracer.span("two") as two:
                pass
        assert one.parent_id == root.span_id
        assert two.parent_id == root.span_id
        assert one.depth == two.depth == 1

    def test_span_ids_unique_and_increasing(self):
        tracer = Tracer(enabled=True)
        for _ in range(5):
            with tracer.span("x"):
                pass
        ids = [s.span_id for s in tracer.finished()]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_timestamps_ordered(self):
        tracer = Tracer(enabled=True)
        with tracer.span("timed"):
            time.sleep(0.002)
        (item,) = tracer.finished()
        assert item.end_s > item.start_s
        assert item.duration_s >= 0.002

    def test_exception_sets_error_and_unwinds(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("no")
        (item,) = tracer.finished()
        assert item.attributes["error"] == "RuntimeError"
        assert tracer.current_span() is None  # stack fully unwound

    def test_attributes_and_annotate(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", candidates=7):
            tracer.annotate(feasible=3)
        (item,) = tracer.finished()
        assert item.attributes == {"candidates": 7, "feasible": 3}

    def test_decorator_records_call(self):
        tracer = Tracer(enabled=True)

        @tracer.traced("deco")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        (item,) = tracer.finished()
        assert item.name == "deco"
        assert add.__name__ == "add"

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=3)
        for _ in range(5):
            with tracer.span("x"):
                pass
        assert len(tracer.finished()) == 3
        assert tracer.dropped == 2
        tracer.clear()
        assert tracer.finished() == ()
        assert tracer.dropped == 0


class TestThreading:
    def test_threads_get_independent_stacks(self):
        tracer = Tracer(enabled=True)
        barrier = threading.Barrier(3)

        def work(label):
            with tracer.span(f"root.{label}"):
                barrier.wait()  # all three spans open simultaneously
                with tracer.span(f"child.{label}"):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.finished()
        assert len(spans) == 6
        roots = [s for s in spans if s.name.startswith("root.")]
        children = [s for s in spans if s.name.startswith("child.")]
        # Concurrent roots never adopt each other as parents.
        assert all(s.parent_id is None and s.depth == 0 for s in roots)
        by_id = {s.span_id: s for s in spans}
        for child in children:
            parent = by_id[child.parent_id]
            assert parent.thread_id == child.thread_id
            assert parent.name == f"root.{child.name.split('.', 1)[1]}"

    def test_pricing_spans_nest_inside_evaluate_batch(self, global_tracing):
        from repro.dsl import parse
        from repro.ir import build_ir
        from repro.codegen import seed_plan_from_pragma
        from repro.tuning import PlanEvaluator

        src = """
        parameter L=64, M=64, N=64;
        iterator k, j, i;
        double in[L,M,N], out[L,M,N];
        copyin in;
        #pragma stream k block (32,8)
        stencil blur (B, A) {
          B[k][j][i] = (A[k][j][i] + A[k][j][i+1] + A[k][j][i-1]) / 3.0;
        }
        blur (out, in);
        copyout out;
        """
        ir = build_ir(parse(src))
        base = seed_plan_from_pragma(ir, ir.kernels[0])
        plans = [
            base.replace(block=block)
            for block in [(32, 8), (32, 16), (16, 8), (16, 16), (8, 8), (64, 4)]
        ]
        # Every family pass opens a ``price_family`` span on the calling
        # thread inside ``eval.batch``.
        results = PlanEvaluator().evaluate_batch(ir, plans)
        assert any(r is not None for r in results)
        spans = global_tracing.finished()
        batch = [s for s in spans if s.name == "eval.batch"]
        assert len(batch) == 1
        assert batch[0].attributes["candidates"] == len(plans)
        by_id = {s.span_id: s for s in spans}

        def ancestors(item):
            while item.parent_id is not None:
                item = by_id[item.parent_id]
                yield item

        simulated = [s for s in spans if s.name == "price_family"]
        assert simulated
        for item in simulated:
            assert item.thread_id == batch[0].thread_id
            assert batch[0].span_id in {a.span_id for a in ancestors(item)}
        # The hierarchy stays well-formed: every parented span's parent
        # lives on the same thread and encloses it in time.
        for item in spans:
            if item.parent_id is None:
                continue
            parent = by_id[item.parent_id]
            assert parent.thread_id == item.thread_id
            assert parent.start_s <= item.start_s
            assert parent.end_s >= item.end_s


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        context = span("anything", expensive=1)
        assert context is _NOOP
        with context as opened:
            assert opened is None
        assert get_tracer().finished() == ()

    def test_disabled_private_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        assert tracer.finished() == ()

    def test_disabled_decorator_passes_through(self):
        calls = []

        @traced("never")
        def func():
            calls.append(1)
            return 42

        assert func() == 42
        assert calls == [1]
        assert get_tracer().finished() == ()

    def test_disabled_span_overhead_is_small(self):
        # Behavioral guard: 100k disabled span entries must be ~instant.
        start = time.perf_counter()
        for _ in range(100_000):
            with span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5

    def test_configure_enables_and_clears(self):
        tracer = configure_tracing(True, clear=True)
        try:
            with span("visible"):
                pass
            assert [s.name for s in tracer.finished()] == ["visible"]
        finally:
            configure_tracing(False, clear=True)
        assert get_tracer().finished() == ()
