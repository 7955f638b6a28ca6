"""Unit tests for trace export: chrome schema, flat JSON, aggregation."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    aggregate_phases,
    chrome_trace,
    flat_json,
    write_trace,
)


def populated_tracer():
    tracer = Tracer(enabled=True)
    with tracer.span("optimize"):
        with tracer.span("tuning.stage1", candidates=5):
            pass
        with tracer.span("tuning.stage2", survivors=2):
            pass
    return tracer


class TestChromeTrace:
    def test_schema(self):
        tracer = populated_tracer()
        registry = MetricsRegistry()
        registry.counter("eval.requests").add(7)
        doc = chrome_trace(tracer, registry)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        completes = [e for e in events if e["ph"] == "X"]
        assert {m["name"] for m in metas} >= {"process_name", "thread_name"}
        assert len(completes) == 3
        for event in completes:
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["ts"] >= 0.0
            assert event["pid"] == 1 and "tid" in event
            assert "span_id" in event["args"]
        # cat is the name prefix, so viewers can filter by subsystem.
        cats = {e["name"]: e["cat"] for e in completes}
        assert cats["tuning.stage1"] == "tuning"
        assert cats["optimize"] == "optimize"
        assert doc["otherData"]["metrics"]["eval.requests"]["value"] == 7

    def test_parent_links_survive_export(self):
        doc = chrome_trace(populated_tracer(), MetricsRegistry())
        completes = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        root_id = completes["optimize"]["args"]["span_id"]
        assert completes["tuning.stage1"]["args"]["parent_id"] == root_id
        assert completes["tuning.stage2"]["args"]["parent_id"] == root_id
        assert "parent_id" not in completes["optimize"]["args"]

    def test_json_serializable(self):
        doc = chrome_trace(populated_tracer(), MetricsRegistry())
        round_trip = json.loads(json.dumps(doc))
        assert round_trip["displayTimeUnit"] == "ms"

    def test_dropped_spans_reported(self):
        tracer = Tracer(enabled=True, max_spans=1)
        for _ in range(3):
            with tracer.span("x"):
                pass
        doc = chrome_trace(tracer, MetricsRegistry())
        assert doc["otherData"]["dropped_spans"] == 2

    def test_empty_tracer_exports_cleanly(self):
        doc = chrome_trace(Tracer(enabled=True), MetricsRegistry())
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]


class TestFlatJson:
    def test_spans_and_metrics(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2)
        doc = flat_json(populated_tracer(), registry)
        assert {s["name"] for s in doc["spans"]} == {
            "optimize", "tuning.stage1", "tuning.stage2",
        }
        for item in doc["spans"]:
            assert item["start_us"] >= 0.0
            assert item["duration_us"] >= 0.0
        assert doc["metrics"]["g"]["value"] == 2


class TestWriteTrace:
    def test_writes_valid_files(self, tmp_path):
        tracer = populated_tracer()
        registry = MetricsRegistry()
        chrome_path = tmp_path / "t.json"
        flat_path = tmp_path / "f.json"
        write_trace(str(chrome_path), tracer, registry, fmt="chrome")
        write_trace(str(flat_path), tracer, registry, fmt="flat")
        assert "traceEvents" in json.loads(chrome_path.read_text())
        assert "spans" in json.loads(flat_path.read_text())

    def test_unknown_format_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(str(tmp_path / "x"), Tracer(), fmt="xml")


class TestAggregatePhases:
    def test_counts_totals_and_self_time(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
            with tracer.span("child"):
                pass
        totals = {p.name: p for p in aggregate_phases(tracer.finished())}
        assert totals["child"].count == 2
        parent = totals["parent"]
        child = totals["child"]
        assert parent.count == 1
        # Self time excludes the two direct children.
        assert parent.self_s <= parent.total_s - child.total_s + 1e-9
        assert child.self_s == pytest.approx(child.total_s)

    def test_sorted_by_total_descending(self):
        import time

        tracer = Tracer(enabled=True)
        with tracer.span("slow"):
            time.sleep(0.005)
        with tracer.span("fast"):
            pass
        totals = aggregate_phases(tracer.finished())
        assert [p.name for p in totals] == ["slow", "fast"]

    def test_empty_input(self):
        assert aggregate_phases(()) == []


class TestSearchInstants:
    """Candidate events ride along as ph:"i" instants on their own track."""

    @staticmethod
    def _search_events(t0_s, offsets_ms=(1.0, 2.0, 3.0)):
        events = [{"kind": "header", "version": 1, "t0_s": t0_s}]
        for index, t_ms in enumerate(offsets_ms):
            events.append(
                {
                    "kind": "candidate",
                    "seq": index + 1,
                    "t_ms": t_ms,
                    "fingerprint": f"fp{index}",
                    "plan": f"plan-{index}",
                    "disposition": "simulated",
                    "gflops": 100.0 + index,
                }
            )
        events.append({"kind": "winner", "seq": 99, "t_ms": 9.0})
        return events

    def test_instants_on_dedicated_named_track(self):
        tracer = populated_tracer()
        t0 = tracer.finished()[0].start_s
        doc = chrome_trace(
            tracer, MetricsRegistry(), search_events=self._search_events(t0)
        )
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 3  # candidates only, not header/winner
        tids = {e["tid"] for e in instants}
        assert len(tids) == 1
        (tid,) = tids
        metas = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["tid"] == tid
        }
        assert metas == {"search candidates"}
        for event in instants:
            assert event["s"] == "t"
            assert event["cat"] == "search"
            assert event["name"].startswith("candidate:")
            assert event["args"]["fingerprint"]
            assert event["ts"] >= 0.0

    def test_instants_time_aligned_with_spans(self):
        tracer = populated_tracer()
        spans = tracer.finished()
        base = min(s.start_s for s in spans)
        doc = chrome_trace(
            tracer,
            MetricsRegistry(),
            search_events=self._search_events(base, offsets_ms=(5.0,)),
        )
        (instant,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        # header t0 == earliest span start, candidate at +5 ms
        assert instant["ts"] == pytest.approx(5000.0, abs=1.0)

    def test_base_covers_instants_without_spans(self):
        # Degenerate path: no spans at all.  The time base must come
        # from the candidate timestamps, not default to 0.0 (which
        # would put instants at raw perf_counter microseconds).
        doc = chrome_trace(
            Tracer(enabled=True),
            MetricsRegistry(),
            search_events=self._search_events(1234.5),
        )
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants
        assert min(e["ts"] for e in instants) == pytest.approx(0.0, abs=1e-6)
        assert max(e["ts"] for e in instants) < 10_000  # microseconds, small

    def test_no_search_events_unchanged(self):
        doc = chrome_trace(populated_tracer(), MetricsRegistry())
        assert not [e for e in doc["traceEvents"] if e["ph"] == "i"]

    def test_write_trace_passes_search_events(self, tmp_path):
        import json as _json

        path = tmp_path / "t.json"
        tracer = populated_tracer()
        t0 = tracer.finished()[0].start_s
        write_trace(
            str(path),
            tracer,
            MetricsRegistry(),
            fmt="chrome",
            search_events=self._search_events(t0),
        )
        doc = _json.loads(path.read_text())
        assert [e for e in doc["traceEvents"] if e["ph"] == "i"]
