"""The ``--search-log`` stream is pinned line by line against a golden.

``golden_search_log.jsonl`` is the stream one small tuner run writes
(the 7-point smoother of ``test_search.py`` on P100, with the phase and
summary footers), and ``golden_explain.json`` the explain payload
derived from it.  A rebuild of the log's internals must write the same
records with the same keys in the same order; only timing fields may
differ, and they are masked before comparison.

After a *deliberate* change to the stream, regenerate the golden from
the repository root::

    PYTHONPATH=src python tests/obs/test_search_golden.py
"""

import json
import os
from typing import List

from repro.codegen import seed_plan_from_pragma
from repro.dsl import parse
from repro.gpu.device import P100
from repro.ir import build_ir
from repro.obs import configure_tracing, get_tracer, tracing_enabled
from repro.obs.explain import build_explain
from repro.obs.search import SearchLog, read_events
from repro.tuning import HierarchicalTuner, PlanEvaluator

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_search_log.jsonl")
GOLDEN_EXPLAIN_PATH = os.path.join(HERE, "golden_explain.json")

#: one structural family of probe plans, large enough to be
#: family-priced
BLOCKS = [(32, 4), (32, 8), (16, 8), (64, 4), (16, 16)]

#: fields that carry wall-clock measurements, per record kind
_TIMING = {"phase": ("total_ms", "self_ms")}


def record_stream(path: str) -> SearchLog:
    """Write the golden run's search log to ``path``; return the log."""
    from tests.obs.test_search import SMOOTHER_SRC

    ir = build_ir(parse(SMOOTHER_SRC))
    was_tracing = tracing_enabled()
    configure_tracing(True, clear=True)
    try:
        log = SearchLog(path=path, device=P100)
        engine = PlanEvaluator(device=P100, search_log=log)
        base = seed_plan_from_pragma(ir, ir.kernels[0]).replace(
            placements=(("in", "shmem"),)
        )
        HierarchicalTuner(ir, evaluator=engine, use_unrolling=False).tune(
            base
        )
        # Probes for the record shapes a tuner run on this program does
        # not produce: cache hits, infeasible plans and both prune
        # reasons, scalar and family-priced.
        invalid = [base.replace(block=b, stream_axis=7) for b in BLOCKS]
        valid = [base.replace(block=b) for b in BLOCKS]
        with log.context(stage="probe"):
            engine.try_evaluate(ir, base)
            engine.try_evaluate(ir, base)
            engine.try_evaluate(ir, invalid[0])
            engine.try_evaluate(ir, invalid[0])
            engine.evaluate_spill_free(ir, invalid[0])
            engine.evaluate_spill_free(ir, base, levels=(8,))
            engine.evaluate_spill_free_batch(ir, invalid)
            engine.evaluate_spill_free_batch(ir, valid, levels=(8,))
        log.phases(get_tracer().finished())
        log.summary(engine.stats)
        log.close()
    finally:
        configure_tracing(was_tracing, clear=True)
    return log


def masked_lines(path: str) -> List[str]:
    """The stream's lines with every timing value zeroed in place.

    Keys keep their position, so the re-encoded lines still compare key
    order as well as content.  The ``phase`` footer is ordered by total
    time, so its block is sorted by phase name and its ``seq`` numbers
    are masked too.
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            for name in ("t_ms", "t0_s") + _TIMING.get(record["kind"], ()):
                if name in record:
                    record[name] = 0
            if record["kind"] == "phase":
                record["seq"] = 0
            if record["kind"] == "summary":
                record["stats"]["wall_s"] = 0
            records.append(record)
    phases = [i for i, r in enumerate(records) if r["kind"] == "phase"]
    by_name = sorted((records[i] for i in phases), key=lambda r: r["name"])
    for i, record in zip(phases, by_name):
        records[i] = record
    return [json.dumps(record) for record in records]


def masked_explain(events) -> str:
    """The explain payload of ``events`` with its timing fields zeroed
    and its phases sorted by name."""
    payload = build_explain(events).as_dict()
    for phase in payload["phases"]:
        phase["total_ms"] = phase["self_ms"] = 0
    payload["phases"].sort(key=lambda phase: phase["name"])
    payload["stats"]["wall_s"] = 0
    return json.dumps(payload, indent=1)


def test_stream_matches_golden(tmp_path):
    path = tmp_path / "search.jsonl"
    record_stream(str(path))
    written = masked_lines(str(path))
    golden = masked_lines(GOLDEN_PATH)
    assert len(written) == len(golden)
    for number, (line, expected) in enumerate(zip(written, golden), start=1):
        assert line == expected, f"line {number} differs from the golden"


def test_explain_matches_golden(tmp_path):
    path = tmp_path / "search.jsonl"
    log = record_stream(str(path))
    with open(GOLDEN_EXPLAIN_PATH, encoding="utf-8") as handle:
        golden = handle.read()
    assert masked_explain(log.events()) == golden
    assert masked_explain(read_events(str(path))) == golden


if __name__ == "__main__":
    import sys

    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.dirname(GOLDEN_PATH)))
    )
    live = record_stream(GOLDEN_PATH)
    with open(GOLDEN_EXPLAIN_PATH, "w", encoding="utf-8") as out:
        out.write(masked_explain(live.events()))
    for name in (GOLDEN_PATH, GOLDEN_EXPLAIN_PATH):
        print(f"{name}: {os.path.getsize(name)} bytes")
