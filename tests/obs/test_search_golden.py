"""The ``--search-log`` stream is pinned line by line against a golden.

``golden_search_log.jsonl`` is the stream one small tuner run writes
(the 7-point smoother of ``test_search.py`` on P100, with the summary
footer), and ``golden_explain.json`` the explain payload derived from
it.  A rebuild of the log's internals must write the same records with
the same keys in the same order; only timing fields may differ, and
they are masked before comparison.

The ``phase`` footer (one record per span name, with its count) names
internal memo and pricing spans, so it moves whenever a change memoizes
or prices less.  It has its own golden, ``golden_phases.json``: the
span name -> count mapping in name order, which both the stream's phase records
and the explain payload's ``phases`` must match.  The other two goldens
hold no phase record; the two summary fields the footer's length
decides (its ``seq`` and ``counts["phase"]``) are checked against the
phase golden instead.

After a *deliberate* change to the stream, regenerate the goldens from
the repository root::

    PYTHONPATH=src python tests/obs/test_search_golden.py

It rewrites only the goldens whose masked content changed.
"""

import json
import os
import tempfile
from typing import Dict, List

import pytest

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
GOLDEN_PHASES_PATH = os.path.join(HERE, "golden_phases.json")

#: one structural family of probe plans, large enough to be
#: family-priced
BLOCKS = [(32, 4), (32, 8), (16, 8), (64, 4), (16, 16)]

#: keys of a ``phase`` record, in order (its timing fields are not
#: compared)
_PHASE_KEYS = ["kind", "seq", "t_ms", "name", "count", "total_ms", "self_ms"]

#: the placeholder ``masked_explain`` puts where the phases were
_PHASES_ELSEWHERE = "see golden_phases.json"


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
    """The stream's lines without its phase footer, timing values zeroed.

    Keys keep their position, so the re-encoded lines still compare key
    order as well as content.  The summary's ``seq`` and
    ``counts["phase"]`` follow from the footer's length, which
    :func:`phase_counts` pins, so they are zeroed too.
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["kind"] == "phase":
                continue
            for name in ("t_ms", "t0_s"):
                if name in record:
                    record[name] = 0
            if record["kind"] == "summary":
                record["seq"] = 0
                record["counts"]["phase"] = 0
                record["stats"]["wall_s"] = 0
            records.append(record)
    return [json.dumps(record) for record in records]


def phase_counts(path: str) -> Dict[str, int]:
    """The stream's phase footer as ``{name: count}`` in name order.

    Checks what :func:`masked_lines` leaves out: each phase record's
    keys, that the footer is one block just before the summary, that
    ``seq`` runs 1, 2, ... over the whole stream, and that the summary
    counts the footer's records.
    """
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    kinds = [record["kind"] for record in records]
    first = kinds.index("phase")
    last = len(kinds) - 1 - kinds[::-1].index("phase")
    assert set(kinds[first:last + 1]) == {"phase"}
    assert kinds[last + 1:] == ["summary"]
    sequenced = [record["seq"] for record in records if "seq" in record]
    assert sequenced == list(range(1, len(sequenced) + 1))
    phases = records[first:last + 1]
    assert all(list(record) == _PHASE_KEYS for record in phases)
    assert records[-1]["counts"]["phase"] == len(phases)
    return _by_name(phases)


def _by_name(phases) -> Dict[str, int]:
    counts = {phase["name"]: phase["count"] for phase in phases}
    assert len(counts) == len(phases), "a span name has two phase records"
    return dict(sorted(counts.items()))


def masked_explain(events) -> str:
    """The explain payload of ``events`` with its timing fields zeroed
    and its phases replaced by a placeholder (:func:`explain_phase_counts`
    reads them)."""
    payload = build_explain(events).as_dict()
    payload["phases"] = _PHASES_ELSEWHERE
    payload["stats"]["wall_s"] = 0
    return json.dumps(payload, indent=1)


def explain_phase_counts(events) -> Dict[str, int]:
    """The explain payload's phases as ``{name: count}`` in name order."""
    phases = build_explain(events).as_dict()["phases"]
    assert all(
        list(phase) == ["name", "count", "total_ms", "self_ms"]
        for phase in phases
    )
    return _by_name(phases)


def read_golden_phases() -> Dict[str, int]:
    with open(GOLDEN_PHASES_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded run, shared by the tests below: (path, log)."""
    path = str(tmp_path_factory.mktemp("search") / "search.jsonl")
    return path, record_stream(path)


def test_stream_matches_golden(recorded):
    path, _log = recorded
    written = masked_lines(path)
    golden = masked_lines(GOLDEN_PATH)
    assert len(written) == len(golden)
    for number, (line, expected) in enumerate(zip(written, golden), start=1):
        assert line == expected, f"line {number} differs from the golden"


def test_explain_matches_golden(recorded):
    path, log = recorded
    with open(GOLDEN_EXPLAIN_PATH, encoding="utf-8") as handle:
        golden = handle.read()
    assert masked_explain(log.events()) == golden
    assert masked_explain(read_events(path)) == golden


def test_phases_match_golden(recorded):
    path, log = recorded
    golden = read_golden_phases()
    assert phase_counts(path) == golden
    assert explain_phase_counts(log.events()) == golden
    assert explain_phase_counts(read_events(path)) == golden


def _write_if_changed(path: str, text: str, masked) -> None:
    """Write ``text`` to ``path`` unless ``masked`` (a function of a path)
    already agrees for the file there, so an unchanged golden keeps its
    bytes."""
    if os.path.exists(path):
        with tempfile.TemporaryDirectory() as tmp:
            fresh = os.path.join(tmp, os.path.basename(path))
            with open(fresh, "w", encoding="utf-8") as out:
                out.write(text)
            if masked(fresh) == masked(path):
                print(f"{path}: unchanged")
                return
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)
    print(f"{path}: {os.path.getsize(path)} bytes")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


if __name__ == "__main__":
    import sys

    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.dirname(GOLDEN_PATH)))
    )
    with tempfile.TemporaryDirectory() as scratch:
        stream = os.path.join(scratch, "search.jsonl")
        live = record_stream(stream)
        phases = phase_counts(stream)
        with open(stream, encoding="utf-8") as handle:
            lines = [
                line for line in handle
                if json.loads(line)["kind"] != "phase"
            ]
    _write_if_changed(GOLDEN_PATH, "".join(lines), masked_lines)
    _write_if_changed(
        GOLDEN_EXPLAIN_PATH, masked_explain(live.events()), _read
    )
    _write_if_changed(
        GOLDEN_PHASES_PATH, json.dumps(phases, indent=1) + "\n", _read
    )
