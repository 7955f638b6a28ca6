"""A live search log and the JSONL file it writes tell the same story.

The engine records each resolved batch as one block of rows, and
``build_explain`` reads a live log's blocks whole (their disposition
tallies and GFLOPS columns) instead of one row at a time.  The file
holds the rows one record per line, and ``build_explain`` reads those
record by record.  Both paths must derive the same explanation, and
the log's counts must be the counts of the file's lines, on whole
optimize runs: the four iterative Table I kernels at 64 time steps and
the spatial ``rhs4sgcurv``, on the P100.
"""

import json

import pytest

from repro.gpu.device import P100
from repro.obs.explain import build_explain
from repro.obs.search import SearchLog, read_events
from repro.pipeline import optimize
from repro.suite import ITERATIVE_BENCHMARKS, load_ir
from repro.tuning import PlanEvaluator

from .test_search_golden import masked_explain

RUNS = [(name, 64) for name in ITERATIVE_BENCHMARKS] + [("rhs4sgcurv", None)]


def _file_counts(path):
    """Event counts by kind, plus ``candidate.<disposition>`` splits, of
    a search-log file (the header is not an event the log counts)."""
    counts = {}
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle][1:]
    for record in records:
        kind = record["kind"]
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "candidate":
            key = f"candidate.{record['disposition']}"
            counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.fixture(scope="module", params=RUNS, ids=lambda run: run[0])
def logged_run(request, tmp_path_factory):
    """One optimize run on P100 with a file-backed search log:
    ``(log, path)`` after the log is closed."""
    name, iterations = request.param
    path = str(tmp_path_factory.mktemp("blocks") / f"{name}.jsonl")
    log = SearchLog(path=path, device=P100)
    engine = PlanEvaluator(device=P100, search_log=log)
    options = {} if iterations is None else {"iterations": iterations}
    outcome = optimize(load_ir(name), device=P100, evaluator=engine, **options)
    log.summary(outcome.eval_stats)
    log.close()
    return log, path


def test_live_explain_matches_the_file(logged_run):
    log, path = logged_run
    live = masked_explain(log.events())
    assert live == masked_explain(read_events(path))
    assert json.loads(live)["candidates"] == log.candidate_count()


def test_live_counts_match_the_file(logged_run):
    log, path = logged_run
    counts = log.counts()
    # Same counts, first seen in the same order as the lines.
    assert list(counts.items()) == list(_file_counts(path).items())
    assert counts["candidate"] == json.loads(
        open(path, encoding="utf-8").read().splitlines()[-1]
    )["stats"]["requests"]


def test_rows_of_a_block_share_time_and_context(logged_run):
    log, _path = logged_run
    events = log.events()
    blocks = [entry for entry in events.entries if hasattr(entry, "tally")]
    assert blocks
    for block in blocks[:50]:
        rows = list(block.rows())
        assert len({row["t_ms"] for row in rows}) == 1
        assert len({id(row.get("context")) for row in rows}) == 1
        assert [row["seq"] for row in rows] == list(
            range(block.seq, block.seq + len(rows))
        )
    assert [event["seq"] for event in events[1:]] == list(
        range(1, len(events))
    )


def test_explain_builds_rows_only_for_the_report(monkeypatch):
    import repro.obs.search as search_module

    log = SearchLog(device=P100)
    engine = PlanEvaluator(device=P100, search_log=log)
    optimize(load_ir("7pt-smoother"), iterations=64, evaluator=engine)
    made = []
    init = search_module._Row.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(search_module._Row, "__init__", counted)
    top_k = 3
    report = build_explain(log.events(), top_k=top_k)
    # Rows are made for the winner, the runners-up and the few the
    # winner join reads, not for every lane.
    assert report.measured > 100 * (top_k + 1)
    assert 0 < len(made) <= 2 * (top_k + 1) + len(report.winner["plans"])
