"""Every suite job ends in a winner or a typed error, never anything else.

Runs ``optimize`` on all 11 Table I kernels on every registered device
profile, plus ``iterations=64`` for the iterative kernels.  A job either
returns a winner whose accounting is exact (every screened candidate
carries a lint rule code) or raises a :class:`ReproError` with its
documented exit code.  Any other exception is a model bug, which
fail-fast surfaces.

Each job's outcome is pinned exactly by ``golden_eval_stats.json``: the
engine counters, the flow's evaluation count, the ``simulate()`` calls
made outside the engine, the winning variant and the winner's TFLOPS
``repr`` for a job that finds a winner, the error class for one that
fails (only the TOY profile refuses kernels).  Two P100 jobs run at
``top_k=2`` and also pin, per tuner stage, the search log's candidate
rows and cache hits.  Regenerate the golden after a *deliberate* model
or engine change with::

    PYTHONPATH=src python tests/pipeline/regen_golden_eval_stats.py
"""

import json
import os

import pytest

from repro.gpu.device import device_names, get_device
from repro.gpu.simulator import PlanInfeasible
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.resilience import ReproError
from repro.suite import BENCHMARK_ORDER, ITERATIVE_BENCHMARKS, load_ir
from repro.tuning import PlanEvaluator
from tests.conftest import counting_simulate_calls

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_eval_stats.json")

#: Documented CLI exit status per error class (``docs/robustness.md``).
EXIT_CODES = {PlanInfeasible: 3}

#: ``EvalStats`` counters pinned per winning job.
STAT_FIELDS = (
    "requests",
    "hits",
    "misses",
    "infeasible",
    "rungs_skipped",
    "screened",
    "lint_rejections",
    "vectorized",
)

#: ``(kernel, device, iterations, top_k)``; ``top_k`` None is the
#: flow's default.  The two ``top_k=2`` jobs are one temporal (deep
#: tuning + opt(T)) and one spatial (fission + global alternatives)
#: search.
JOBS = [
    (kernel, device, None, None)
    for device in device_names()
    for kernel in BENCHMARK_ORDER
] + [
    (kernel, device, 64, None)
    for device in device_names()
    for kernel in ITERATIVE_BENCHMARKS
] + [
    ("7pt-smoother", "P100", None, 2),
    ("addsgd4", "P100", None, 2),
]


def job_id(kernel, device, iterations, top_k=None):
    if top_k is not None:
        return f"{kernel}-{device}-top{top_k}"
    return f"{kernel}-{device}-T{iterations or 'default'}"


def stage_counts(log):
    """Candidate rows and cache hits per tuner stage of a search log.

    Rows outside any tuner stage are deep tuning's classification of
    each degree's winner, counted as ``classify``.
    """
    stages = {}
    for row in log.events():
        if row["kind"] != "candidate":
            continue
        stage = (row.get("context") or {}).get("stage", "classify")
        counts = stages.setdefault(stage, {"candidates": 0, "hits": 0})
        counts["candidates"] += 1
        if row["disposition"] in ("cache-hit", "cache-hit-infeasible"):
            counts["hits"] += 1
    return stages


def job_entry(kernel, device, iterations, top_k=None):
    """The golden record of one sweep job, checking its invariants."""
    spec = get_device(device)
    log = SearchLog() if top_k is not None else None
    options = {} if top_k is None else {"top_k": top_k}
    with counting_simulate_calls() as simulate_calls:
        try:
            outcome = optimize(
                load_ir(kernel),
                device=spec,
                iterations=iterations,
                evaluator=PlanEvaluator(device=spec, search_log=log),
                **options,
            )
        except ReproError as exc:
            assert exc.exit_code == EXIT_CODES[type(exc)], exc.describe()
            return {"error": type(exc).__name__}
        calls = simulate_calls()
    assert outcome.tflops > 0
    assert outcome.schedule.plans
    stats = outcome.eval_stats
    assert stats.lint_rejections == stats.screened
    entry = {name: getattr(stats, name) for name in STAT_FIELDS}
    entry["evaluations"] = outcome.evaluations
    entry["simulate_calls"] = calls
    entry["variant"] = outcome.variant
    entry["tflops"] = repr(outcome.tflops)
    if log is not None:
        entry["stages"] = stage_counts(log)
    return entry


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_job_and_only_toy_refuses(golden):
    assert len(JOBS) == 11 * len(device_names()) + 4 * len(device_names()) + 2
    assert set(golden) == {job_id(*job) for job in JOBS}
    refused = {name for name, entry in golden.items() if "error" in entry}
    assert refused and all("-TOY-" in name for name in refused)


def test_stage_counts_partition_the_engine_counters(golden):
    # Each request is one candidate row of exactly one stage.
    staged = [entry for entry in golden.values() if "stages" in entry]
    assert len(staged) == 2
    for entry in staged:
        stages = entry["stages"].values()
        assert sum(s["candidates"] for s in stages) == entry["requests"]
        assert sum(s["hits"] for s in stages) == entry["hits"]


@pytest.mark.parametrize(
    "kernel, device, iterations, top_k", JOBS, ids=[job_id(*job) for job in JOBS]
)
def test_job_matches_golden(golden, kernel, device, iterations, top_k):
    assert job_entry(kernel, device, iterations, top_k) == golden[
        job_id(kernel, device, iterations, top_k)
    ]
