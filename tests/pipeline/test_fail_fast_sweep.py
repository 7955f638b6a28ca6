"""Every suite job ends in a winner or a typed error, never anything else.

Runs ``optimize`` on all 11 Table I kernels on every registered device
profile, plus ``iterations=64`` for the iterative kernels.  A job either
returns a winner whose accounting is exact (every screened candidate
carries a lint rule code) or raises a :class:`ReproError` with its
documented exit code.  Any other exception is a model bug, which
fail-fast surfaces.

Each job's outcome is pinned exactly by ``golden_eval_stats.json``: the
engine counters, the winning variant and the winner's TFLOPS ``repr``
for a job that finds a winner, the error class for one that fails (only
the TOY profile refuses kernels).  Regenerate the golden after a
*deliberate* model or engine change with::

    PYTHONPATH=src python tests/pipeline/regen_golden_eval_stats.py
"""

import json
import os

import pytest

from repro.gpu.device import device_names, get_device
from repro.gpu.simulator import PlanInfeasible
from repro.pipeline import optimize
from repro.resilience import ReproError
from repro.suite import BENCHMARK_ORDER, ITERATIVE_BENCHMARKS, load_ir

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

JOBS = [
    (kernel, device, None)
    for device in device_names()
    for kernel in BENCHMARK_ORDER
] + [
    (kernel, device, 64)
    for device in device_names()
    for kernel in ITERATIVE_BENCHMARKS
]


def job_id(kernel, device, iterations):
    return f"{kernel}-{device}-T{iterations or 'default'}"


def job_entry(kernel, device, iterations):
    """The golden record of one sweep job, checking its invariants."""
    try:
        outcome = optimize(
            load_ir(kernel), device=get_device(device), iterations=iterations
        )
    except ReproError as exc:
        assert exc.exit_code == EXIT_CODES[type(exc)], exc.describe()
        return {"error": type(exc).__name__}
    assert outcome.tflops > 0
    assert outcome.schedule.plans
    stats = outcome.eval_stats
    assert stats.lint_rejections == stats.screened
    entry = {name: getattr(stats, name) for name in STAT_FIELDS}
    entry["variant"] = outcome.variant
    entry["tflops"] = repr(outcome.tflops)
    return entry


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_job_and_only_toy_refuses(golden):
    assert len(JOBS) == 11 * len(device_names()) + 4 * len(device_names())
    assert set(golden) == {job_id(*job) for job in JOBS}
    refused = {name for name, entry in golden.items() if "error" in entry}
    assert refused and all("-TOY-" in name for name in refused)


@pytest.mark.parametrize(
    "kernel, device, iterations", JOBS, ids=[job_id(*job) for job in JOBS]
)
def test_job_matches_golden(golden, kernel, device, iterations):
    assert job_entry(kernel, device, iterations) == golden[
        job_id(kernel, device, iterations)
    ]
