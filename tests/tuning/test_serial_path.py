"""Batches have one execution path: the serial evaluator, one attempt
per candidate.

The thread pool, the fork pool and the multi-process coordinator were
removed because none of them beat the serial evaluator on any suite
workload.  Retries, the per-evaluation timeout watchdog and the
degraded path were removed because the model is deterministic: they
could only recover faults the repository injected into itself.  These
tests pin both removals at the library surface, so a second executor
or a second attempt cannot creep back in through a keyword argument.
"""

import importlib
import inspect

import pytest

from repro.obs import Tracer
from repro import resilience
from repro.obs import export
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.resilience import FaultInjector, TuningJournal
from repro.suite.bench import run_bench
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune
from repro.tuning import evaluator
from repro.tuning.evaluator import EvalStats
from repro.tuning.random_search import random_search

ENTRY_POINTS = {
    "PlanEvaluator": PlanEvaluator,
    "PlanEvaluator.evaluate_batch": PlanEvaluator.evaluate_batch,
    "PlanEvaluator.evaluate_spill_free_batch": (
        PlanEvaluator.evaluate_spill_free_batch
    ),
    "HierarchicalTuner": HierarchicalTuner,
    "deep_tune": deep_tune,
    "random_search": random_search,
    "optimize": optimize,
    "run_bench": run_bench,
}


@pytest.mark.parametrize(
    "parameter", ["workers", "executor", "retry", "timeout_s"]
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_executor_parameters(entry, parameter):
    params = inspect.signature(ENTRY_POINTS[entry]).parameters
    assert parameter not in params
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


@pytest.mark.parametrize(
    "parameter", ["kind", "transient_failures", "spare_degraded"]
)
def test_fault_injector_raises_errors_only(parameter):
    assert parameter not in inspect.signature(FaultInjector).parameters


def test_optimize_takes_no_tuner_factory():
    # deep_tune keeps its own factory for transfer tuning; the flow
    # itself always builds the plain hierarchical tuner.
    assert "make_tuner" not in inspect.signature(optimize).parameters
    assert "make_tuner" in inspect.signature(deep_tune).parameters


@pytest.mark.parametrize("module", ["repro.distrib", "repro.obs.live"])
def test_removed_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize(
    "owner, attribute",
    [
        (export, "stitch_chrome_traces"),
        (export, "stitch_run_trace"),
        (TuningJournal, "append_record"),
        (TuningJournal, "merge_record"),
        (Tracer, "open_spans"),
        (evaluator, "EXECUTOR_MODES"),
        (resilience, "RetryPolicy"),
        (resilience, "EvaluationTimeout"),
        (resilience, "FAULT_KINDS"),
        (SearchLog, "capture"),
        (SearchLog, "use"),
        (EvalStats, "retries"),
        (EvalStats, "timeouts"),
        (EvalStats, "degraded"),
        (EvalStats, "cpu_s"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_removed_attributes_are_gone(owner, attribute):
    assert not hasattr(owner, attribute)


def test_write_trace_has_no_stitch_root():
    assert "stitch_root" not in inspect.signature(export.write_trace).parameters
