"""Batches have one execution path: the serial evaluator.

The thread pool, the fork pool and the multi-process coordinator were
removed because none of them beat the serial evaluator on any suite
workload.  These tests pin that removal at the library surface, so a
second executor cannot creep back in through a keyword argument.
"""

import importlib
import inspect

import pytest

from repro.obs import Tracer
from repro.obs import export
from repro.pipeline import optimize
from repro.resilience import TuningJournal
from repro.suite.bench import run_bench
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune
from repro.tuning import evaluator
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


@pytest.mark.parametrize("parameter", ["workers", "executor"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_executor_parameters(entry, parameter):
    params = inspect.signature(ENTRY_POINTS[entry]).parameters
    assert parameter not in params
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


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
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_removed_attributes_are_gone(owner, attribute):
    assert not hasattr(owner, attribute)


def test_write_trace_has_no_stitch_root():
    assert "stitch_root" not in inspect.signature(export.write_trace).parameters
