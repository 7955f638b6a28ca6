"""Batches have one execution path: the serial evaluator, one attempt
per candidate, fail-fast on any unexpected error.

The thread pool, the fork pool and the multi-process coordinator were
removed because none of them beat the serial evaluator on any suite
workload.  Retries, the per-evaluation timeout watchdog and the
degraded path were removed because the model is deterministic: they
could only recover faults the repository injected into itself.  The
skip policy, its failure budget and the fault injector went for the
same reason: a candidate that raised once would raise again, so
skipping it only hides a bug.  The per-candidate journal callback
(``on_result``) and the journal's lock went when the journal moved to
one record per tuning unit.  The seed-mode engine knobs (``memoize``,
``escalation``, ``prescreen``, ``vectorize``) and the process-wide
plan-cache switch went because no production caller changed them: the
engine has one configuration, and the group size alone picks scalar or
family pricing.  The ``repro bench`` harness went once the fail-fast
sweep's golden pinned its exact counts, and with it the per-phase
engine accounting (the search log tags each request with its tuner
stage), the process-global ``simulate()`` call counter (the
``simulate.calls`` metrics counter reads the same), the certifier's
off-switch and the NumPy fusion-schedule DP (the scalar loop is faster
at every horizon).  These tests pin the removals at the library
surface, so a second executor, a second attempt, a second failure
policy, a second engine configuration or a second accounting store
cannot creep back in through a keyword argument.
"""

import importlib
import inspect
import threading

import pytest

from repro import cli, lint, resilience, tuning
from repro.codegen import tiling
from repro.gpu import pricing, simulator
from repro.ir.memo import OwnerMemo
from repro.lint import rules_plan
from repro.obs import Tracer
from repro.obs import export
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.resilience import TuningJournal
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune
from repro.tuning import deeptuning, evaluator, hierarchical
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
}


@pytest.mark.parametrize(
    "parameter",
    [
        "workers",
        "executor",
        "retry",
        "timeout_s",
        "on_error",
        "failure_budget",
        "fault_injector",
        "on_result",
    ],
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_executor_parameters(entry, parameter):
    params = inspect.signature(ENTRY_POINTS[entry]).parameters
    assert parameter not in params
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


@pytest.mark.parametrize(
    "parameter", ["memoize", "escalation", "prescreen", "vectorize"]
)
@pytest.mark.parametrize("entry", ["PlanEvaluator"])
def test_no_engine_mode_parameters(entry, parameter):
    assert parameter not in inspect.signature(ENTRY_POINTS[entry]).parameters


def test_engine_takes_device_validate_and_search_log_only():
    assert list(inspect.signature(PlanEvaluator).parameters) == [
        "device",
        "validate",
        "search_log",
    ]


def test_optimize_takes_no_tuner_factory():
    # Every tuning unit, deep tuning's degrees included, runs the plain
    # hierarchical tuner.
    for entry in (optimize, deep_tune):
        parameters = inspect.signature(entry).parameters
        assert not any(name.endswith("tuner") for name in parameters)


@pytest.mark.parametrize(
    "module",
    [
        "repro.distrib",
        "repro.obs.live",
        "repro.resilience.faults",
        "repro.resilience.retry",
        "repro.suite.bench",
    ],
)
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
        (resilience, "FaultInjector"),
        (resilience, "InjectedFault"),
        (resilience, "FailureBudget"),
        (resilience, "FailureBudgetExceeded"),
        (resilience, "ON_ERROR_POLICIES"),
        (evaluator, "FailureRecord"),
        (evaluator, "MAX_FAILURE_RECORDS"),
        (evaluator, "_pricing_module"),
        (TuningJournal, "record_failure"),
        (TuningJournal, "failure"),
        (hierarchical, "_MISS"),
        (HierarchicalTuner, "_journal_replay"),
        (HierarchicalTuner, "_journal_record"),
        (HierarchicalTuner, "_journal_on_result"),
        (cli, "_fault_injector_from_env"),
        (cli, "_env_float"),
        (cli, "_env_int"),
        (cli, "_warn_failures"),
        (cli, "_vectorize_choice"),
        (SearchLog, "capture"),
        (SearchLog, "use"),
        (EvalStats, "retries"),
        (EvalStats, "timeouts"),
        (EvalStats, "degraded"),
        (EvalStats, "cpu_s"),
        (EvalStats, "failures"),
        (PlanEvaluator, "seed_mode"),
        (evaluator, "evaluation_caches_disabled"),
        (tuning, "evaluation_caches_disabled"),
        (evaluator, "ESCALATION_MODES"),
        (tiling, "set_plan_cache_enabled"),
        pytest.param(OwnerMemo(), "enabled", id="OwnerMemo()-enabled"),
        (PlanEvaluator, "phase"),
        (PlanEvaluator, "phase_dict"),
        pytest.param(
            PlanEvaluator(), "phase_stats", id="PlanEvaluator()-phase_stats"
        ),
        (EvalStats, "add"),
        (simulator, "simulate_call_count"),
        (simulator, "reset_simulate_calls"),
        (pricing, "reset_priced_lanes"),
        (lint, "certification_disabled"),
        (lint, "certifier_enabled"),
        (lint, "set_certification_enabled"),
        (cli, "cmd_bench"),
        (deeptuning, "VECTOR_DP_MIN_OPS"),
        (rules_plan, "RL206"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_removed_attributes_are_gone(owner, attribute):
    assert not hasattr(owner, attribute)


def test_journal_holds_no_lock(tmp_path):
    # The engine starts no thread, so nothing appends concurrently.
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    with TuningJournal(str(tmp_path / "units.jsonl")) as journal:
        assert not any(
            isinstance(value, lock_types) for value in vars(journal).values()
        )


def test_write_trace_has_no_stitch_root():
    assert "stitch_root" not in inspect.signature(export.write_trace).parameters
