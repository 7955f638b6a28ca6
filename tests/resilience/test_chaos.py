"""Chaos suite: whole tuning runs under injected faults.

The headline guarantees, each demonstrated end to end:

* ``on_error=skip`` with a 10% fault rate completes on the calling
  thread and reports every quarantined candidate through the engine
  statistics and the ``repro.obs`` counters;
* a failure budget only exists under ``skip``, and aborts a run whose
  failures exceed it;
* an interrupted hierarchical-tuning run resumed from its checkpoint
  journal produces the same best plan as an uninterrupted run, paying
  only for the candidates the first run never reached.
"""

import threading

import pytest

from repro.resilience import (
    FailureBudgetExceeded,
    FaultInjector,
    InjectedFault,
    TuningJournal,
    UsageError,
)
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune


def _tune(ir, base, **evaluator_kwargs):
    engine = PlanEvaluator(**evaluator_kwargs)
    tuner = HierarchicalTuner(ir, evaluator=engine)
    return tuner.tune(base), engine


@pytest.fixture(scope="module")
def reference(smoother_ir):
    """Fault-free tuning run every chaos scenario is compared against."""
    from repro.codegen import seed_plan_from_pragma

    base = seed_plan_from_pragma(
        smoother_ir, smoother_ir.kernels[0]
    ).replace(placements=(("in", "shmem"),))
    result, engine = _tune(smoother_ir, base)
    return base, result, engine.stats.snapshot()


class TestSkipPolicy:
    def test_ten_percent_fault_rate_completes_and_reports(
        self, smoother_ir, reference
    ):
        from repro.obs import configure_metrics, get_metrics

        base, ref, _ = reference
        injector = FaultInjector(rate=0.1, seed=11)
        configure_metrics(True, reset=True)
        try:
            result, engine = _tune(
                smoother_ir, base, fault_injector=injector, on_error="skip"
            )
            snapshot = get_metrics().snapshot()
        finally:
            configure_metrics(False)
        # The run completed, every faulted candidate was quarantined and
        # accounted for, and the per-candidate failures surfaced through
        # the obs counters.
        assert result.evaluations == ref.evaluations
        assert injector.injected > 0
        assert engine.stats.failures == injector.injected
        assert len(engine.failure_records) == min(engine.stats.failures, 100)
        assert engine.failure_records[0].error == "InjectedFault"
        assert snapshot["resilience.failures"]["value"] == engine.stats.failures
        assert snapshot["faults.injected"]["value"] == injector.injected
        # Quarantined candidates can only remove options: the surviving
        # best is never better than the fault-free best.
        assert result.best.time_s >= ref.best.time_s

    def test_failure_budget_aborts_systemic_breakage(
        self, smoother_ir, reference
    ):
        base, _, _ = reference
        injector = FaultInjector(rate=0.5, seed=1)
        with pytest.raises(FailureBudgetExceeded):
            _tune(
                smoother_ir,
                base,
                fault_injector=injector,
                on_error="skip",
                failure_budget=3,
            )

    def test_failure_budget_requires_skip(self):
        # Under fail-fast the first failure aborts the run before any
        # budget is charged, so a budget there would be silently ignored.
        with pytest.raises(UsageError, match="failure budget"):
            PlanEvaluator(failure_budget=3)

    def test_faulted_skip_tune_starts_no_thread(
        self, smoother_ir, reference, monkeypatch
    ):
        def refuse(thread):
            raise AssertionError(f"engine started thread {thread.name!r}")

        base, ref, _ = reference
        monkeypatch.setattr(threading.Thread, "start", refuse)
        injector = FaultInjector(rate=0.1, seed=11)
        result, engine = _tune(
            smoother_ir, base, fault_injector=injector, on_error="skip"
        )
        assert engine.stats.failures == injector.injected > 0
        assert result.evaluations == ref.evaluations


class TestOneAttemptPerCandidate:
    def test_fail_fast_aborts_on_the_first_fault(self, smoother_ir, reference):
        base, _, _ = reference
        injector = FaultInjector(rate=0.2, seed=3)
        engine = PlanEvaluator(fault_injector=injector)
        with pytest.raises(InjectedFault):
            HierarchicalTuner(smoother_ir, evaluator=engine).tune(base)
        # Nothing re-ran the faulted candidate: one fault, one failure.
        assert injector.injected == 1
        assert engine.stats.failures == 1

    @pytest.mark.parametrize("seed", [3, 11, 2024])
    def test_each_candidate_is_attempted_once(
        self, smoother_ir, reference, seed
    ):
        base, ref, ref_stats = reference
        injector = FaultInjector(rate=0.2, seed=seed)
        result, engine = _tune(
            smoother_ir, base, fault_injector=injector, on_error="skip"
        )
        # The injector sits in front of the model, so it sees every
        # unscreened miss, faulted or not, exactly once: a fault is
        # never followed by a second attempt at the same plan.
        assert injector.injected > 0
        assert engine.stats.failures == injector.injected
        assert engine.stats.requests == ref_stats.requests
        assert injector.invocations == engine.stats.simulations
        assert result.evaluations == ref.evaluations

    def test_infeasible_candidates_are_not_failures(
        self, smoother_ir, reference
    ):
        base, ref, _ = reference
        # A zero budget aborts on the first charged failure; infeasible
        # and screened candidates are results, so the run completes.
        result, engine = _tune(
            smoother_ir, base, on_error="skip", failure_budget=0
        )
        assert engine.stats.infeasible > 0
        assert engine.stats.failures == 0
        assert engine.failure_budget.spent == 0
        assert result.best.plan == ref.best.plan


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_best_plan(
        self, smoother_ir, reference, tmp_path
    ):
        """The acceptance scenario: crash mid-search, resume, same
        answer — with the journal replaying the work already done."""
        base, ref, _ = reference
        path = str(tmp_path / "tuning.jsonl")

        # Run 1: crash after 25 evaluations (one persistent fault under
        # fail-fast aborts the run, like a process kill would).
        injector = FaultInjector(rate=1.0, seed=7, after=25, max_faults=1)
        engine = PlanEvaluator(fault_injector=injector)
        journal = TuningJournal(path, device=engine.device.name)
        tuner = HierarchicalTuner(smoother_ir, evaluator=engine, journal=journal)
        with pytest.raises(InjectedFault):
            tuner.tune(base)
        journal.close()

        # Run 2: a fresh process (fresh engine, fresh memo cache)
        # resumes from the journal.
        resumed_journal = TuningJournal(path, device=engine.device.name)
        assert resumed_journal.replayable > 0
        fresh_engine = PlanEvaluator()
        resumed = HierarchicalTuner(
            smoother_ir, evaluator=fresh_engine, journal=resumed_journal
        ).tune(base)
        resumed_journal.close()

        assert resumed.best.plan == ref.best.plan
        assert resumed.best.time_s == ref.best.time_s
        assert resumed.evaluations == ref.evaluations
        # The resume replayed the journaled prefix instead of paying for
        # it again.
        _, _, ref_stats = reference
        assert fresh_engine.stats.requests < ref_stats.requests

    def test_completed_run_replays_entirely(
        self, smoother_ir, reference, tmp_path
    ):
        base, ref, _ = reference
        path = str(tmp_path / "tuning.jsonl")
        with TuningJournal(path) as journal:
            first = HierarchicalTuner(smoother_ir, journal=journal).tune(base)
        with TuningJournal(path) as journal:
            engine = PlanEvaluator()
            replayed = HierarchicalTuner(
                smoother_ir, evaluator=engine, journal=journal
            ).tune(base)
        assert replayed.best.plan == first.best.plan == ref.best.plan
        assert engine.stats.requests == 0  # pure replay

    def test_mid_batch_crash_preserves_completed_candidates(
        self, smoother_ir, reference, tmp_path
    ):
        base, _, _ = reference
        path = str(tmp_path / "tuning.jsonl")
        injector = FaultInjector(rate=1.0, seed=7, after=10, max_faults=1)
        engine = PlanEvaluator(fault_injector=injector)
        with TuningJournal(path) as journal:
            tuner = HierarchicalTuner(
                smoother_ir, evaluator=engine, journal=journal
            )
            with pytest.raises(InjectedFault):
                tuner.tune(base)
        # The crash hit mid-batch, yet the candidates evaluated before
        # it are on disk.
        reopened = TuningJournal(path)
        assert reopened.replayable >= 9
        reopened.close()


class TestDeepTuningResume:
    def test_interrupted_degree_sweep_resumes_identical(
        self, smoother_ir, tmp_path
    ):
        ref = deep_tune(smoother_ir, top_k=2)
        path = str(tmp_path / "deep.jsonl")

        injector = FaultInjector(rate=1.0, seed=13, after=120, max_faults=1)
        engine = PlanEvaluator(fault_injector=injector)
        with TuningJournal(path) as journal:
            with pytest.raises(InjectedFault):
                deep_tune(
                    smoother_ir, top_k=2, evaluator=engine, journal=journal
                )

        with TuningJournal(path) as journal:
            fresh = PlanEvaluator()
            resumed = deep_tune(
                smoother_ir, top_k=2, evaluator=fresh, journal=journal
            )
        assert [e.time_tile for e in resumed.entries] == [
            e.time_tile for e in ref.entries
        ]
        assert [e.measurement.plan for e in resumed.entries] == [
            e.measurement.plan for e in ref.entries
        ]
        assert resumed.tipping_point == ref.tipping_point
        assert resumed.evaluations == ref.evaluations

    def test_completed_degrees_replay_wholesale(self, smoother_ir, tmp_path):
        path = str(tmp_path / "deep.jsonl")
        with TuningJournal(path) as journal:
            first = deep_tune(smoother_ir, top_k=2, journal=journal)
        with TuningJournal(path) as journal:
            engine = PlanEvaluator()
            replayed = deep_tune(
                smoother_ir, top_k=2, evaluator=engine, journal=journal
            )
        assert replayed.tipping_point == first.tipping_point
        assert engine.stats.requests == 0
