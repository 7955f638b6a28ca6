"""Fail-fast and crash/resume, end to end.

The headline guarantees, each demonstrated on whole tuning runs:

* an unexpected exception — raised by the model for one candidate, or
  while pricing a whole plan family — ends the run as an
  :class:`EvaluationError` that names the candidate's plan, after one
  attempt and on the calling thread;
* infeasible candidates are results, not failures: a run full of them
  completes;
* an interrupted hierarchical-tuning run resumed from its checkpoint
  journal produces the same best plan as an uninterrupted run, paying
  only for the candidates the first run never reached.

Failures are planted by monkeypatching inside each test (the
``crashing_engine`` fixture, or a broken ``simulate`` /
``FamilyStructure`` method); nothing in the engine exists to inject them.
"""

import threading

import pytest

from repro.gpu.pricing import FamilyStructure
from repro.resilience import EvaluationError, TuningJournal
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune
from repro.tuning import evaluator as evaluator_module
from repro.tuning.evaluator import MIN_FAMILY


def _tune(ir, base, **evaluator_kwargs):
    engine = PlanEvaluator(**evaluator_kwargs)
    tuner = HierarchicalTuner(ir, evaluator=engine)
    return tuner.tune(base), engine


@pytest.fixture(scope="module")
def reference(smoother_ir):
    """Clean tuning run every scenario is compared against."""
    from repro.codegen import seed_plan_from_pragma

    base = seed_plan_from_pragma(
        smoother_ir, smoother_ir.kernels[0]
    ).replace(placements=(("in", "shmem"),))
    result, engine = _tune(smoother_ir, base)
    return base, result, engine.stats.snapshot()


def _broken(*args, **kwargs):
    raise RuntimeError("model bug")


class TestFailFast:
    def test_model_error_names_the_plan_after_one_attempt(
        self, smoother_ir, reference, monkeypatch
    ):
        base, _, _ = reference
        attempted = []

        def broken_simulate(ir, plan, device):
            attempted.append(plan)
            raise RuntimeError("model bug")

        monkeypatch.setattr(evaluator_module, "simulate", broken_simulate)
        engine = PlanEvaluator(vectorize=False)
        with pytest.raises(EvaluationError) as info:
            HierarchicalTuner(smoother_ir, evaluator=engine).tune(base)
        # The first failure ends the run: nothing re-ran the failed
        # candidate, and nothing went on to the next one.
        assert len(attempted) == 1
        error = info.value
        assert error.exit_code == 4
        # The error names the candidate as it was submitted, before
        # the engine escalated its register cap.
        submitted = attempted[0].replace(max_registers=base.max_registers)
        assert error.context["plan"] == submitted.describe()
        assert "candidate" in error.context
        assert isinstance(error.__cause__, RuntimeError)
        assert "model bug" in error.describe()

    @pytest.mark.parametrize(
        "method, batch",
        [
            ("price", "evaluate_batch"),
            ("price_spill_free", "evaluate_spill_free_batch"),
        ],
    )
    def test_family_pricing_error_names_the_plan(
        self, smoother_ir, reference, monkeypatch, method, batch
    ):
        # Nothing re-prices the family on the scalar path: the error
        # ends the batch like any other.
        base, _, _ = reference
        family = [
            base.replace(block=(32, 16), unroll=(1, 1, unroll))
            for unroll in (1, 2, 4, 8)
        ]
        assert len(family) >= MIN_FAMILY
        monkeypatch.setattr(FamilyStructure, method, _broken)
        engine = PlanEvaluator()
        with pytest.raises(EvaluationError) as info:
            getattr(engine, batch)(smoother_ir, family)
        assert info.value.exit_code == 4
        assert info.value.context["plan"] == family[0].describe()
        assert info.value.context["candidate"] == 0
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_failing_tune_starts_no_thread(
        self, smoother_ir, reference, crashing_engine, monkeypatch
    ):
        def refuse(thread):
            raise AssertionError(f"engine started thread {thread.name!r}")

        base, _, _ = reference
        monkeypatch.setattr(threading.Thread, "start", refuse)
        engine = crashing_engine(25)
        with pytest.raises(EvaluationError):
            HierarchicalTuner(smoother_ir, evaluator=engine).tune(base)

    def test_infeasible_candidates_are_not_failures(
        self, smoother_ir, reference
    ):
        base, ref, _ = reference
        # Infeasible and screened candidates are results, so a run
        # full of them completes under fail-fast.
        result, engine = _tune(smoother_ir, base)
        assert engine.stats.infeasible > 0
        assert result.best.plan == ref.best.plan


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_best_plan(
        self, smoother_ir, reference, tmp_path, crashing_engine
    ):
        """The acceptance scenario: crash mid-search, resume, same
        answer — with the journal replaying the work already done."""
        base, ref, _ = reference
        path = str(tmp_path / "tuning.jsonl")

        # Run 1: crash at the 26th request (fail-fast aborts the run,
        # like a process kill would).
        engine = crashing_engine(26)
        journal = TuningJournal(path, device=engine.device.name)
        tuner = HierarchicalTuner(smoother_ir, evaluator=engine, journal=journal)
        with pytest.raises(EvaluationError):
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
        self, smoother_ir, reference, tmp_path, crashing_engine
    ):
        base, _, _ = reference
        path = str(tmp_path / "tuning.jsonl")
        engine = crashing_engine(11)
        with TuningJournal(path) as journal:
            tuner = HierarchicalTuner(
                smoother_ir, evaluator=engine, journal=journal
            )
            with pytest.raises(EvaluationError) as info:
                tuner.tune(base)
        # The crash hit mid-batch, yet the candidates evaluated before
        # it are on disk.
        assert info.value.context["candidate"] >= 10
        reopened = TuningJournal(path)
        assert reopened.replayable >= 9
        reopened.close()


class TestDeepTuningResume:
    def test_interrupted_degree_sweep_resumes_identical(
        self, smoother_ir, tmp_path, crashing_engine
    ):
        ref = deep_tune(smoother_ir, top_k=2)
        path = str(tmp_path / "deep.jsonl")

        engine = crashing_engine(400)
        with TuningJournal(path) as journal:
            with pytest.raises(EvaluationError):
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
