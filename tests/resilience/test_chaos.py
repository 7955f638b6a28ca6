"""Fail-fast and crash/resume, end to end.

The headline guarantees, each demonstrated on whole tuning runs:

* an unexpected exception — raised for one candidate's request, or
  while pricing its plan family — ends the run as an
  :class:`EvaluationError` that names the candidate's plan, after one
  attempt and on the calling thread;
* infeasible candidates are results, not failures: a run full of them
  completes;
* an interrupted run resumed from its checkpoint journal produces the
  same outcome as an uninterrupted run, paying only for the tuning units
  (``tune`` calls and deep-tuning degrees) the first run did not finish;
  a crash loses at most the unit in flight.

Failures are planted by monkeypatching inside each test (the
``crashing_engine`` fixture, or a broken pricing seam:
``PlanEvaluator._price_lanes`` or a ``FamilyStructure`` method);
nothing in the engine exists to inject them.
"""

import json
import random
import threading

import pytest

from repro.dsl import parse
from repro.gpu.device import P100
from repro.gpu.pricing import FamilyStructure
from repro.ir import build_ir
from repro.pipeline import optimize
from repro.resilience import (
    EvaluationError,
    TuningJournal,
    plan_to_dict,
    read_journal,
)
from repro.suite import BENCHMARK_ORDER, load_ir
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune

#: A two-kernel spatial program: its ``optimize`` run has several tuning
#: units (one per kernel, then the fused DAG and its alternatives).
TWO_KERNEL_SRC = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
copyin A;
stencil produce (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
stencil consume (Y, X) { Y[k][j][i] = X[k+1][j][i] + X[k][j][i]; }
produce (T, A);
consume (B, T);
copyout B;
"""


class UnitLedger(TuningJournal):
    """A journal that notes the engine's request count at each unit it
    writes, so a test knows which units a crash at request N finished."""

    def __init__(self, path, engine):
        self.engine = engine
        self.written_at = []
        super().__init__(str(path), device=engine.device.name)

    def record_candidate(self, key, payload):
        super().record_candidate(key, payload)
        self.written_at.append(self.engine.stats.requests)

    def record_degree(self, key, payload):
        super().record_degree(key, payload)
        self.written_at.append(self.engine.stats.requests)


def outcome_digest(outcome) -> str:
    """The winner, byte for byte: variant, exact TFLOPS, plans, counts."""
    return json.dumps(
        {
            "variant": outcome.variant,
            "tflops": repr(outcome.tflops),
            "plans": [plan_to_dict(plan) for plan in outcome.schedule.plans],
            "launch_counts": list(outcome.schedule.launch_counts),
        },
        sort_keys=True,
    )


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

        def broken_pricing(self, ir, family, levels):
            attempted.append(family.proto)
            raise RuntimeError("model bug")

        monkeypatch.setattr(PlanEvaluator, "_price_lanes", broken_pricing)
        engine = PlanEvaluator()
        with pytest.raises(EvaluationError) as info:
            HierarchicalTuner(smoother_ir, evaluator=engine).tune(base)
        # The first failure ends the run: nothing re-priced the failed
        # family, and nothing went on to the next one.
        assert len(attempted) == 1
        error = info.value
        assert error.exit_code == 4
        # The error names the family's first candidate as it was
        # submitted, before the engine escalated its register cap.
        assert attempted[0].max_registers == base.max_registers
        assert error.context["plan"] == attempted[0].describe()
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
        # Nothing re-prices the family lane by lane: the error
        # ends the batch like any other.
        base, _, _ = reference
        family = [
            base.replace(block=(32, 16), unroll=(1, 1, unroll))
            for unroll in (1, 2, 4, 8)
        ]
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
    def test_crash_inside_a_unit_reruns_it_whole(
        self, smoother_ir, reference, tmp_path, crashing_engine
    ):
        """A single ``tune`` call is one unit: a crash inside it leaves
        nothing but the header, and the resume re-runs the whole call to
        the same answer."""
        base, ref, ref_stats = reference
        path = str(tmp_path / "tuning.jsonl")

        engine = crashing_engine(26)
        with TuningJournal(path, device=engine.device.name) as journal:
            with pytest.raises(EvaluationError):
                HierarchicalTuner(
                    smoother_ir, evaluator=engine, journal=journal
                ).tune(base)
        assert read_journal(path)[1] == []

        with TuningJournal(path, device=engine.device.name) as journal:
            fresh_engine = PlanEvaluator()
            resumed = HierarchicalTuner(
                smoother_ir, evaluator=fresh_engine, journal=journal
            ).tune(base)
        assert resumed.best.plan == ref.best.plan
        assert resumed.best.time_s == ref.best.time_s
        assert resumed.evaluations == ref.evaluations
        assert fresh_engine.stats.requests == ref_stats.requests

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
        assert replayed.best == first.best
        assert replayed.best.plan == ref.best.plan
        assert replayed.evaluations == first.evaluations
        assert replayed.stage1_evaluations == first.stage1_evaluations
        assert engine.stats.requests == 0  # pure replay

    def test_interrupted_optimize_resumes_to_identical_outcome(
        self, tmp_path, crashing_engine
    ):
        """The acceptance scenario on a multi-unit run: crash in a later
        tuning unit, resume, same answer — paying only for the units
        the first run did not finish."""
        ir = build_ir(parse(TWO_KERNEL_SRC))
        ledger_engine = PlanEvaluator()
        with UnitLedger(tmp_path / "ref.jsonl", ledger_engine) as ledger:
            ref = optimize(ir, evaluator=ledger_engine, journal=ledger)
        total = ledger_engine.stats.requests
        assert len(ledger.written_at) >= 3
        crash_at = ledger.written_at[1] + 1  # first request of unit 3

        path = str(tmp_path / "run.jsonl")
        engine = crashing_engine(crash_at)
        with TuningJournal(path, device=engine.device.name) as journal:
            with pytest.raises(EvaluationError):
                optimize(ir, evaluator=engine, journal=journal)
        assert len(read_journal(path)[1]) == 2

        with TuningJournal(path, device=engine.device.name) as journal:
            fresh = PlanEvaluator()
            resumed = optimize(ir, evaluator=fresh, journal=journal)
        assert outcome_digest(resumed) == outcome_digest(ref)
        assert resumed.evaluations == ref.evaluations
        # The two finished units replayed instead of running again.
        assert fresh.stats.requests == total - ledger.written_at[1]
        assert fresh.stats.requests < total

    def test_mid_unit_crash_preserves_completed_units(
        self, smoother_ir, tmp_path, crashing_engine
    ):
        ledger_engine = PlanEvaluator()
        with UnitLedger(tmp_path / "ref.jsonl", ledger_engine) as ledger:
            deep_tune(smoother_ir, top_k=2, evaluator=ledger_engine,
                      journal=ledger)
        _, units = read_journal(tmp_path / "ref.jsonl")
        assert len(units) >= 2
        # Crash halfway through the second fusion degree.
        first, second = ledger.written_at[:2]
        path = str(tmp_path / "deep.jsonl")
        engine = crashing_engine((first + second) // 2)
        with TuningJournal(path) as journal:
            with pytest.raises(EvaluationError) as info:
                deep_tune(
                    smoother_ir, top_k=2, evaluator=engine, journal=journal
                )
        assert info.value.context["candidate"] >= 0
        # Degree 1 is on disk as it was journaled uninterrupted, and
        # nothing of the degree in flight is.
        assert read_journal(path)[1] == units[:1]
        assert open(path, "rb").read().endswith(b"\n")


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


#: Seed of the crash points of the kill-and-resume gate.
KILL_SEED = 17


@pytest.mark.parametrize("kernel", BENCHMARK_ORDER)
def test_seeded_kill_and_resume(kernel, tmp_path, crashing_engine):
    """Kill a Table I run at a seeded request on the P100, then resume.

    Writing the journal changes nothing about the run, the resumed
    outcome is byte-identical to the uninterrupted run's, the resume
    pays exactly for the units the killed run did not finish, the killed
    run's journal holds only whole units, and a complete journal replays
    without a single evaluator request.
    """
    ir = load_ir(kernel)
    engine = PlanEvaluator(device=P100)
    plain = optimize(ir, device=P100, evaluator=engine)
    total = engine.stats.requests

    engine = PlanEvaluator(device=P100)
    with UnitLedger(tmp_path / "ref.jsonl", engine) as ledger:
        reference = optimize(ir, device=P100, evaluator=engine, journal=ledger)
    assert outcome_digest(reference) == outcome_digest(plain)
    assert reference.evaluations == plain.evaluations
    assert engine.stats.requests == total
    _, units = read_journal(tmp_path / "ref.jsonl")

    crash_at = random.Random(f"{KILL_SEED}:{kernel}").randint(1, total)
    path = tmp_path / "killed.jsonl"
    killed = crashing_engine(crash_at, device=P100)
    with TuningJournal(str(path), device=P100.name) as journal:
        with pytest.raises(EvaluationError):
            optimize(ir, device=P100, evaluator=killed, journal=journal)
    finished = [at for at in ledger.written_at if at < crash_at]
    assert read_journal(path)[1] == units[: len(finished)]
    assert path.read_bytes().endswith(b"\n")

    engine = PlanEvaluator(device=P100)
    with TuningJournal(str(path), device=P100.name) as journal:
        resumed = optimize(ir, device=P100, evaluator=engine, journal=journal)
    assert outcome_digest(resumed) == outcome_digest(reference)
    assert resumed.evaluations == reference.evaluations
    assert engine.stats.requests == total - (finished[-1] if finished else 0)
    assert engine.stats.lint_rejections == engine.stats.screened

    engine = PlanEvaluator(device=P100)
    with TuningJournal(str(path), device=P100.name) as journal:
        replayed = optimize(ir, device=P100, evaluator=engine, journal=journal)
    assert outcome_digest(replayed) == outcome_digest(reference)
    assert replayed.evaluations == reference.evaluations
    assert engine.stats.requests == 0
