"""Transfer tuning: cross-device journals, warm starts, resume refusal.

The contract under test has two halves that must stay consistent:

* **resume refuses** — replaying device A's journaled *timings* into a
  device B search is poisoning, so ``--resume`` across devices fails
  with the usage exit code 2 (:class:`CheckpointDeviceMismatch`);
* **transfer reads deliberately** — the same journal, mined offline
  for its winners' *shapes* (never timings), legitimately warm-starts
  a narrower device-B search that converges to the cold search's
  winner.
"""

import json

import pytest

from repro.cli import main
from repro.dsl import parse
from repro.gpu.device import P100, TOY, V100
from repro.ir import build_ir
from repro.resilience import TuningJournal
from repro.resilience.errors import (
    CheckpointDeviceMismatch,
    CheckpointError,
    ReproError,
    UsageError,
)
from repro.tuning import (
    HierarchicalTuner,
    TransferSeed,
    WarmStartTuner,
    journaled_winners,
    plan_fingerprint,
    transfer_tune,
    tune_kernel,
)
from repro.tuning.transfer import DEFAULT_SEED_LIMIT
from tests.gpu.test_pricing import IR, PROTOS

BASE = PROTOS["serial-shm"]

SPATIAL_SRC = """
parameter N=64;
iterator k, j, i;
double a[N,N,N], b[N,N,N];
copyin a;
stencil s (b, a) { b[k][j][i] = a[k][j][i+1] + a[k][j][i-1]; }
s (b, a);
copyout b;
"""


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "spatial.dsl"
    path.write_text(SPATIAL_SRC)
    return str(path)


@pytest.fixture
def p100_journal(tmp_path):
    """A finished P100 tuning run's journal for the shared star IR."""
    path = str(tmp_path / "p100.jsonl")
    with TuningJournal(path, device=P100.name) as journal:
        tune_kernel(IR, BASE, device=P100, top_k=2, journal=journal)
    return path


class TestResumeRefusal:
    def test_cross_device_open_raises_mismatch(self, p100_journal):
        with pytest.raises(CheckpointDeviceMismatch) as info:
            TuningJournal(p100_journal, device=V100.name)
        err = info.value
        # Catchable under both parents, exits with the usage code.
        assert isinstance(err, CheckpointError)
        assert isinstance(err, UsageError)
        assert isinstance(err, ReproError)
        assert err.exit_code == 2
        assert err.context["recorded"] == "P100"
        assert err.context["requested"] == "V100"
        assert "transfer tuning" in str(err)

    def test_cli_resume_on_other_device_is_exit_2(
        self, spec, tmp_path, capsys
    ):
        journal = str(tmp_path / "ckpt.jsonl")
        assert main(
            ["optimize", spec, "--top-k", "1", "--checkpoint", journal]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "optimize", spec, "--top-k", "1", "--device", "V100",
                "--checkpoint", journal, "--resume",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "'P100'" in err and "'V100'" in err
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_same_device_resume_still_works(self, spec, tmp_path, capsys):
        journal = str(tmp_path / "ckpt.jsonl")
        assert main(
            ["optimize", spec, "--top-k", "1", "--checkpoint", journal]
        ) == 0
        assert main(
            [
                "optimize", spec, "--top-k", "1",
                "--checkpoint", journal, "--resume",
            ]
        ) == 0
        assert "checkpoint: resuming" in capsys.readouterr().err


class TestJournaledWinners:
    def test_mines_ranked_deduplicated_seeds(self, p100_journal):
        seeds = journaled_winners(p100_journal, IR, limit=None)
        assert seeds
        times = [seed.time_s for seed in seeds]
        assert times == sorted(times)
        signatures = [seed.signature for seed in seeds]
        assert len(signatures) == len(set(signatures))
        assert all(seed.source_device == "P100" for seed in seeds)

    def test_limit_keeps_the_fastest(self, p100_journal):
        full = journaled_winners(p100_journal, IR, limit=None)
        top = journaled_winners(p100_journal, IR, limit=3)
        assert [s.signature for s in top] == [
            s.signature for s in full[:3]
        ]

    def test_other_stencil_yields_nothing(self, p100_journal):
        other = build_ir(parse(SPATIAL_SRC))
        assert journaled_winners(p100_journal, other) == ()

    def test_only_unit_seeds_transfer(self, tmp_path):
        # Seeds come from a unit's ``seeds`` list alone: a unit that
        # kept none contributes nothing, whatever its winner.
        from repro.resilience.checkpoint import ir_fingerprint, plan_to_dict

        winner = {"plan": plan_to_dict(BASE), "time_s": 1.0, "tflops": 1.0}
        unit = dict(winner, evaluations=1, stage1_evaluations=1)
        path = str(tmp_path / "sparse.jsonl")
        with TuningJournal(path, device=P100.name) as journal:
            journal.record_candidate(
                f"{ir_fingerprint(IR)}:tune:a", dict(unit, seeds=[])
            )
        assert journaled_winners(path, IR) == ()
        with TuningJournal(path, device=P100.name) as journal:
            journal.record_candidate(
                f"{ir_fingerprint(IR)}:tune:b", dict(unit, seeds=[winner])
            )
        (seed,) = journaled_winners(path, IR)
        assert seed.plan == BASE
        assert seed.source_device == "P100"

    def test_each_unit_keeps_its_fastest_seeds(self, p100_journal):
        journal = TuningJournal(p100_journal)
        try:
            (unit,) = journal.records()
        finally:
            journal.close()
        assert unit["kind"] == "tune"
        seeds = unit["seeds"]
        assert 0 < len(seeds) <= DEFAULT_SEED_LIMIT
        times = [seed["time_s"] for seed in seeds]
        assert times == sorted(times)
        # The unit's winner is its fastest plan, so it is the first seed.
        assert seeds[0]["time_s"] == unit["time_s"]
        signatures = {
            (tuple(seed["plan"]["block"]), tuple(seed["plan"]["unroll"]))
            for seed in seeds
        }
        assert len(signatures) == len(seeds)


class TestWarmStartTuner:
    def test_narrows_stage1_and_matches_cold_winner(self, p100_journal):
        cold = tune_kernel(IR, BASE, device=V100, top_k=2)
        warm_tuner = WarmStartTuner(
            IR,
            seeds=journaled_winners(p100_journal, IR),
            device=V100,
            top_k=2,
        )
        warm = warm_tuner.tune(BASE)
        assert warm_tuner.stage1_kept < warm_tuner.stage1_full
        assert warm.evaluations < cold.evaluations
        assert plan_fingerprint(warm.best_plan) == plan_fingerprint(
            cold.best_plan
        )
        assert warm.best.time_s == cold.best.time_s

    def test_unprojectable_seeds_fall_back_to_full_sweep(self):
        # Signatures no stage-1 candidate can match: the warm start
        # must degrade to the cold sweep, not to an empty search.
        alien = BASE.replace(block=(3, 5), unroll=(7, 7, 7))
        tuner = WarmStartTuner(
            IR,
            seeds=(TransferSeed(plan=alien, time_s=1.0, tflops=1.0),),
            neighborhood=0,
            device=V100,
            top_k=2,
        )
        result = tuner.tune(BASE)
        assert tuner.stage1_kept == tuner.stage1_full
        cold = tune_kernel(IR, BASE, device=V100, top_k=2)
        assert plan_fingerprint(result.best_plan) == plan_fingerprint(
            cold.best_plan
        )

    def test_no_seeds_is_a_cold_search(self):
        tuner = WarmStartTuner(IR, seeds=(), device=V100, top_k=2)
        result = tuner.tune(BASE)
        cold = tune_kernel(IR, BASE, device=V100, top_k=2)
        assert tuner.stage1_kept == tuner.stage1_full
        assert result.evaluations == cold.evaluations
        assert plan_fingerprint(result.best_plan) == plan_fingerprint(
            cold.best_plan
        )

    def test_unit_key_covers_seeds_and_neighborhood(self):
        # A warm start searches a different stage 1 than a cold run or
        # another warm start, so none may replay another's journaled
        # unit.
        seeds = (TransferSeed(plan=BASE, time_s=1.0, tflops=1.0),)
        other = (
            TransferSeed(plan=BASE.replace(block=(8, 8)), time_s=1.0,
                         tflops=1.0),
        )
        tuners = [
            HierarchicalTuner(IR, device=V100, top_k=2),
            WarmStartTuner(IR, seeds=(), device=V100, top_k=2),
            WarmStartTuner(IR, seeds=seeds, device=V100, top_k=2),
            WarmStartTuner(IR, seeds=other, device=V100, top_k=2),
            WarmStartTuner(
                IR, seeds=seeds, neighborhood=1, device=V100, top_k=2
            ),
        ]
        digests = [tuner.config_digest() for tuner in tuners]
        assert len(set(digests)) == len(tuners)
        # Seed order and source timings do not change the search.
        reordered = WarmStartTuner(
            IR, seeds=tuple(reversed(seeds + other)), device=V100, top_k=2
        )
        assert reordered.config_digest() == WarmStartTuner(
            IR, seeds=seeds + other, device=V100, top_k=2
        ).config_digest()

    def test_transfer_tune_wrapper(self, p100_journal):
        cold = tune_kernel(IR, BASE, device=V100, top_k=2)
        warm = transfer_tune(
            IR, BASE, p100_journal, device=V100, top_k=2
        )
        assert warm.evaluations < cold.evaluations
        assert plan_fingerprint(warm.best_plan) == plan_fingerprint(
            cold.best_plan
        )

    def test_cross_vendor_transfer_stays_in_target_space(self, tmp_path):
        # TOY (512-thread blocks, 16 KiB LDS) seeds a V100 search: every
        # surviving candidate must be a legal V100 stage-1 candidate.
        path = str(tmp_path / "toy.jsonl")
        with TuningJournal(path, device=TOY.name) as journal:
            tune_kernel(IR, BASE, device=TOY, top_k=2, journal=journal)
        warm = transfer_tune(IR, BASE, path, device=V100, top_k=2)
        assert warm.best is not None
        assert warm.best.time_s > 0


class TestJournalRecordsAccessor:
    def test_records_snapshot_and_kind_filter(self, p100_journal):
        journal = TuningJournal(p100_journal)
        try:
            everything = journal.records()
            units = journal.records(kind="tune")
            assert units
            assert all(r["kind"] == "tune" for r in units)
            assert journal.records(kind="degree") == []
            assert len(units) <= len(everything)
            # Snapshot, not a live view.
            everything.clear()
            assert journal.records()
        finally:
            journal.close()

    def test_recorded_device_surfaces_header(self, p100_journal):
        journal = TuningJournal(p100_journal)
        try:
            assert journal.device is None
            assert journal.recorded_device == "P100"
        finally:
            journal.close()

    def test_journal_line_has_device_header(self, p100_journal):
        with open(p100_journal, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["kind"] == "header"
        assert header["device"] == "P100"
