"""The crash-safe JSONL tuning journal: round-trips, torn writes and
record validation."""

import json
import multiprocessing
import os

import pytest

from repro.codegen.plan import KernelPlan
from repro.resilience import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointLockedError,
    JOURNAL_VERSION,
    TuningJournal,
    ir_fingerprint,
    plan_from_dict,
    plan_to_dict,
)


def _plan(index: int = 0) -> dict:
    """A recorded plan that ``plan_from_dict`` accepts, distinct per index."""
    return plan_to_dict(KernelPlan(kernel_names=("k",), block=(32, 1 + index)))


def _open_expecting_lock(path):
    """Child-process body: exit 0 iff the journal is locked."""
    try:
        TuningJournal(path, device="P100").close()
    except CheckpointLockedError:
        os._exit(0)
    os._exit(1)


def _open_and_record(path, prefix, count):
    """Child-process body: journal ``count`` candidates."""
    with TuningJournal(path, device="P100") as journal:
        for index in range(count):
            journal.record_candidate(
                f"{prefix}{index}", _plan(index), time_s=1.0, tflops=1.0
            )


class TestPlanSerialization:
    def test_round_trip(self, base_plan):
        assert plan_from_dict(plan_to_dict(base_plan)) == base_plan

    def test_round_trip_preserves_variants(self, base_plan):
        variant = base_plan.replace(
            prefetch=True,
            unroll=(1, 2, 2),
            max_registers=128,
            perspective="mixed",
        )
        assert plan_from_dict(plan_to_dict(variant)) == variant

    def test_round_trip_with_fold_groups(self, smoother_ir, base_plan):
        from repro.ir.folding import FoldGroup
        from repro.tuning import HierarchicalTuner  # noqa: F401 (import check)

        folded = base_plan.replace(
            fold_groups=(FoldGroup(members=("a", "b"), op="+"),)
        )
        assert plan_from_dict(plan_to_dict(folded)) == folded

    def test_dict_is_json_serializable(self, base_plan):
        json.dumps(plan_to_dict(base_plan))

    def test_ir_fingerprint_stable_and_distinct(self, smoother_ir):
        assert ir_fingerprint(smoother_ir) == ir_fingerprint(smoother_ir)
        assert len(ir_fingerprint(smoother_ir)) == 16


class TestJournalRoundTrip:
    def test_records_replay_after_reopen(self, tmp_path, base_plan):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate(
                "k1", plan_to_dict(base_plan), time_s=0.5, tflops=1.5
            )
            journal.record_candidate("k2", None)  # infeasible
            assert len(journal) == 2
        reopened = TuningJournal(path, device="P100")
        assert reopened.replayable == 2
        hit = reopened.lookup("k1")
        assert plan_from_dict(hit["plan"]) == base_plan
        assert hit["time_s"] == 0.5
        assert reopened.lookup("k2")["plan"] is None
        assert reopened.lookup("k3") is None
        reopened.close()

    def test_later_records_win(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path) as journal:
            journal.record_candidate("k1", None)
            journal.record_candidate("k1", _plan(1), time_s=1.0, tflops=1.0)
        reopened = TuningJournal(path)
        assert reopened.lookup("k1")["plan"] == _plan(1)
        reopened.close()

    def test_records_view_filters_by_kind(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path) as journal:
            journal.record_candidate("k1", _plan(1), time_s=1.0, tflops=1.0)
            journal.record_degree("ir:degree:1", _degree_payload(1))
        reopened = TuningJournal(path)
        assert [r["key"] for r in reopened.records("candidate")] == ["k1"]
        assert [r["key"] for r in reopened.records("degree")] == [
            "ir:degree:1"
        ]
        assert len(reopened.records()) == 2
        reopened.close()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path) as journal:
            journal.record_candidate("k1", _plan(1), time_s=1.0, tflops=1.0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n   \n")
        reopened = TuningJournal(path)
        assert reopened.lookup("k1")["plan"] == _plan(1)
        reopened.close()

    def test_degree_records(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path) as journal:
            journal.record_degree("ir:degree:2", _degree_payload(2))
        reopened = TuningJournal(path)
        assert reopened.lookup("ir:degree:2")["degree"] == 2
        reopened.close()


def _degree_payload(degree: int) -> dict:
    """A deep-tuning degree record as ``deep_tune`` journals it."""
    return {
        "degree": degree,
        "plan": _plan(degree),
        "time_s": 0.1,
        "tflops": 1.0,
        "bandwidth_bound": True,
        "bound_level": "dram",
        "evaluations": 3,
    }


GOOD_CANDIDATE = {
    "kind": "candidate", "key": "k9", "plan": _plan(9),
    "time_s": 1.0, "tflops": 2.0,
}
GOOD_DEGREE = dict(_degree_payload(3), kind="degree", key="ir:degree:3")


def _without(record: dict, field: str) -> dict:
    return {key: value for key, value in record.items() if key != field}


class TestRecordValidation:
    """Every loaded record must be replayable, or the journal refuses.

    A malformed record is refused at load time with the line that holds
    it, instead of crashing a resumed run halfway through its replay.
    """

    @pytest.mark.parametrize(
        "record, problem",
        [
            pytest.param(
                {"kind": "bogus", "key": "k9"},
                "unknown record kind 'bogus'",
                id="unknown-kind",
            ),
            pytest.param(
                dict(GOOD_CANDIDATE, kind=7),
                "unknown record kind 7",
                id="non-string-kind",
            ),
            pytest.param(
                _without(GOOD_CANDIDATE, "key"), "has no record key",
                id="no-key",
            ),
            pytest.param(
                dict(GOOD_CANDIDATE, key=3), "has no record key",
                id="non-string-key",
            ),
            pytest.param(
                dict(GOOD_CANDIDATE, plan={"v": 1}),
                "malformed candidate plan",
                id="plan-missing-fields",
            ),
            pytest.param(
                dict(GOOD_CANDIDATE, plan="oops"),
                "malformed candidate plan",
                id="plan-not-a-dict",
            ),
            pytest.param(
                dict(GOOD_CANDIDATE, plan=dict(_plan(), block=[0, 1])),
                "malformed candidate plan",
                id="plan-rejected-by-kernelplan",
            ),
            pytest.param(
                _without(GOOD_CANDIDATE, "time_s"), "no numeric 'time_s'",
                id="candidate-no-time",
            ),
            pytest.param(
                dict(GOOD_CANDIDATE, time_s=None), "no numeric 'time_s'",
                id="candidate-null-time",
            ),
            pytest.param(
                dict(GOOD_CANDIDATE, time_s=True), "no numeric 'time_s'",
                id="candidate-bool-time",
            ),
            pytest.param(
                dict(GOOD_CANDIDATE, tflops="fast"), "no numeric 'tflops'",
                id="candidate-string-tflops",
            ),
            pytest.param(
                _without(GOOD_DEGREE, "plan"), "malformed degree plan",
                id="degree-no-plan",
            ),
            pytest.param(
                _without(GOOD_DEGREE, "tflops"), "no numeric 'tflops'",
                id="degree-no-tflops",
            ),
            pytest.param(
                _without(GOOD_DEGREE, "bandwidth_bound"),
                "no bool 'bandwidth_bound'",
                id="degree-no-bandwidth-bound",
            ),
            pytest.param(
                dict(GOOD_DEGREE, bound_level=None), "no str 'bound_level'",
                id="degree-null-bound-level",
            ),
        ],
    )
    def test_malformed_record_refuses_to_load(self, tmp_path, record, problem):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k1", _plan(1), time_s=1.0, tflops=1.0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(CheckpointCorruptError) as info:
            TuningJournal(path, device="P100")
        assert info.value.exit_code == 4
        assert info.value.context["line"] == 3
        assert "is corrupt: line 3 has " in str(info.value)
        assert problem in str(info.value)

    def test_retired_failure_kind_is_refused(self, tmp_path):
        # Journals once recorded quarantined candidates as ``failure``
        # lines; fail-fast never writes one, so a journal holding one is
        # refused with a message saying why.
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k1", _plan(1), time_s=1.0, tflops=1.0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "kind": "failure",
                        "key": "k1",
                        "error": "RuntimeError",
                        "message": "flaky",
                    }
                )
                + "\n"
            )
        with pytest.raises(CheckpointCorruptError) as info:
            TuningJournal(path, device="P100")
        assert info.value.context["line"] == 3
        assert "'failure' record" in str(info.value)
        assert "no longer written" in str(info.value)

    @pytest.mark.parametrize(
        "record",
        [
            GOOD_CANDIDATE,
            dict(GOOD_CANDIDATE, time_s=1, tflops=0),
            {"kind": "candidate", "key": "k9", "plan": None},
            GOOD_DEGREE,
            _without(GOOD_DEGREE, "evaluations"),
        ],
        ids=["candidate", "int-timing", "infeasible", "degree", "degree-bare"],
    )
    def test_well_formed_records_load(self, tmp_path, record):
        path = str(tmp_path / "journal.jsonl")
        TuningJournal(path, device="P100").close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with TuningJournal(path, device="P100") as journal:
            assert journal.lookup(record["key"]) == record
            assert journal.replayable == 1


class TestCrashRecovery:
    def _journal_with_records(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k1", _plan(1), time_s=1.0, tflops=2.0)
            journal.record_candidate("k2", _plan(2), time_s=3.0, tflops=4.0)
        return path

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "candidate", "key": "k3", "pl')  # torn
        journal = TuningJournal(path, device="P100")
        assert journal.lookup("k1") is not None
        assert journal.lookup("k3") is None  # the torn record is gone
        assert journal.replayable == 2
        journal.close()
        # The file was repaired: it ends on a line boundary again and a
        # fresh append round-trips.
        with open(path, "rb") as handle:
            assert handle.read().endswith(b"\n")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k3", _plan(3), time_s=5.0, tflops=6.0)
        final = TuningJournal(path, device="P100")
        assert final.lookup("k3")["plan"] == _plan(3)
        final.close()

    @pytest.mark.parametrize("keep", [1, 17, -1])
    def test_torn_tail_of_any_length_is_dropped(self, tmp_path, keep):
        # keep=-1 leaves a complete JSON object without its newline:
        # an append is committed only by its terminating newline.
        path = self._journal_with_records(tmp_path)
        torn = json.dumps({"kind": "candidate", "key": "k3", "plan": None})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(torn[:keep] if keep > 0 else torn)
        journal = TuningJournal(path, device="P100")
        assert journal.lookup("k3") is None
        assert journal.replayable == 2
        journal.close()
        with open(path, "rb") as handle:
            assert handle.read().endswith(b"\n")

    def test_torn_header_is_rewritten(self, tmp_path):
        # A crash inside the very first append leaves no complete line;
        # the reopened journal must start over with a header, so the
        # device check keeps working for later resumes.
        path = str(tmp_path / "journal.jsonl")
        TuningJournal(path, device="P100").close()
        raw = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(raw[: len(raw) // 2])
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k1", None)
        first = json.loads(open(path, encoding="utf-8").readline())
        assert first["kind"] == "header"
        assert first["device"] == "P100"
        with pytest.raises(CheckpointError):
            TuningJournal(path, device="V100")

    def test_refused_writer_leaves_the_live_tail_alone(self, tmp_path):
        # While one run holds the journal, its last line may be an
        # append in flight; a second opener is refused *before* it
        # would repair (truncate) that tail.
        path = self._journal_with_records(tmp_path)
        live = TuningJournal(path, device="P100")
        try:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"kind": "candidate", "key": "k3"')
            before = open(path, "rb").read()
            with pytest.raises(CheckpointLockedError):
                TuningJournal(path, device="P100")
            assert open(path, "rb").read() == before
        finally:
            live.close()

    def test_failed_load_releases_the_lock(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(CheckpointCorruptError):
            TuningJournal(path)
        os.remove(path)
        TuningJournal(path).close()  # the refused open held no lock

    def test_corrupt_middle_line_refuses_to_load(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # damage a middle record
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError) as info:
            TuningJournal(path, device="P100")
        assert info.value.context["line"] == 2

    def test_non_record_json_refuses_to_load(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"no": "kind"}\n')
        with pytest.raises(CheckpointCorruptError):
            TuningJournal(path)

    def test_missing_record_key_refuses_to_load(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"kind": "header", "version": JOURNAL_VERSION})
                + "\n"
            )
            handle.write(json.dumps({"kind": "candidate"}) + "\n")
        with pytest.raises(CheckpointCorruptError):
            TuningJournal(path)


class TestWriterLock:
    def test_second_writer_is_refused(self, tmp_path):
        # flock conflicts across file descriptors even within one
        # process, so this covers the cross-process case too.
        path = str(tmp_path / "journal.jsonl")
        first = TuningJournal(path, device="P100")
        try:
            with pytest.raises(CheckpointLockedError) as info:
                TuningJournal(path, device="P100")
            assert info.value.exit_code == 2  # a usage error at the CLI
            assert "--checkpoint" in str(info.value)
        finally:
            first.close()

    def test_lock_released_on_close(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k1", _plan(1), time_s=1.0, tflops=1.0)
        reopened = TuningJournal(path, device="P100")
        assert reopened.lookup("k1")["plan"] == _plan(1)
        reopened.close()

    def test_second_process_is_refused(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        ctx = multiprocessing.get_context("fork")
        with TuningJournal(path, device="P100"):
            child = ctx.Process(target=_open_expecting_lock, args=(path,))
            child.start()
            child.join(timeout=30.0)
            assert child.exitcode == 0
        # Once the holder closes, another process may open it.
        child = ctx.Process(target=_open_and_record, args=(path, "k", 2))
        child.start()
        child.join(timeout=30.0)
        assert child.exitcode == 0
        with TuningJournal(path, device="P100") as journal:
            assert journal.lookup("k1")["plan"] == _plan(1)

    def test_sibling_journals_of_two_processes_reload_intact(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        paths = [str(tmp_path / f"run-{n}.jsonl") for n in (0, 1)]
        children = [
            ctx.Process(target=_open_and_record, args=(path, "k", 25))
            for path in paths
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=30.0)
            assert child.exitcode == 0
        for path in paths:
            journal = TuningJournal(path, device="P100")
            assert journal.replayable == 25
            assert journal.lookup("k24")["plan"] == _plan(24)
            journal.close()

    def test_sibling_paths_do_not_conflict(self, tmp_path):
        # Two runs journaling side by side in one directory: locks
        # are per-file, not per-directory.
        first = TuningJournal(str(tmp_path / "worker-00.jsonl"))
        second = TuningJournal(str(tmp_path / "worker-01.jsonl"))
        first.close()
        second.close()


class TestCompatibilityChecks:
    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", "version": 999}) + "\n")
        with pytest.raises(CheckpointCorruptError):
            TuningJournal(path)

    def test_device_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        TuningJournal(path, device="P100").close()
        with pytest.raises(CheckpointError):
            TuningJournal(path, device="V100")

    def test_device_check_skipped_when_unspecified(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        TuningJournal(path, device="P100").close()
        TuningJournal(path).close()  # no device claim: accepted
