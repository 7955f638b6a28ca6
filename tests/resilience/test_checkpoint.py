"""The crash-safe JSONL tuning journal: round-trips, torn writes and
record validation of its per-unit ``tune`` and ``degree`` records."""

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
    read_journal,
)


def _plan(index: int = 0) -> dict:
    """A recorded plan that ``plan_from_dict`` accepts, distinct per index."""
    return plan_to_dict(KernelPlan(kernel_names=("k",), block=(32, 1 + index)))


def _unit(index: int = 0, time_s: float = 1.0, tflops: float = 1.0) -> dict:
    """A ``tune`` record payload as ``HierarchicalTuner.tune`` journals it."""
    winner = {"plan": _plan(index), "time_s": time_s, "tflops": tflops}
    return dict(winner, evaluations=10, stage1_evaluations=6)


def _open_expecting_lock(path):
    """Child-process body: exit 0 iff the journal is locked."""
    try:
        TuningJournal(path, device="P100").close()
    except CheckpointLockedError:
        os._exit(0)
    os._exit(1)


def _open_and_record(path, prefix, count):
    """Child-process body: journal ``count`` tuning units."""
    with TuningJournal(path, device="P100") as journal:
        for index in range(count):
            journal.record_candidate(f"{prefix}{index}", _unit(index))


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

    def test_ir_fingerprint_hashes_the_repr_once(self, monkeypatch):
        from hashlib import sha256

        from repro.ir.stencil import ProgramIR
        from repro.suite import load_ir

        ir = load_ir("7pt-smoother")  # a fresh IR: nothing pinned yet
        want = sha256(repr(ir).encode()).hexdigest()[:16]
        calls = []
        plain = ProgramIR.__repr__

        def counted(ir):
            calls.append(ir)
            return plain(ir)

        monkeypatch.setattr(ProgramIR, "__repr__", counted)
        assert ir_fingerprint(ir) == want
        assert ir_fingerprint(ir) == want
        assert len(calls) == 1

    def test_ir_fingerprint_keys_journals_of_earlier_runs(self, tmp_path):
        # The digest of the 7pt smoother's repr, as journals recorded
        # before the digest was memoized key their units: such a journal
        # must still resume.
        from repro.gpu import P100
        from repro.pipeline import optimize
        from repro.suite import load_ir

        recorded = "5191f272c681cb27"
        path = str(tmp_path / "run.jsonl")
        with TuningJournal(path, device="P100") as journal:
            optimize(load_ir("7pt-smoother"), device=P100, journal=journal)
        _, records = read_journal(path)
        assert records
        assert {r["key"].split(":")[0] for r in records} == {recorded}


class TestJournalRoundTrip:
    def test_records_replay_after_reopen(self, tmp_path, base_plan):
        path = str(tmp_path / "journal.jsonl")
        winner = {"plan": plan_to_dict(base_plan), "time_s": 0.5, "tflops": 1.5}
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate(
                "k1", dict(winner, evaluations=7, stage1_evaluations=4)
            )
            journal.record_candidate("k2", _unit(2))
            assert len(journal) == 2
        reopened = TuningJournal(path, device="P100")
        assert reopened.replayable == 2
        hit = reopened.lookup("k1")
        assert hit["kind"] == "tune"
        assert plan_from_dict(hit["plan"]) == base_plan
        assert hit["time_s"] == 0.5
        assert hit["evaluations"] == 7
        assert reopened.lookup("k2")["plan"] == _plan(2)
        assert reopened.lookup("k3") is None
        reopened.close()

    def test_later_records_win(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path) as journal:
            journal.record_candidate("k1", _unit(0))
            journal.record_candidate("k1", _unit(1))
        reopened = TuningJournal(path)
        assert reopened.lookup("k1")["plan"] == _plan(1)
        reopened.close()

    def test_records_view_filters_by_kind(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path) as journal:
            journal.record_candidate("k1", _unit(1))
            journal.record_degree("ir:degree:1", _degree_payload(1))
        reopened = TuningJournal(path)
        assert [r["key"] for r in reopened.records("tune")] == ["k1"]
        assert [r["key"] for r in reopened.records("degree")] == [
            "ir:degree:1"
        ]
        assert len(reopened.records()) == 2
        reopened.close()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path) as journal:
            journal.record_candidate("k1", _unit(1))
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


GOOD_TUNE = dict(_unit(9, tflops=2.0), kind="tune", key="k9")
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
                dict(GOOD_TUNE, kind=7),
                "unknown record kind 7",
                id="non-string-kind",
            ),
            pytest.param(
                {"kind": "candidate", "key": "k9", "plan": None},
                "unknown record kind 'candidate'",
                id="retired-candidate-kind",
            ),
            pytest.param(
                {"kind": "failure", "key": "k1", "error": "RuntimeError"},
                "unknown record kind 'failure'",
                id="retired-failure-kind",
            ),
            pytest.param(
                _without(GOOD_TUNE, "key"), "has no record key",
                id="no-key",
            ),
            pytest.param(
                dict(GOOD_TUNE, key=3), "has no record key",
                id="non-string-key",
            ),
            pytest.param(
                dict(GOOD_TUNE, plan={"v": 1}),
                "malformed tune plan",
                id="plan-missing-fields",
            ),
            pytest.param(
                dict(GOOD_TUNE, plan="oops"),
                "malformed tune plan",
                id="plan-not-a-dict",
            ),
            pytest.param(
                dict(GOOD_TUNE, plan=dict(_plan(), block=[0, 1])),
                "malformed tune plan",
                id="plan-rejected-by-kernelplan",
            ),
            pytest.param(
                _without(GOOD_TUNE, "plan"), "malformed tune plan",
                id="tune-no-plan",
            ),
            pytest.param(
                _without(GOOD_TUNE, "time_s"), "no numeric 'time_s'",
                id="tune-no-time",
            ),
            pytest.param(
                dict(GOOD_TUNE, time_s=None), "no numeric 'time_s'",
                id="tune-null-time",
            ),
            pytest.param(
                dict(GOOD_TUNE, time_s=True), "no numeric 'time_s'",
                id="tune-bool-time",
            ),
            pytest.param(
                dict(GOOD_TUNE, time_s=[1.0]), "no numeric 'time_s'",
                id="tune-list-time",
            ),
            pytest.param(
                dict(GOOD_TUNE, tflops="fast"), "no numeric 'tflops'",
                id="tune-string-tflops",
            ),
            pytest.param(
                _without(GOOD_TUNE, "evaluations"), "no int 'evaluations'",
                id="tune-no-evaluations",
            ),
            pytest.param(
                dict(GOOD_TUNE, stage1_evaluations=2.5),
                "no int 'stage1_evaluations'",
                id="tune-float-stage1",
            ),
            pytest.param(
                _without(GOOD_TUNE, "stage1_evaluations"),
                "no int 'stage1_evaluations'",
                id="tune-no-stage1",
            ),
            pytest.param(
                dict(GOOD_TUNE, evaluations=True), "no int 'evaluations'",
                id="tune-bool-evaluations",
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
                dict(GOOD_DEGREE, time_s=False), "no numeric 'time_s'",
                id="degree-bool-time",
            ),
            pytest.param(
                _without(GOOD_DEGREE, "bandwidth_bound"),
                "no bool 'bandwidth_bound'",
                id="degree-no-bandwidth-bound",
            ),
            pytest.param(
                dict(GOOD_DEGREE, bandwidth_bound=1),
                "no bool 'bandwidth_bound'",
                id="degree-int-bandwidth-bound",
            ),
            pytest.param(
                dict(GOOD_DEGREE, bound_level=None), "no str 'bound_level'",
                id="degree-null-bound-level",
            ),
            pytest.param(
                dict(GOOD_DEGREE, bound_level=2), "no str 'bound_level'",
                id="degree-int-bound-level",
            ),
            pytest.param(
                _without(GOOD_DEGREE, "evaluations"), "no int 'evaluations'",
                id="degree-no-evaluations",
            ),
            pytest.param(
                dict(GOOD_DEGREE, evaluations=3.0), "no int 'evaluations'",
                id="degree-float-evaluations",
            ),
        ],
    )
    def test_malformed_record_refuses_to_load(self, tmp_path, record, problem):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k1", _unit(1))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(CheckpointCorruptError) as info:
            TuningJournal(path, device="P100")
        assert info.value.exit_code == 4
        assert info.value.context["line"] == 3
        assert "is corrupt: line 3 has " in str(info.value)
        assert problem in str(info.value)
        # The offline reader refuses the same line the same way.
        with pytest.raises(CheckpointCorruptError) as info:
            read_journal(path)
        assert info.value.context["line"] == 3

    @pytest.mark.parametrize(
        "line, problem",
        [
            ('{"kind": "tune", "key": ', "is not valid JSON"),
            ("[1, 2]", "is not a journal record"),
            ('"tune"', "is not a journal record"),
            ('{"key": "k9", "time_s": 1.0}', "is not a journal record"),
        ],
        ids=["torn-mid-file", "list", "string", "no-kind"],
    )
    def test_line_that_is_no_record_refuses_to_load(
        self, tmp_path, line, problem
    ):
        # A damaged line followed by a committed one is not a torn tail:
        # both readers refuse it with its line number.
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k1", _unit(1))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n" + json.dumps(GOOD_TUNE) + "\n")
        for load in (
            lambda: TuningJournal(path, device="P100"),
            lambda: read_journal(path),
        ):
            with pytest.raises(CheckpointCorruptError) as info:
                load()
            assert info.value.exit_code == 4
            assert info.value.context["line"] == 3
            assert f"is corrupt: line 3 {problem}" in str(info.value)

    def test_writer_refuses_a_record_it_could_not_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            with pytest.raises(ValueError, match="no int 'evaluations'"):
                journal.record_candidate(
                    "k1", _without(_unit(1), "evaluations")
                )
        with TuningJournal(path, device="P100") as journal:
            assert journal.replayable == 0

    @pytest.mark.parametrize(
        "record",
        [
            GOOD_TUNE,
            dict(GOOD_TUNE, time_s=1, tflops=0),
            GOOD_DEGREE,
        ],
        ids=["tune", "int-timing", "degree"],
    )
    def test_well_formed_records_load(self, tmp_path, record):
        path = str(tmp_path / "journal.jsonl")
        TuningJournal(path, device="P100").close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with TuningJournal(path, device="P100") as journal:
            assert journal.lookup(record["key"]) == record
            assert journal.replayable == 1
        assert read_journal(path) == ("P100", [record])


class TestCrashRecovery:
    def _journal_with_records(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            journal.record_candidate("k1", _unit(1, time_s=1.0, tflops=2.0))
            journal.record_candidate("k2", _unit(2, time_s=3.0, tflops=4.0))
        return path

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "tune", "key": "k3", "pl')  # torn
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
            journal.record_candidate("k3", _unit(3, time_s=5.0, tflops=6.0))
        final = TuningJournal(path, device="P100")
        assert final.lookup("k3")["plan"] == _plan(3)
        final.close()

    @pytest.mark.parametrize("keep", [1, 17, -1])
    def test_torn_tail_of_any_length_is_dropped(self, tmp_path, keep):
        # keep=-1 leaves a complete JSON object without its newline:
        # an append is committed only by its terminating newline.
        path = self._journal_with_records(tmp_path)
        torn = json.dumps(dict(_unit(3), kind="tune", key="k3"))
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
            journal.record_candidate("k1", _unit(1))
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
                handle.write('{"kind": "tune", "key": "k3"')
            before = open(path, "rb").read()
            with pytest.raises(CheckpointLockedError):
                TuningJournal(path, device="P100")
            assert open(path, "rb").read() == before
        finally:
            live.close()

    def test_reader_takes_no_lock_and_repairs_nothing(self, tmp_path):
        # ``read_journal`` serves offline consumers (``repro
        # certify``): it may read a journal a live run holds,
        # and must leave that run's in-flight tail alone.
        path = self._journal_with_records(tmp_path)
        with TuningJournal(path, device="P100"):
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"kind": "tune", "key": "k3"')
            before = open(path, "rb").read()
            device, records = read_journal(path)
            assert open(path, "rb").read() == before
        assert device == "P100"
        assert [record["key"] for record in records] == ["k1", "k2"]

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
            handle.write(json.dumps({"kind": "tune"}) + "\n")
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
            journal.record_candidate("k1", _unit(1))
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
    #: A record of each retired version: version 1 journaled one
    #: ``candidate`` line per priced plan; version 2 journaled whole
    #: units but kept transfer ``seeds`` and keyed them by tuner
    #: settings this build no longer has, so none of its keys could hit.
    OLD_RECORDS = {
        1: {"kind": "candidate", "key": "ir:sf:abc", "plan": _plan(1),
            "time_s": 1.0, "tflops": 2.0},
        2: dict(_unit(1), kind="tune", key="ir:tune:abc:def",
                seeds=[{"plan": _plan(1), "time_s": 1.0, "tflops": 2.0}]),
    }

    @staticmethod
    def _old_journal(tmp_path, version):
        path = tmp_path / f"v{version}.jsonl"
        header = {"kind": "header", "version": version, "tool": "repro",
                  "device": "P100"}
        record = TestCompatibilityChecks.OLD_RECORDS[version]
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in (header, record))
        )
        return path

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_journal_is_refused(self, tmp_path, version):
        assert JOURNAL_VERSION == 3
        path = self._old_journal(tmp_path, version)
        for load in (
            lambda: TuningJournal(str(path), device="P100"),
            lambda: read_journal(path),
        ):
            with pytest.raises(CheckpointCorruptError) as info:
                load()
            message = str(info.value)
            assert info.value.exit_code == 4
            assert (
                f"has version {version}; this build reads version 3"
                in message
            )
            assert "start a fresh --checkpoint" in message
            assert "\n" not in message

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("command", ["optimize", "certify"])
    def test_old_version_journal_exits_4_at_the_cli(
        self, tmp_path, capsys, version, command
    ):
        from repro.cli import main

        path = str(self._old_journal(tmp_path, version))
        if command == "optimize":
            argv = ["optimize", "7pt-smoother", "--checkpoint", path,
                    "--resume"]
        else:
            argv = ["certify", "7pt-smoother", "--journal", path]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"has version {version}; this build reads version 3" in err
        assert "Traceback" not in err

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", "version": 999}) + "\n")
        with pytest.raises(CheckpointCorruptError):
            TuningJournal(path)

    def test_device_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        TuningJournal(path, device="P100").close()
        with pytest.raises(CheckpointError) as info:
            TuningJournal(path, device="V100")
        assert str(info.value) == (
            f"checkpoint journal {path} was recorded for device 'P100', "
            f"not 'V100'; resume on 'P100' or start a fresh checkpoint"
        )

    def test_device_check_skipped_when_unspecified(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        TuningJournal(path, device="P100").close()
        TuningJournal(path).close()  # no device claim: accepted


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
    """A finished P100 tuning run's journal."""
    from repro.gpu.device import P100
    from repro.tuning import tune_kernel
    from tests.gpu.test_pricing import IR, PROTOS

    path = str(tmp_path / "p100.jsonl")
    with TuningJournal(path, device=P100.name) as journal:
        tune_kernel(
            IR, PROTOS["serial-shm"], device=P100, top_k=2, journal=journal
        )
    return path


class TestResumeRefusal:
    """Replaying one device's journaled timings into another device's
    search would poison it, so a cross-device resume is refused with the
    usage exit code 2 (:class:`CheckpointDeviceMismatch`)."""

    def test_cross_device_open_raises_mismatch(self, p100_journal):
        from repro.resilience.errors import (
            CheckpointDeviceMismatch,
            ReproError,
            UsageError,
        )

        with pytest.raises(CheckpointDeviceMismatch) as info:
            TuningJournal(p100_journal, device="V100")
        err = info.value
        # Catchable under both parents, exits with the usage code.
        assert isinstance(err, CheckpointError)
        assert isinstance(err, UsageError)
        assert isinstance(err, ReproError)
        assert err.exit_code == 2
        assert err.context["recorded"] == "P100"
        assert err.context["requested"] == "V100"
        assert str(err).endswith(
            "resume on 'P100' or start a fresh checkpoint"
        )

    def test_cli_resume_on_other_device_is_exit_2(
        self, spec, tmp_path, capsys
    ):
        from repro.cli import main

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
        from repro.cli import main

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


class TestRecordFormat:
    """A unit record holds its winner and its counts, which is all a
    replay reads: version 3 keeps no per-unit seeds."""

    WINNER = {"kind", "key", "plan", "time_s", "tflops"}

    @staticmethod
    def _fields(path, kind):
        _, records = read_journal(path)
        fields = {frozenset(r) for r in records if r["kind"] == kind}
        assert len(fields) == 1
        return set(next(iter(fields)))

    def test_tune_record_holds_winner_and_counts(self, p100_journal):
        assert self._fields(p100_journal, "tune") == self.WINNER | {
            "evaluations", "stage1_evaluations",
        }

    def test_degree_record_holds_winner_and_counts(
        self, smoother_ir, tmp_path
    ):
        from repro.tuning import deep_tune

        path = str(tmp_path / "degrees.jsonl")
        with TuningJournal(path, device="P100") as journal:
            result = deep_tune(smoother_ir, max_degree=2, journal=journal)
        assert self._fields(path, "degree") == self.WINNER | {
            "degree", "evaluations", "bandwidth_bound", "bound_level",
        }
        _, records = read_journal(path)
        assert len(records) == len(result.entries)

