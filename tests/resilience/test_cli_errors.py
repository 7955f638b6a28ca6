"""CLI error hygiene: one-line messages, exit codes, --debug.

Exit-code contract (``docs/robustness.md``): 2 = usage error, 3 =
infeasible input (bad DSL, impossible plan), 4 = evaluation/checkpoint
failure; ``--debug`` re-enables tracebacks.
"""

import json
import socket
from pathlib import Path

import pytest

from repro.cli import main
from repro.dsl.validate import MAX_ITERATIONS
from repro.gpu.pricing import FamilyStructure
from repro.resilience import EvaluationError, TuningJournal, UsageError
from repro.tuning import PlanEvaluator

SPATIAL_SRC = """
parameter N=64;
iterator k, j, i;
double a[N,N,N], b[N,N,N];
copyin a;
stencil s (b, a) { b[k][j][i] = a[k][j][i+1] + a[k][j][i-1]; }
s (b, a);
copyout b;
"""

FOUR_ITERATOR_SRC = """
parameter N=512;
iterator l, k, j, i;
double a[N,N,N,N], b[N,N,N,N];
copyin a;
stencil s (b, a) {{ b[l][k][j][i] = {reads}; }}
s (b, a);
copyout b;
""".format(
    reads=" + ".join(
        "a" + "".join(f"[{x}{s}32]" if x == it else f"[{x}]" for x in "lkji")
        for it in "lkji"
        for s in "+-"
    )
)


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "spatial.dsl"
    path.write_text(SPATIAL_SRC)
    return str(path)


def _broken(*args, **kwargs):
    raise RuntimeError("model bug")


#: Where a planted model bug can sit: the engine's pricing seam, or the
#: lane pricing core that ``FamilyStructure.price`` and
#: ``price_spill_free`` share (``optimize`` reaches it through
#: ``simulate`` when it profiles a seed plan, and through the engine).
BROKEN_MODEL = {
    "engine-pricing": (PlanEvaluator, "_price_lanes"),
    "family-pricing": (FamilyStructure, "_price"),
}


class TestExitCodes:
    def test_usage_error_is_exit_2(self, spec, tmp_path, capsys):
        journal = tmp_path / "existing.jsonl"
        TuningJournal(str(journal)).close()
        code = main(
            ["optimize", spec, "--checkpoint", str(journal), "--top-k", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "--resume" in err
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_resume_without_checkpoint_is_exit_2(self, spec, capsys):
        code = main(["optimize", spec, "--resume", "--top-k", "1"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_missing_file_is_exit_2(self, spec, tmp_path, capsys):
        code = main(
            [
                "optimize", spec, "--top-k", "1",
                "--checkpoint", str(tmp_path / "nope.jsonl"), "--resume",
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_dsl_error_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.dsl"
        bad.write_text("parameter N=8;\niterator k j i\n")
        code = main(["optimize", str(bad)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ")
        assert "line=2" in err

    @pytest.mark.parametrize(
        "source, error",
        [
            # 2**63 points: the lane model's int64 flop count used to wrap.
            (
                SPATIAL_SRC.replace("N=64", "N=2097152"),
                "array 'a' has 9223372036854775808 elements, more than the "
                "68719476736 an array may have [col=8, line=4]",
            ),
            # Past int64: pricing used to fail with exit 4.
            (
                SPATIAL_SRC.replace("N=64", "N=99999999999999999999999"),
                "parameter 'N' is 99999999999999999999999, more than the "
                "68719476736 points an extent may have [col=11, line=2]",
            ),
            # Four iterators over 2**36 points at reach 32: one-point
            # tiles used to wrap dram_read_bytes and exit 0.
            (
                FOUR_ITERATOR_SRC,
                "stencil 's': subscript l+32 of 'a' has a coefficient or "
                "constant larger than 31 in magnitude, the reach 4 "
                "iterators over 68719476736 points allow [col=20, line=6]",
            ),
        ],
        ids=["2**63-points", "past-int64", "four-iterators"],
    )
    def test_oversized_program_is_exit_3(self, tmp_path, capsys, source, error):
        big = tmp_path / "big.dsl"
        big.write_text(source)
        code = main(["optimize", str(big)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "7pt-smoother", "--top-k", "1",
             "-T", "99999999999999999999"],
            ["deep-tune", "7pt-smoother", "-T", "4611686018427387904"],
            ["optimize", "7pt-smoother", "--top-k", "1",
             "-T", str(MAX_ITERATIONS + 1)],
            ["deep-tune", "7pt-smoother", "-T", "-1"],
        ],
        ids=["past-int64", "2**62", "one-past-the-bound", "negative"],
    )
    def test_out_of_range_iteration_count_is_exit_2(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: iteration count ")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "count", ["99999999999999999999", str(MAX_ITERATIONS + 1)]
    )
    def test_oversized_iterate_count_is_exit_3(self, tmp_path, capsys, count):
        source = SPATIAL_SRC.replace(
            "iterator k, j, i;\n", f"iterator k, j, i;\niterate {count};\n"
        )
        path = tmp_path / "iterative.dsl"
        path.write_text(source)
        code = main(["optimize", str(path), "--top-k", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: iterate count {count} is more than the {MAX_ITERATIONS} "
            f"time iterations a program may have [col=9, line=4]\n"
        )

    def test_iteration_count_at_the_bound_is_accepted(self):
        from repro.tuning.deeptuning import check_iterations

        check_iterations(MAX_ITERATIONS)
        check_iterations(0)

    @pytest.mark.parametrize("where", sorted(BROKEN_MODEL))
    def test_evaluation_failure_is_exit_4(
        self, spec, capsys, monkeypatch, where
    ):
        monkeypatch.setattr(*BROKEN_MODEL[where], _broken)
        code = main(["optimize", spec, "--top-k", "1"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: evaluation of candidate failed: ")
        assert "model bug" in err
        assert "plan=s.0 block=" in err
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "flags", [["--top-k", "0"], ["--top-k", "-1"], ["--top-k", "-2"]]
    )
    def test_out_of_range_tuning_flags_are_exit_2(self, spec, flags, capsys):
        code = main(["optimize", spec, *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "top_k" in err

    @pytest.mark.parametrize(
        "flag",
        [
            "--on-error=skip",
            "--failure-budget=3",
            "--pricing=scalar",
        ],
    )
    @pytest.mark.parametrize("command", ["optimize", "deep-tune"])
    def test_removed_flags_are_exit_2(self, command, flag):
        with pytest.raises(SystemExit) as info:
            main([command, "7pt-smoother", flag])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "command",
        ["optimize", "cuda", "profile", "characteristics", "deep-tune",
         "certify"],
    )
    def test_unknown_spec_is_exit_2(self, command, capsys):
        code = main([command, "no-such-benchmark"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: 'no-such-benchmark' is neither a "
                              "built-in benchmark (7pt-smoother, ")
        assert err.rstrip().endswith(") nor a file")

    def test_deep_tune_of_a_spatial_stencil_is_exit_2(self, capsys):
        code = main(["deep-tune", "hypterm"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: deep tuning applies to iterative stencils\n"

    def test_argparse_usage_is_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["optimize"])  # missing spec positional
        assert info.value.code == 2


class TestDebugFlag:
    def test_debug_reenables_traceback(self, spec, monkeypatch):
        monkeypatch.setattr(PlanEvaluator, "_price_lanes", _broken)
        with pytest.raises(EvaluationError):
            main(["--debug", "optimize", spec, "--top-k", "1"])

    def test_debug_with_usage_error(self, spec, tmp_path):
        journal = tmp_path / "existing.jsonl"
        TuningJournal(str(journal)).close()
        with pytest.raises(UsageError):
            main(
                [
                    "--debug", "optimize", spec,
                    "--checkpoint", str(journal), "--top-k", "1",
                ]
            )


def _stable_report_lines(text):
    """Report lines that must be identical across a resume (wall-clock
    based engine statistics legitimately differ)."""
    return [
        line
        for line in text.splitlines()
        if "ms wall" not in line
        and "evaluation" not in line
        and "eval engine" not in line
    ]


class TestCheckpointFlags:
    def test_checkpoint_then_resume_round_trip(
        self, spec, tmp_path, capsys
    ):
        journal = str(tmp_path / "run.jsonl")
        assert main(
            ["optimize", spec, "--top-k", "1", "--checkpoint", journal]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["optimize", spec, "--top-k", "1", "--checkpoint", journal,
             "--resume"]
        ) == 0
        captured = capsys.readouterr()
        assert "checkpoint: resuming" in captured.err
        assert _stable_report_lines(captured.out) == _stable_report_lines(first)

    def test_deep_tune_checkpoint_flags(self, tmp_path, capsys):
        spec = tmp_path / "iter.dsl"
        spec.write_text(
            """
            parameter N=64;
            iterator k, j, i;
            double a[N,N,N], b[N,N,N];
            copyin a;
            iterate 4;
            stencil s (b, a) { b[k][j][i] = a[k][j][i+1] + a[k][j][i-1]; }
            s (b, a);
            copyout b;
            """
        )
        journal = str(tmp_path / "deep.jsonl")
        assert main(
            ["deep-tune", str(spec), "--checkpoint", journal]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["deep-tune", str(spec), "--checkpoint", journal, "--resume"]
        ) == 0
        captured = capsys.readouterr()
        assert "checkpoint: resuming" in captured.err
        assert captured.out == first

    def test_malformed_journal_record_is_exit_4(self, spec, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        assert main(
            ["optimize", spec, "--top-k", "1", "--checkpoint", str(journal)]
        ) == 0
        lines = journal.read_text().splitlines()
        number, record = next(
            (number, json.loads(line))
            for number, line in enumerate(lines, start=1)
            if json.loads(line).get("plan") is not None
        )
        del record["time_s"]
        lines[number - 1] = json.dumps(record)
        journal.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(
            ["optimize", spec, "--top-k", "1", "--checkpoint", str(journal),
             "--resume"]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ")
        assert f"line {number} has no numeric 'time_s'" in err
        assert len(err.strip().splitlines()) == 1

    def test_version_1_journal_is_exit_4(self, spec, tmp_path, capsys):
        # Version 1 journaled single candidates; a resume cannot use it.
        journal = tmp_path / "old.jsonl"
        journal.write_text(
            json.dumps({"kind": "header", "version": 1, "tool": "repro",
                        "device": "P100"})
            + "\n"
            + json.dumps({"kind": "candidate", "key": "ir:sf:abc",
                          "plan": None})
            + "\n"
        )
        code = main(
            ["optimize", spec, "--top-k", "1", "--checkpoint", str(journal),
             "--resume"]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ")
        assert "has version 1" in err
        assert "start a fresh --checkpoint" in err
        assert len(err.strip().splitlines()) == 1


def _one_usage_error(code, capsys) -> str:
    """Assert exit 2 with one ``error:`` line; return the line."""
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    return err


class TestRefusedUpFront:
    """Flags and specs a run could not honour end as exit 2 before any
    tuning: the engine is never asked for a candidate."""

    @pytest.fixture
    def no_tuning(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tuning started")

        monkeypatch.setattr(PlanEvaluator, "_price_lanes", refuse)

    @pytest.mark.parametrize("port", ["99999", "-1", "65536"])
    @pytest.mark.parametrize("command", ["optimize", "deep-tune"])
    def test_metrics_port_out_of_range(self, no_tuning, capsys, command, port):
        code = main([command, "7pt-smoother", "--metrics-port", port])
        err = _one_usage_error(code, capsys)
        assert f"--metrics-port must be in 0-65535, not {port}" in err

    @pytest.mark.parametrize("command", ["optimize", "deep-tune"])
    def test_metrics_port_in_use(self, no_tuning, capsys, tmp_path, command):
        journal = tmp_path / "c.jsonl"
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            code = main([
                command, "7pt-smoother", "--metrics-port", str(port),
                "--checkpoint", str(journal),
            ])
        err = _one_usage_error(code, capsys)
        assert f"--metrics-port {port}: cannot serve" in err
        assert not journal.exists()  # refused before the journal opened

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "7pt-smoother", "--json", "{missing}/x.json"],
            ["optimize", "7pt-smoother", "--search-log", "{missing}/x.jsonl"],
            ["optimize", "7pt-smoother", "--trace", "{missing}/t.json"],
            ["optimize", "7pt-smoother", "--checkpoint", "{missing}/c.jsonl"],
            ["deep-tune", "7pt-smoother", "--checkpoint", "{missing}/c.jsonl"],
            ["deep-tune", "7pt-smoother", "--trace", "{missing}/t.json"],
            ["profile", "7pt-smoother", "--json", "{missing}/p.json"],
            ["lint", "7pt-smoother", "--sarif", "{missing}/l.sarif"],
            ["report", "{log}", "-o", "{missing}/r.html"],
        ],
        ids=lambda argv: "-".join(a for a in argv if a.startswith("-")),
    )
    def test_output_in_a_missing_directory(
        self, no_tuning, capsys, tmp_path, argv
    ):
        missing = tmp_path / "no" / "such" / "dir"
        argv = [
            a.format(missing=missing, log=tmp_path / "run.jsonl") for a in argv
        ]
        err = _one_usage_error(main(argv), capsys)
        assert f"directory '{missing}' does not exist" in err
        assert not missing.parent.exists()

    def test_output_that_is_a_directory(self, no_tuning, capsys, tmp_path):
        code = main(["optimize", "7pt-smoother", "--json", str(tmp_path)])
        err = _one_usage_error(code, capsys)
        assert err == f"error: --json: '{tmp_path}' is a directory\n"

    @pytest.mark.parametrize("command", ["optimize", "lint", "cuda", "certify"])
    def test_spec_that_is_a_directory(self, no_tuning, capsys, tmp_path,
                                      command):
        err = _one_usage_error(main([command, str(tmp_path)]), capsys)
        assert err == f"error: '{tmp_path}' is a directory, not a spec file\n"

    @pytest.mark.parametrize("flag", ["--plan", "--journal"])
    def test_certify_input_that_is_a_directory(self, capsys, tmp_path, flag):
        code = main(["certify", "7pt-smoother", flag, str(tmp_path)])
        err = _one_usage_error(code, capsys)
        assert err == f"error: {flag}: '{tmp_path}' is a directory\n"

    @pytest.mark.parametrize("command", ["optimize", "lint", "cuda", "certify"])
    def test_spec_that_is_not_text(self, no_tuning, capsys, tmp_path, command):
        path = tmp_path / "binary.stencil"
        path.write_bytes(b"\xff\xfe\x00stencil")
        err = _one_usage_error(main([command, str(path)]), capsys)
        assert err.startswith(f"error: cannot read '{path}': ")

    @pytest.mark.parametrize("command", ["optimize", "lint"])
    def test_spec_that_cannot_be_read(
        self, no_tuning, capsys, monkeypatch, spec, command
    ):
        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        err = _one_usage_error(main([command, spec]), capsys)
        assert err == f"error: cannot read '{spec}': Permission denied\n"
