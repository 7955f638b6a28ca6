"""CLI error hygiene: one-line messages, exit codes, --debug, chaos env.

Exit-code contract (``docs/robustness.md``): 2 = usage error, 3 =
infeasible input (bad DSL, impossible plan), 4 = evaluation/checkpoint
failure; ``--debug`` re-enables tracebacks.
"""

import pytest

from repro.cli import main
from repro.resilience import InjectedFault, TuningJournal, UsageError

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

    def test_evaluation_failure_is_exit_4(
        self, spec, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS_RATE", "0.1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "42")
        code = main(["optimize", spec, "--top-k", "1"])
        err = capsys.readouterr().err
        assert code == 4
        assert "injected fault" in err
        assert "fault_seed=42" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--top-k", "0"],
            ["--top-k", "-1"],
            ["--top-k", "-2"],
            ["--on-error", "skip", "--failure-budget", "-1"],
            ["--on-error", "skip", "--failure-budget=-5"],
        ],
    )
    def test_out_of_range_tuning_flags_are_exit_2(self, spec, flags, capsys):
        code = main(["optimize", spec, *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert ("top_k" if flags[0] == "--top-k" else "failure budget") in err

    @pytest.mark.parametrize("budget", ["-1", "-3"])
    def test_deep_tune_failure_budget_is_validated(self, budget, capsys):
        code = main(
            [
                "deep-tune", "7pt-smoother", "--on-error", "skip",
                f"--failure-budget={budget}",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "failure budget must be >= 0" in err

    @pytest.mark.parametrize("command", ["optimize", "deep-tune"])
    def test_failure_budget_without_skip_is_exit_2(
        self, command, capsys, monkeypatch
    ):
        # The default --on-error fail-fast aborts on the first fault, so
        # a budget there would never be consulted: refuse it up front.
        monkeypatch.setenv("REPRO_CHAOS_RATE", "0.1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "2024")
        code = main([command, "7pt-smoother", "--failure-budget", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "on_error='skip'" in err

    def test_argparse_usage_is_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["optimize"])  # missing spec positional
        assert info.value.code == 2


class TestChaosEnvHygiene:
    """Malformed REPRO_CHAOS_* values are usage errors, not tracebacks."""

    def test_bad_rate_is_exit_2_and_names_the_variable(
        self, spec, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS_RATE", "abc")
        code = main(["optimize", spec, "--top-k", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "REPRO_CHAOS_RATE" in err
        assert "'abc'" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_seed_is_exit_2(self, spec, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_RATE", "0.1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "4.5")
        code = main(["optimize", spec, "--top-k", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "REPRO_CHAOS_SEED" in err
        assert "not an integer" in err


class TestDebugFlag:
    def test_debug_reenables_traceback(self, spec, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_RATE", "0.1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "42")
        with pytest.raises(InjectedFault):
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


class TestChaosRecovery:
    def test_skip_policy_completes_under_chaos(
        self, spec, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS_RATE", "0.1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "42")
        code = main(
            ["optimize", spec, "--top-k", "1", "--on-error", "skip",
             "--eval-stats"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning:" in captured.err
        assert "failed persistently" in captured.err


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
