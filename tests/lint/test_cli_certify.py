"""End-to-end tests for the ``repro certify`` subcommand."""

import json
import re

import pytest

from repro.cli import main
from repro.codegen.plan import KernelPlan
from repro.resilience.checkpoint import TuningJournal, plan_to_dict

PROGRAM = """
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

SINGLE_KERNEL = """
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
    path = tmp_path / "program.dsl"
    path.write_text(PROGRAM)
    return path


def good_plan():
    return KernelPlan(("produce.0", "consume.0"), block=(32, 16))


def bad_plan():
    return KernelPlan(("consume.0", "produce.0"), block=(32, 16))


class TestExitCodes:
    def test_certified_plan_exits_zero(self, spec, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_to_dict(good_plan())))
        assert main(["certify", str(spec), "--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "all transformations certified" in out

    def test_refuted_plan_exits_one(self, spec, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_to_dict(bad_plan())))
        assert main(["certify", str(spec), "--plan", str(plan_file)]) == 1
        out = capsys.readouterr().out
        assert "RL301" in out
        assert "1 refutation(s)" in out

    def test_plan_list_certifies_each(self, spec, tmp_path, capsys):
        plan_file = tmp_path / "plans.json"
        plan_file.write_text(
            json.dumps([plan_to_dict(good_plan()), plan_to_dict(bad_plan())])
        )
        assert main(["certify", str(spec), "--plan", str(plan_file)]) == 1
        assert "2 plan(s)" in capsys.readouterr().out

    def test_default_seed_plans_certify_clean(self, capsys):
        assert main(["certify", "7pt-smoother"]) == 0
        assert "all transformations certified" in capsys.readouterr().out

    def test_whole_suite_certifies_clean(self, capsys):
        assert main(["certify", "--suite"]) == 0
        assert "all transformations certified" in capsys.readouterr().out

    def test_nothing_to_certify_is_usage_error(self, capsys):
        assert main(["certify"]) == 2
        assert "nothing to certify" in capsys.readouterr().err

    def test_malformed_plan_is_usage_error(self, spec, tmp_path, capsys):
        plan_file = tmp_path / "junk.json"
        plan_file.write_text(json.dumps({"block": [32, 16]}))
        assert main(["certify", str(spec), "--plan", str(plan_file)]) == 2
        assert "not a serialized KernelPlan" in capsys.readouterr().err

    def test_missing_plan_file_is_usage_error(self, spec, capsys):
        assert main(["certify", str(spec), "--plan", "/no/such.json"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestJournalMode:
    def test_journal_plans_are_certified(self, spec, tmp_path, capsys):
        # Each unit record contributes its winner, once per distinct
        # plan: the refuted plan is the second unit's winner.
        journal_path = tmp_path / "journal.jsonl"
        good = {"plan": plan_to_dict(good_plan()), "time_s": 1.0, "tflops": 1.0}
        bad = {"plan": plan_to_dict(bad_plan()), "time_s": 2.0, "tflops": 0.5}
        journal = TuningJournal(str(journal_path), device="P100")
        journal.record_candidate(
            "unit", dict(good, evaluations=2, stage1_evaluations=2)
        )
        journal.record_candidate(
            "unit-2", dict(bad, evaluations=2, stage1_evaluations=2)
        )
        journal.record_degree(
            "degree",
            dict(
                good, degree=1, evaluations=1, bandwidth_bound=True,
                bound_level="dram",
            ),
        )
        journal.close()
        assert (
            main(["certify", str(spec), "--journal", str(journal_path)]) == 1
        )
        out = capsys.readouterr().out
        assert "RL301" in out
        assert "2 plan(s)" in out

    def test_fresh_journal_certifies_its_plans(self, tmp_path, capsys):
        # One kernel, so every journaled plan belongs to this program.
        spec = tmp_path / "single.dsl"
        spec.write_text(SINGLE_KERNEL)
        journal_path = tmp_path / "run.jsonl"
        assert main(
            ["optimize", str(spec), "--top-k", "1",
             "--checkpoint", str(journal_path)]
        ) == 0
        capsys.readouterr()
        assert (
            main(["certify", str(spec), "--journal", str(journal_path)]) == 0
        )
        out = capsys.readouterr().out
        match = re.search(r"(\d+) plan\(s\)", out)
        assert match is not None and int(match.group(1)) > 0
        assert "all transformations certified" in out

    def test_corrupt_journal_line_is_exit_4(self, spec, tmp_path, capsys):
        journal_path = tmp_path / "journal.jsonl"
        TuningJournal(str(journal_path), device="P100").close()
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "tune", "key": \n')
        code = main(["certify", str(spec), "--journal", str(journal_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ")
        assert "line 2 is not valid JSON" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_journal_is_usage_error(self, spec, capsys):
        assert main(["certify", str(spec), "--journal", "/no/such"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestMachineOutput:
    def test_json_carries_the_witness(self, spec, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_to_dict(bad_plan())))
        json_path = tmp_path / "certify.json"
        main(
            [
                "certify", str(spec),
                "--plan", str(plan_file),
                "--json", str(json_path),
            ]
        )
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert payload["totals"]["refutations"] == 1
        diag = payload["artifacts"][0]["diagnostics"][0]
        assert diag["code"] == "RL301"
        assert diag["witness"]["array"] == "T"
        assert diag["witness"]["source"] == "produce.0"

    def test_sarif_is_valid_and_carries_the_witness(
        self, spec, tmp_path, capsys
    ):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_to_dict(bad_plan())))
        sarif_path = tmp_path / "certify.sarif"
        main(
            [
                "certify", str(spec),
                "--plan", str(plan_file),
                "--sarif", str(sarif_path),
            ]
        )
        capsys.readouterr()
        log = json.loads(sarif_path.read_text())
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        refuted = [r for r in results if r["ruleId"] == "RL301"]
        assert refuted
        assert refuted[0]["properties"]["witness"]["array"] == "T"

    def test_clean_run_still_writes_artifacts(self, spec, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_to_dict(good_plan())))
        json_path = tmp_path / "certify.json"
        assert (
            main(
                [
                    "certify", str(spec),
                    "--plan", str(plan_file),
                    "--json", str(json_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert payload["totals"] == {
            "programs": 1,
            "plans": 1,
            "findings": 0,
            "refutations": 0,
        }


class TestExamplesMode:
    def test_examples_seed_plans_certify_clean(self, capsys):
        assert main(["certify", "--examples", "examples"]) == 0
        assert "all transformations certified" in capsys.readouterr().out
