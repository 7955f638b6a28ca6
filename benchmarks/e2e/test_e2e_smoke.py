"""Smoke test of the end-to-end benchmark: one job per workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec(ROOT)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One traced job per workload, completed the way run.py does."""
    patch = pytest.MonkeyPatch()
    env = run.child_env(ROOT)
    for key in ("PYTHONPATH", "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE"):
        patch.setenv(key, env[key])
    patch.chdir(tmp_path_factory.mktemp("cwd"))  # trace files land here
    imports = spans.import_times(env, samples=1)
    setup = run.setup_samples(env, count=1)
    out = {}
    try:
        for name in workload.WORKLOADS:
            record = workload.run_workload(
                name, seed=1, seconds=1, trace=True,
                work=tmp_path_factory.mktemp(name), rounds=1, pairs=1,
            )
            assert Path(record["trace_file"]).is_file()
            out[name] = run.complete(record, True, setup, imports)
    finally:
        patch.undo()
    return out


def test_spec_names_and_sizes(spec):
    assert {w["name"] for w in spec["workloads"]} == set(workload.WORKLOADS)
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_declared_metric_is_emitted_with_a_unit(spec, records):
    for name, record in records.items():
        assert record["failed"] == 0, record["problems"]
        assert record["attempted"] >= 1
        for trace in (False, True):
            line = run.result_line(spec, dict(record, trace=trace))
            json.dumps(line)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            assert list(line["metrics"]) == [m["name"] for m in declared]
            for metric in line["metrics"].values():
                assert isinstance(metric["value"], (int, float))
                assert metric["unit"]
        for value in record["metrics"].values():
            assert value > 0, name


def test_oracle_flags_a_corrupted_digest():
    source = oracle.shrink_source(workload.BENCHMARKS["helmholtz"].dsl(), 24)
    assert "parameter L=24, M=24, N=24;" in source
    result = workload.tune_job(
        workload.BENCHMARKS["helmholtz"].dsl(), workload.get_device("P100"), 8
    )
    key = "helmholtz@P100"
    digest = oracle.outcome_digest(result.outcome)
    good = oracle.Verifier({key: digest})
    assert good.check(key, workload.BENCHMARKS["helmholtz"].dsl(), result.outcome) is None
    corrupted = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    bad = oracle.Verifier({key: corrupted})
    problem = bad.check(key, "", result.outcome)
    assert problem is not None and "digest" in problem
    expects_error = oracle.Verifier({key: {"error": "PlanInfeasible", "exit_code": 3}})
    assert expects_error.check(key, "", result.outcome) is not None


def test_compare_verdicts():
    lower = {"name": "wall_s", "better": "lower", "bound": 0.1}
    steady = [1.0 + 0.001 * i for i in range(10)]
    assert compare.judge(lower, steady, steady)[0] == "within"
    assert compare.judge(lower, steady, [v * 1.2 for v in steady])[0] == "REGRESSED"
    assert compare.judge(lower, steady, [v * 0.8 for v in steady])[0] == "GAIN"
    noisy = [1.0, 1.5] * 5
    assert compare.judge(lower, noisy, noisy)[0] == "unresolved"


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:       200 |        300 | numpy\n"
        "import time:        50 |        350 | repro\n"
    )
    times = spans.parse_importtime(stderr)
    assert times["total"] == pytest.approx(0.35)
    assert times["numpy"] == pytest.approx(0.3)
    assert times["networkx"] == 0.0
