"""Search-cost regression gate: current run vs the committed baseline.

Runs the ``repro bench`` suite (``repro.suite.bench``) in-process,
refreshes ``BENCH_search.json`` with the measured profile, and asserts
the gated metrics (evaluator request count, simulation count, best
GFLOPS, winning variant) stayed within tolerance of the committed
baseline.  The counts are deterministic functions of the search
algorithm, so a failure here means the search itself changed shape —
not that the machine was slow.

Wall-clock gating is opt-in: set ``REPRO_BENCH_GATE_WALL`` to a relative
tolerance (e.g. ``1.0`` for "no worse than 2x the baseline") to fail
the run when ``wall_s`` regresses past it.  CI enables this with a
generous threshold — it exists to catch a pathological slowdown of the
pricing path, not to police minor scheduler noise.

CI runs this as a *non-blocking* job (see ``.github/workflows/ci.yml``);
locally: ``PYTHONPATH=src python -m pytest benchmarks/bench_regression.py``.
"""

import json
import os

from repro.suite.bench import compare_bench, format_bench, run_bench

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_search.json"
)
TOLERANCE = 0.15

_results = {}


def _wall_tolerance():
    raw = os.environ.get("REPRO_BENCH_GATE_WALL", "").strip()
    return float(raw) if raw else None


def test_search_bench():
    results = run_bench()
    _results.update(results)

    problems = []
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = compare_bench(
            results, baseline,
            tolerance=TOLERANCE,
            wall_tolerance=_wall_tolerance(),
        )
    print(format_bench(results, problems))
    # Prescreen-vs-price split: every screened candidate must carry a
    # lint rule code; every survivor gets exactly one logical price;
    # simulate() calls are the one-plan prices made outside the engine.
    for name, row in results["benchmarks"].items():
        print(
            f"{name}: {row['lint_rejections']} lint-rejected, "
            f"{row['priced_candidates']} priced "
            f"({row['vectorized']} by family passes, "
            f"{row['simulate_calls']} simulate calls)"
        )
        assert row["lint_rejections"] == row["screened"]
        assert row["priced_candidates"] == row["simulations"] - row["screened"]
        assert row["simulate_calls"] <= row["priced_candidates"]
    assert not problems, "; ".join(problems)


def test_write_bench_json():
    # Runs after the bench case (pytest preserves file order); refreshes
    # the baseline artifact CI uploads.
    from repro.resilience import atomic_write_json

    assert _results, "bench did not run"
    atomic_write_json(BASELINE_PATH, _results, indent=2, sort_keys=True)
