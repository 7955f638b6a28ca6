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
generous threshold — it exists to catch a vectorized path silently
falling back to scalar, not to police minor scheduler noise.

A second pass re-runs the suite on the scalar path (``MIN_FAMILY``
raised past every batch size, so no group reaches family pricing) and
writes ``BENCH_compare.json``: the scalar-vs-vectorized artifact,
reporting both the end-to-end and the pricing-only (engine-attributed
busy time) speedup, gated on byte-identical winners.

CI runs this as a *non-blocking* job (see ``.github/workflows/ci.yml``);
locally: ``PYTHONPATH=src python -m pytest benchmarks/bench_regression.py``.
"""

import json
import os
import sys

from repro.suite.bench import compare_bench, format_bench, run_bench
from repro.tuning import evaluator

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_search.json"
)
COMPARE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_compare.json"
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
    # Prescreen-vs-price-vs-simulate split: every screened candidate
    # must carry a lint rule code; every survivor gets exactly one
    # logical price; the scalar simulate() calls are the residue the
    # vectorized backend did not cover.
    for name, row in results["benchmarks"].items():
        print(
            f"{name}: {row['lint_rejections']} lint-rejected, "
            f"{row['priced_candidates']} priced "
            f"({row['vectorized']} vectorized, "
            f"{row['simulate_calls']} scalar simulate calls)"
        )
        assert row["lint_rejections"] == row["screened"]
        assert row["priced_candidates"] == row["simulations"] - row["screened"]
        assert row["simulate_calls"] <= row["priced_candidates"]
    assert not problems, "; ".join(problems)


def test_vectorized_comparison(monkeypatch):
    # Before/after throughput artifact: the same suite with family
    # pricing off.  The winners must be byte-identical — vectorization
    # is a cost lever, never a result lever.
    assert _results, "bench did not run"
    with monkeypatch.context() as patch:
        patch.setattr(evaluator, "MIN_FAMILY", sys.maxsize)
        scalar = run_bench()
    comparison = {"schema": 1, "benchmarks": {}}
    for name, vec_row in _results["benchmarks"].items():
        scal_row = scalar["benchmarks"][name]
        for field in ("best_gflops", "variant", "requests", "simulations",
                      "screened", "rungs_skipped", "evaluations"):
            assert scal_row[field] == vec_row[field], (
                f"{name}: {field} differs between scalar and vectorized "
                f"engines ({scal_row[field]} vs {vec_row[field]})"
            )
        assert scal_row["vectorized"] == 0
        comparison["benchmarks"][name] = {
            "scalar_wall_s": scal_row["wall_s"],
            "vectorized_wall_s": vec_row["wall_s"],
            "end_to_end_speedup": round(
                scal_row["wall_s"] / vec_row["wall_s"], 2
            ) if vec_row["wall_s"] else None,
            "scalar_engine_wall_s": scal_row["engine_wall_s"],
            "vectorized_engine_wall_s": vec_row["engine_wall_s"],
            "pricing_speedup": round(
                scal_row["engine_wall_s"] / vec_row["engine_wall_s"], 2
            ) if vec_row["engine_wall_s"] else None,
            "vectorized_lanes": vec_row["vectorized"],
            "identical_winner": True,
        }
        row = comparison["benchmarks"][name]
        print(
            f"{name}: end-to-end {row['end_to_end_speedup']}x "
            f"(wall {scal_row['wall_s']}s -> {vec_row['wall_s']}s), "
            f"pricing-only {row['pricing_speedup']}x "
            f"(engine {scal_row['engine_wall_s']}s -> "
            f"{vec_row['engine_wall_s']}s)"
        )
    from repro.resilience import atomic_write_json

    atomic_write_json(COMPARE_PATH, comparison, indent=2, sort_keys=True)


def test_write_bench_json():
    # Runs after the bench case (pytest preserves file order); refreshes
    # the baseline artifact CI uploads.
    from repro.resilience import atomic_write_json

    assert _results, "bench did not run"
    atomic_write_json(BASELINE_PATH, _results, indent=2, sort_keys=True)
