"""Regression guard: the evaluation engine's accounting matches the
``simulate()`` calls it actually made.

A full ``pipeline.optimize()`` run must price most candidates through
the vectorized family backend, avoid simulations through memoization,
the incremental register ladder and the occupancy screen, and leave a
scalar ``simulate()`` residue its statistics explain.
"""

from repro.pipeline import optimize
from repro.suite import load_ir


class TestSimulateCallReduction:
    def test_stats_account_for_avoided_simulations(self, simulate_calls):
        ir = load_ir("7pt-smoother")
        outcome = optimize(ir, top_k=2)
        calls = simulate_calls()
        stats = outcome.eval_stats
        assert stats is not None
        # Every logical price is a family lane (``vectorized``), so the
        # engine makes no simulate() call; ``simulate.calls`` sees only
        # the few calls made outside it (schedule_tflops reads the
        # engine's memo and prices a plan itself only when it lacks it).
        assert stats.simulations == stats.vectorized
        assert calls <= len(outcome.schedule.plans) + 8
        assert stats.vectorized > 0
        assert stats.simulations_avoided > 0
        assert stats.screened > 0
