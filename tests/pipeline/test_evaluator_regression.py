"""Regression guard: the evaluation engine's accounting matches the
``simulate()`` calls it actually made.

A full ``pipeline.optimize()`` run must price most candidates through
the vectorized family backend, avoid simulations through memoization,
the incremental register ladder and the occupancy screen, and leave a
scalar ``simulate()`` residue its statistics explain.
"""

from repro.gpu.simulator import reset_simulate_calls
from repro.pipeline import optimize
from repro.suite import load_ir


class TestSimulateCallReduction:
    def test_stats_account_for_avoided_simulations(self):
        ir = load_ir("7pt-smoother")
        reset_simulate_calls()
        outcome = optimize(ir, top_k=2)
        calls = reset_simulate_calls()
        stats = outcome.eval_stats
        assert stats is not None
        # Of the logical prices, ``vectorized`` came from the family
        # backend without a scalar simulate() call; the residue plus a
        # handful of out-of-engine calls (schedule_tflops prices the
        # final schedule directly) is what the global counter sees.
        scalar_residue = stats.simulations - stats.vectorized
        assert scalar_residue <= calls
        assert calls - scalar_residue <= len(outcome.schedule.plans) + 8
        assert stats.vectorized > 0
        assert stats.simulations_avoided > 0
        assert stats.screened > 0
