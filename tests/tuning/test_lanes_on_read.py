"""Priced lanes build their result and their rejection only when read.

The spill-free search prices whole structural families and then drops
every lane that spills at every register rung without looking at it.
A real ``rhs4sgcurv`` optimize on P100 must therefore never rebuild a
dropped lane's scalar occupancy failure (``scalar_reject``) nor build a
``SimulationResult`` for it.
"""

from repro.dsl import parse
from repro.gpu import pricing
from repro.gpu.device import get_device
from repro.ir import build_ir
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.suite import BENCHMARKS
from repro.tuning.evaluator import PlanEvaluator


def test_dropped_lanes_are_never_materialized(monkeypatch):
    arrays_seen = []  # keeps every pass's arrays alive, so ids stay unique
    dropped = set()
    infeasible_dropped = 0
    built, rejected = [], []

    real_price_spill_free = pricing.FamilyStructure.price_spill_free

    def price_spill_free(self, plans, levels, device=pricing.P100):
        nonlocal infeasible_dropped
        demands, positions, lanes = real_price_spill_free(
            self, plans, levels, device
        )
        for lane, position in zip(lanes, positions.tolist()):
            if position < 0:
                arrays_seen.append(lane._lanes)
                dropped.add((id(lane._lanes), lane._index))
                infeasible_dropped += not lane.feasible
        return demands, positions, lanes

    real_result = pricing._LaneArrays.result
    real_reject = pricing._LaneArrays.scalar_reject

    def result(self, i):
        built.append((id(self), i))
        return real_result(self, i)

    def scalar_reject(self, i):
        rejected.append((id(self), i))
        return real_reject(self, i)

    monkeypatch.setattr(
        pricing.FamilyStructure, "price_spill_free", price_spill_free
    )
    monkeypatch.setattr(pricing._LaneArrays, "result", result)
    monkeypatch.setattr(pricing._LaneArrays, "scalar_reject", scalar_reject)

    device = get_device("P100")
    ir = build_ir(parse(BENCHMARKS["rhs4sgcurv"].dsl()))
    engine = PlanEvaluator(device=device)
    engine.search_log = SearchLog(device=device)
    outcome = optimize(ir, device=device, evaluator=engine)

    assert outcome.tflops > 0
    assert dropped and infeasible_dropped and built and rejected
    assert not dropped.intersection(built)
    assert not dropped.intersection(rejected)
    # Each lane is built at most once, however often it is read.
    assert len(set(built)) == len(built)
    assert len(set(rejected)) == len(rejected)
