"""All-spill lanes are never priced; priced lanes build on first read.

The spill-free search resolves each structural family's register
demand and rungs first, and runs occupancy, counters and timing only on
the lanes that have a rung.  A real ``rhs4sgcurv`` optimize on P100
must therefore price no lane that spills at every register rung, and
it builds a lane's ``SimulationResult`` or its scalar occupancy failure
(``scalar_reject``) at most once, and only for a lane that is read.
"""

from repro.dsl import parse
from repro.gpu import pricing
from repro.gpu.device import get_device
from repro.ir import build_ir
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.suite import BENCHMARKS
from repro.tuning.evaluator import PlanEvaluator


def test_all_spill_lanes_are_never_priced(monkeypatch):
    with_rung = all_spill = 0
    built, rejected = [], []

    real_price_spill_free = pricing.FamilyStructure.price_spill_free

    def price_spill_free(self, lanes, levels, device=pricing.P100, skip=None):
        nonlocal with_rung, all_spill
        before = pricing.priced_lane_count()
        demands, positions, priced = real_price_spill_free(
            self, lanes, levels, device, skip
        )
        has_rung = (positions >= 0).tolist()
        with_rung += sum(has_rung)
        all_spill += has_rung.count(False)
        # Only the lanes with a rung (and no fusion refusal) reach the
        # pricing core ...
        wanted = [
            rung and not (skip is not None and skip[i])
            for i, rung in enumerate(has_rung)
        ]
        assert pricing.priced_lane_count() - before == sum(wanted)
        assert len(priced.ok) == sum(wanted)
        # ... and an all-spill lane has no price at all.
        assert len(priced) == len(has_rung)
        for i, want in enumerate(wanted):
            assert (priced[i] is None) is not want
        return demands, positions, priced

    real_result = pricing._LaneArrays.build_result
    real_reject = pricing._LaneArrays.scalar_reject

    def build_result(self, i):
        built.append((id(self), i))
        return real_result(self, i)

    def scalar_reject(self, i):
        rejected.append((id(self), i))
        return real_reject(self, i)

    monkeypatch.setattr(
        pricing.FamilyStructure, "price_spill_free", price_spill_free
    )
    monkeypatch.setattr(pricing._LaneArrays, "build_result", build_result)
    monkeypatch.setattr(pricing._LaneArrays, "scalar_reject", scalar_reject)

    device = get_device("P100")
    ir = build_ir(parse(BENCHMARKS["rhs4sgcurv"].dsl()))
    engine = PlanEvaluator(device=device)
    log = SearchLog(device=device)
    engine.search_log = log
    passes = []  # keeps every pass alive, so ids stay unique
    real_priced = pricing.FamilyStructure._priced

    def priced_pass(self, *args):
        lanes = real_priced(self, *args)
        passes.append(lanes)
        return lanes

    monkeypatch.setattr(pricing.FamilyStructure, "_priced", priced_pass)
    outcome = optimize(ir, device=device, evaluator=engine)

    assert outcome.tflops > 0
    assert with_rung and all_spill
    # Results are built for the lanes the search reads, not for every
    # priced lane: far fewer than the feasible lanes priced.  No search
    # step reads why a screened lane was refused.
    assert built and not rejected
    assert len(built) < engine.stats.vectorized
    # Each lane is built at most once, however often it is read.
    assert len(set(built)) == len(built)
    assert len(set(rejected)) == len(rejected)
    before = len(built), len(rejected)
    for event in log.events():
        dict(event)
    # Rendering every row builds the rest, still once per lane.
    assert len(built) > before[0] and len(rejected) > before[1]
    assert len(set(built)) == len(built)
    assert len(set(rejected)) == len(rejected)
