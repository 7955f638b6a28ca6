"""Stage 1 is one knob grid: objects exist only for lanes that are read.

``HierarchicalTuner._stage1_candidates`` returns a
:class:`~repro.tuning.space.KnobGrid`, the evaluator resolves it from
its knob columns, and the tuner ranks the lanes from their times.  A
:class:`KernelPlan`, :class:`SimulationResult` or :class:`Measurement`
is built in stage 1 only for what it keeps (the top-k survivors) and
for each structural family's prototype, however many lanes it priced.
A warm-started sweep narrows the same grid with a mask, and keeps the
sizes, seeds and winner of the per-plan sweep it replaced.
"""

import hashlib

import pytest

from repro.codegen.plan import KernelPlan
from repro.codegen.tiling import plan_family_key
from repro.gpu.counters import SimulationResult
from repro.gpu.device import P100, V100
from repro.resilience import TuningJournal
from repro.suite import load_ir
from repro.pipeline import optimize
from repro.tuning import (
    HierarchicalTuner,
    PlanEvaluator,
    WarmStartTuner,
    journaled_winners,
    plan_fingerprint,
    tune_kernel,
)
from repro.tuning.evaluator import Measurement
from repro.tuning.space import KnobGrid, SearchSpace, stage1_grid
from tests.gpu.test_pricing import IR, PROTOS


class _Census:
    """Objects of each kind built while a stage 1 runs, per stage 1."""

    def __init__(self):
        self.active = False
        self.stages = []  # (lanes, families, top_k, counts)

    def count(self, kind):
        if self.active:
            self.stages[-1][3][kind] += 1


@pytest.fixture
def census(monkeypatch):
    census = _Census()
    real_stage1 = HierarchicalTuner._stage1
    real_candidates = HierarchicalTuner._stage1_candidates

    def stage1(tuner, base):
        census.stages.append(
            [0, 0, tuner.top_k, dict.fromkeys(("plan", "result", "meas"), 0)]
        )
        census.active = True
        try:
            return real_stage1(tuner, base)
        finally:
            census.active = False

    def candidates(tuner, base, space):
        grid = real_candidates(tuner, base, space)
        census.stages[-1][0] = len(grid)
        census.stages[-1][1] = len(set(grid.retime))
        return grid

    monkeypatch.setattr(HierarchicalTuner, "_stage1", stage1)
    monkeypatch.setattr(HierarchicalTuner, "_stage1_candidates", candidates)
    for cls, kind in (
        (KernelPlan, "plan"),
        (SimulationResult, "result"),
        (Measurement, "meas"),
    ):
        real_init = cls.__init__

        def init(self, *args, __real=real_init, __kind=kind, **kwargs):
            census.count(__kind)
            __real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    real_replace = KernelPlan.replace

    def replace(self, **changes):
        census.count("plan")
        return real_replace(self, **changes)

    monkeypatch.setattr(KernelPlan, "replace", replace)
    return census


@pytest.mark.parametrize(
    "name, iterations", [("7pt-smoother", 12), ("rhs4sgcurv", None)]
)
def test_stage1_builds_objects_only_for_read_lanes(census, name, iterations):
    engine = PlanEvaluator(device=P100)
    outcome = optimize(
        load_ir(name), device=P100, iterations=iterations, evaluator=engine
    )
    assert outcome.tflops > 0
    assert census.stages
    lanes = sum(stage[0] for stage in census.stages)
    built = {"plan": 0, "result": 0, "meas": 0}
    for _, families, top_k, counts in census.stages:
        # Survivors: a plan for the lane and one at its register rung,
        # and a measurement; one prototype plan per family.  Nothing
        # builds a result: ranking reads times from the lane arrays.
        assert counts["meas"] <= top_k
        assert counts["plan"] <= 2 * top_k + families
        assert counts["result"] == 0
        for kind in built:
            built[kind] += counts[kind]
    assert lanes > 10 * (built["plan"] + built["meas"])


def test_grid_lanes_match_the_plans_they_stand_for():
    base = PROTOS["serial-shm"]
    space = SearchSpace(ndim=3, streaming=True, device=P100)
    grid = stage1_grid(base, space, retime_twins=True)
    plans = list(grid.plans())
    # Block-major, unroll order within a block, each unrolled-once
    # variant followed by its retimed twin.
    expected = []
    for block in space.block_candidates():
        for unroll in space.unroll_candidates():
            variant = base.replace(block=block, unroll=unroll)
            expected.append(variant)
            if variant.total_unroll() == 1:
                expected.append(variant.replace(retime=True))
    assert plans == expected
    keep = [i % 3 == 0 for i in range(len(grid))]
    narrowed = grid.select(keep)
    assert isinstance(narrowed, KnobGrid)
    assert list(narrowed.plans()) == [p for p, k in zip(plans, keep) if k]
    for plan in plans[:40]:
        assert grid.contains(plan)
        assert grid.contains(plan.replace(max_registers=64))
        # Stage-2 variants share a lane's structural family but are
        # not lanes: stage 2 must still measure them.
        assert not grid.contains(plan.replace(prefetch=True))
        assert not grid.contains(plan.replace(perspective="mixed"))
        for chunks in (2, 4):
            assert not grid.contains(
                plan.replace(streaming="concurrent", concurrent_chunks=chunks)
            )
    assert not narrowed.contains(plans[1])
    for family in grid.families():
        proto, members = family
        for i in members:
            assert plan_family_key(plans[i])[0] == plan_family_key(proto)[0]


def test_lane_times_are_the_results_times():
    base = PROTOS["serial-shm"]
    space = SearchSpace(ndim=3, streaming=True, device=V100)
    grid = stage1_grid(base, space)
    engine = PlanEvaluator(device=V100)
    res = engine.evaluate_spill_free_batch(IR, grid)
    assert sum(res.ok) > 20
    for i in range(len(res)):
        if res.ok[i]:
            result = res.result(i)
            assert res.time_s(i) == result.time_s
            assert res.tflops(i) == result.tflops
        elif res.keys[i] is not None and res.at[i] is not None:
            # An occupancy refusal: the vectorized rule matches the
            # scalar classification of the rebuilt failure.
            lanes, at = res.src[i], res.at[i]
            assert lanes.code(at) == lanes.rejection(at)[2]
    # The plan list path answers lane for lane the same.
    listed = PlanEvaluator(device=V100).evaluate_spill_free_batch(
        IR, list(grid.plans())
    )
    assert listed == [res.found(i) for i in range(len(res))]


def _seed_digest(seeds):
    rows = [
        (plan_fingerprint(s.plan), s.time_s.hex(), s.tflops.hex())
        for s in seeds
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "register_opts, full, kept, evaluations",
    [(False, 270, 110, 120), (True, 297, 126, 140)],
)
def test_warm_start_keeps_sweep_seeds_and_winner(
    tmp_path, register_opts, full, kept, evaluations
):
    # Pinned from the per-plan stage 1 this grid replaced.
    base = PROTOS["serial-shm"]
    path = str(tmp_path / "p100.jsonl")
    with TuningJournal(path, device=P100.name) as journal:
        tune_kernel(IR, base, device=P100, top_k=2, journal=journal)
    tuner = WarmStartTuner(
        IR,
        seeds=journaled_winners(path, IR),
        device=V100,
        top_k=2,
        use_register_opts=register_opts,
    )
    result = tuner.tune(base)
    assert (tuner.stage1_full, tuner.stage1_kept) == (full, kept)
    assert result.stage1_evaluations == kept
    assert result.evaluations == evaluations
    assert len(result.seeds) == 16
    assert _seed_digest(result.seeds) == "d3f369403714685d"
    assert plan_fingerprint(result.best_plan) == "22e8c6c73b6af2c1"
    assert result.best.time_s.hex() == "0x1.160b7d6affb6dp-12"
