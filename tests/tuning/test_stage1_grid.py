"""Stage 1 is one knob grid: objects exist only for lanes that are read.

``HierarchicalTuner._stage1`` sweeps a
:class:`~repro.tuning.space.KnobGrid` (``stage1_grid``), the evaluator
resolves it from its knob columns, and the tuner ranks the lanes from
their times.  A :class:`KernelPlan`, :class:`SimulationResult` or
:class:`Measurement` is built in stage 1 only for what it keeps (the
top-k survivors) and for each structural family's prototype, however
many lanes it priced.
"""

import pytest

from repro.codegen.plan import KernelPlan
from repro.codegen.tiling import (
    plan_family_key,
    plan_knob_number,
    plan_structural_key,
)
from repro.gpu.counters import SimulationResult
from repro.gpu.device import P100, V100
from repro.suite import load_ir
from repro.pipeline import optimize
from repro.tuning import HierarchicalTuner, PlanEvaluator, plan_fingerprint
from repro.tuning import hierarchical
from repro.tuning.evaluator import Measurement
from repro.tuning.space import SearchSpace, stage1_grid
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
    real_grid = hierarchical.stage1_grid

    def stage1(tuner, base):
        census.stages.append(
            [0, 0, tuner.top_k, dict.fromkeys(("plan", "result", "meas"), 0)]
        )
        census.active = True
        try:
            return real_stage1(tuner, base)
        finally:
            census.active = False

    def grid_of(base, space, retime_twins=False):
        grid = real_grid(base, space, retime_twins=retime_twins)
        census.stages[-1][0] = len(grid)
        census.stages[-1][1] = len(
            {plan_structural_key(shape) for shape in grid.shapes}
        )
        return grid

    monkeypatch.setattr(HierarchicalTuner, "_stage1", stage1)
    monkeypatch.setattr(hierarchical, "stage1_grid", grid_of)
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
    assert grid.knob == list(map(plan_knob_number, plans))
    for plan in plans[:40]:
        assert is_lane(grid, plan)
        assert is_lane(grid, plan.replace(max_registers=64))
        # Stage-2 variants share a lane's structural family but are
        # not lanes: stage 2 must still measure them.
        assert not is_lane(grid, plan.replace(prefetch=True))
        assert not is_lane(grid, plan.replace(perspective="mixed"))
        for chunks in (2, 4):
            assert not is_lane(
                grid,
                plan.replace(streaming="concurrent", concurrent_chunks=chunks),
            )
    for family in grid.families():
        proto, members = family
        for i in members:
            assert plan_family_key(plans[i])[0] == plan_family_key(proto)[0]


def is_lane(grid, plan):
    """Whether ``plan`` is a lane of ``grid``, register cap aside: the
    ints of its family key are a lane's (``KnobGrid.family_knobs``)."""
    knobs = grid.family_knobs().get(plan_structural_key(plan), ())
    return plan_knob_number(plan) in knobs


@pytest.mark.parametrize("twins", [False, True])
@pytest.mark.parametrize("retimed", [False, True])
def test_family_knobs_answer_like_the_lane_set(twins, retimed):
    # family_knobs() holds each lane's family key as ints; membership
    # must agree with the set of the grid's own lanes.
    base = PROTOS["serial-shm"].replace(retime=retimed)
    space = SearchSpace(ndim=3, streaming=True, device=P100)
    grid = stage1_grid(base, space, retime_twins=twins)
    lanes = {(p.block, p.unroll, p.retime) for p in grid.plans()}
    probes = [
        base.replace(block=block, unroll=unroll, retime=retime)
        for block in space.block_candidates()[::7] + ((3, 5), (512, 2))
        for unroll in space.unroll_candidates()[::3] + ((1, 1, 3), (1,))
        for retime in (False, True)
    ]
    assert any((p.block, p.unroll, p.retime) in lanes for p in probes)
    for plan in probes:
        assert is_lane(grid, plan) == (
            (plan.block, plan.unroll, plan.retime) in lanes
        ), plan.describe()


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


@pytest.mark.parametrize("top_k", [1, 3])
def test_survivors_are_the_fastest_lanes_in_lane_order(top_k):
    # ``_stage1`` ranks the grid from the batch's time column; the
    # plan-list path prices the same lanes one measurement at a time.
    base = PROTOS["serial-shm"]
    tuner = HierarchicalTuner(IR, device=V100, top_k=top_k)
    survivors = tuner._stage1(base)
    grid = tuner._stage1_grid
    found = PlanEvaluator(device=V100).evaluate_spill_free_batch(
        IR, list(grid.plans())
    )
    feasible = [i for i, hit in enumerate(found) if hit is not None]
    ranked = sorted(feasible, key=lambda i: (found[i][1].time_s, i))
    assert len(survivors) == top_k
    assert [(m.plan, m.time_s) for m in survivors] == [
        (found[i][0], found[i][1].time_s) for i in ranked[:top_k]
    ]


@pytest.mark.parametrize(
    "device, register_opts, stage1, evaluations, winner, time_hex",
    [
        (P100, False, 270, 280, "8ddcf155236dc064", "0x1.6f458df477f38p-12"),
        (P100, True, 297, 307, "8ddcf155236dc064", "0x1.6f458df477f38p-12"),
        (V100, False, 270, 280, "22e8c6c73b6af2c1", "0x1.160b7d6affb6dp-12"),
        (V100, True, 297, 311, "22e8c6c73b6af2c1", "0x1.160b7d6affb6dp-12"),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_sweep_keeps_sizes_and_winner(
    device, register_opts, stage1, evaluations, winner, time_hex
):
    # Pinned from the sweep before stage 1 ranked straight from the time
    # column (it then also mined each lane's seeds).
    result = HierarchicalTuner(
        IR, device=device, top_k=2, use_register_opts=register_opts
    ).tune(PROTOS["serial-shm"])
    assert result.stage1_evaluations == stage1
    assert result.evaluations == evaluations
    assert plan_fingerprint(result.best_plan) == winner
    assert result.best.time_s.hex() == time_hex
