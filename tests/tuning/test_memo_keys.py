"""The engine memo: one table per structural family, one int per lane.

A lane's memo key is its knob number (block, unroll and the
streaming/prefetch/perspective mode, numbered once per process) and its
register cap, under its family's (IR, device, structural key).  A plan
keeps its knob number pinned across ``replace`` calls that change
nothing the number encodes.  A stage-1 grid lane and the same plan
submitted in a list share one memo entry.
"""

import pytest

from repro.codegen.plan import MAX_REGISTERS
from repro.codegen.tiling import plan_family_key, plan_knob_number
from repro.gpu.device import V100
from repro.tuning import PlanEvaluator
from repro.tuning.space import SearchSpace, stage1_grid
from tests.gpu.test_pricing import IR, PROTOS

#: a value per field the knob number encodes, unlike the prototype's
KNOB_CHANGES = {
    "block": (8, 8, 4),
    "unroll": (1, 1, 2),
    "streaming": "concurrent",
    "concurrent_chunks": 2,
    "unroll_blocked": False,
    "prefetch": True,
    "perspective": "input",
}


@pytest.mark.parametrize("field", sorted(KNOB_CHANGES))
def test_a_knob_change_renumbers_the_plan(field):
    base = PROTOS["serial-shm"]
    number = plan_knob_number(base)
    changed = base.replace(**{field: KNOB_CHANGES[field]})
    assert plan_knob_number(changed) != number
    assert plan_family_key(changed) != plan_family_key(base)


def test_a_register_change_keeps_the_number():
    base = PROTOS["serial-shm"]
    number = plan_knob_number(base)
    assert plan_knob_number(base.replace(max_registers=64)) == number
    # The same knobs on a fresh plan object get the same number.
    fresh = base.replace(prefetch=True).replace(prefetch=base.prefetch)
    assert plan_knob_number(fresh) == number


def test_equal_family_keys_share_a_memo_key():
    engine = PlanEvaluator(device=V100)
    base = PROTOS["serial-shm"]
    twin = base.replace(prefetch=True).replace(prefetch=base.prefetch)
    assert engine._key(IR, twin) == engine._key(IR, base)
    assert engine._key(IR, base.replace(max_registers=64)) != engine._key(
        IR, base
    )


def test_grid_lanes_and_listed_plans_share_memo_entries():
    grid = stage1_grid(
        PROTOS["serial-shm"], SearchSpace(ndim=3, streaming=True, device=V100)
    )
    engine = PlanEvaluator(device=V100)
    res = engine.evaluate_spill_free_batch(IR, grid)
    requested = sum(key is not None for key in res.keys)
    before = engine.stats.snapshot()
    listed = engine.evaluate_spill_free_batch(IR, list(grid.plans()))
    delta = engine.stats.since(before)
    assert listed == [res.found(i) for i in range(len(res))]
    assert delta.requests == delta.hits == requested
    assert delta.misses == 0


@pytest.mark.parametrize("levels", [(0,), (32, MAX_REGISTERS + 1)])
def test_register_levels_outside_the_cap_range_are_refused(levels):
    with pytest.raises(ValueError, match="register levels"):
        PlanEvaluator().evaluate_spill_free(
            IR, PROTOS["serial-shm"], levels=levels
        )
