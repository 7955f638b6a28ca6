"""Lane-model parity on the suite's own plan shapes.

``test_pricing.py`` fuzzes one single-array, single-stage star stencil.
The lane model compiles every model term into ``(term x lane)`` tables,
so the shapes that stress it are the suite's: many arrays read at once
(hypterm, rhs4sgcurv), several stages (time tiling), fused DAGs and
fission pieces.  Here families of 9 or more lanes, drawn from the
stage-1 (block, unroll) and stage-2 (prefetch, perspective, streaming
chunks, register cap) knobs of

* every Table I kernel's pragma seed plans,
* every kernel's pinned P100 winner (``golden_model.json``: hypterm and
  rhs4sgcurv among them, time-tiled and DAG-fused ones too),
* the 7pt-smoother winner re-tiled to 2..5 time steps,
* two fused stencils that read one array with different halos, with
  it in streaming shared memory (two buffer candidates, neither
  covering the other), streaming registers, a whole unstreamed tile
  of shared memory and global memory,

are priced in one pass and checked lane by lane, bit for bit, against
the scalar reference (``reference_model.py``) on every device profile.
Each property also prices one lane alone, as ``simulate`` does, and
requires the very same bits as inside the family: a float accumulator
summed pairwise (``np.sum`` over a contiguous term axis) would round a
one-lane pass of more than 8 terms differently.  CI runs this file
under ``--hypothesis-profile=fuzz``.
"""

import json
from dataclasses import astuple
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.codegen.plan import (
    KernelPlan,
    PERSPECTIVES,
    REGISTER_LEVELS,
    STREAM_CONCURRENT,
)
from repro.codegen.resources import seed_plan_from_pragma
from repro.codegen.tiling import plan_structural_key
from repro.dsl import parse
from repro.gpu.device import DEVICES, get_device
from repro.gpu.pricing import family_structure
from repro.gpu.simulator import PlanInfeasible, simulate
from repro.ir import build_ir
from repro.resilience.checkpoint import plan_from_dict
from repro.suite import BENCHMARK_ORDER, load_ir
from repro.tuning.space import SearchSpace

from .test_golden_model import GOLDEN_PATH, variant_ir
from .test_pricing import assert_lane_parity, scalar_lane


@lru_cache(maxsize=None)
def _winners() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["winners"]


@lru_cache(maxsize=None)
def _variant_ir(name: str, variant: str):
    return variant_ir(name, variant)


#: ``t`` reads ``in`` wider along x than ``s`` does, and off the
#: thread's column on another stream plane: its shared window is wider
#: than ``s``'s, so neither stage's buffer candidate covers the other.
FUSED_IR = build_ir(parse("""
parameter L=64, M=64, N=64;
iterator k, j, i;
double in[L,M,N], mid[L,M,N], out[L,M,N], a;
copyin in, a;
stencil s (B, A, a) {
  B[k][j][i] = a * (A[k][j][i+1] + A[k][j][i-1] + A[k+1][j][i] + A[k-1][j][i]);
}
stencil t (D, C, A) {
  D[k][j][i] = C[k][j+1][i] + C[k][j-1][i] + A[k][j][i+2] + A[k][j][i-2]
    + A[k+2][j][i+2];
}
s (mid, in, a);
t (out, mid, in);
copyout out;
"""))

_FUSED = {
    "shmem": dict(streaming="serial", stream_axis=0,
                  placements=(("in", "shmem"), ("mid", "shmem"))),
    "register": dict(streaming="serial", stream_axis=0,
                     placements=(("in", "register"),)),
    "whole": dict(streaming="none",
                  placements=(("in", "shmem"), ("mid", "shmem"))),
    # ``in`` left in global memory: its plane sets the L2 working set.
    "gmem": dict(streaming="serial", stream_axis=0,
                 placements=(("in", "gmem"), ("mid", "shmem"))),
}


def _case(key: str):
    """``(ir, plan)`` of a case key (see :data:`CASES`)."""
    kind, name, rest = key.split("/")
    if kind == "fused":
        block = (16, 16) if _FUSED[name]["streaming"] != "none" else (4, 8, 8)
        return FUSED_IR, KernelPlan(
            kernel_names=("s.0", "t.0"), block=block, **_FUSED[name]
        )
    if kind == "seed":
        ir = _variant_ir(name, "tuned")
        return ir, seed_plan_from_pragma(ir, ir.kernel(rest))
    winner = _winners()[name]
    ir = _variant_ir(name, winner["variant"])
    if kind == "winner":
        return ir, plan_from_dict(winner["plans"][int(rest)])
    # "tiled/7pt-smoother/T": the winner re-tiled to T time steps.
    return ir, plan_from_dict(winner["plans"][0]).replace(time_tile=int(rest))


CASES = (
    [
        f"seed/{name}/{instance.name}"
        for name in BENCHMARK_ORDER
        for instance in load_ir(name).kernels
    ]
    + [
        f"winner/{name}/{i}"
        for name in BENCHMARK_ORDER
        for i in range(len(_winners()[name]["plans"]))
    ]
    + [f"tiled/7pt-smoother/{t}" for t in range(2, 6)]
    + [f"fused/{name}/0" for name in _FUSED]
)

_MAXREGS = list(REGISTER_LEVELS) + [48, 96]
_STREAM_MODES = [("serial", 1), (STREAM_CONCURRENT, 2), (STREAM_CONCURRENT, 4)]


def _space(ir, plan) -> SearchSpace:
    return SearchSpace(ndim=ir.ndim, streaming=plan.uses_streaming)


def _lane(plan, block, unroll, blocked, maxreg, prefetch, perspective, mode):
    streaming, chunks = mode
    return plan.replace(
        block=block,
        unroll=unroll,
        unroll_blocked=blocked,
        max_registers=maxreg,
        prefetch=prefetch,
        perspective=perspective,
        streaming=streaming if plan.uses_streaming else plan.streaming,
        concurrent_chunks=chunks,
    )


@st.composite
def families(draw):
    """A case, a device and 9..16 of the case's stage-1 and stage-2
    variants (one structural family)."""
    key = draw(st.sampled_from(CASES), label="case")
    ir, plan = _case(key)
    space = _space(ir, plan)
    knobs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(space.block_candidates()),
                st.sampled_from(space.unroll_candidates()),
                st.booleans(),
                st.sampled_from(_MAXREGS),
                st.booleans(),
                st.sampled_from(PERSPECTIVES),
                st.sampled_from(_STREAM_MODES),
            ),
            min_size=9,
            max_size=16,
        ),
        label="lanes",
    )
    plans = [_lane(plan, *lane) for lane in knobs]
    alone = draw(st.integers(0, len(plans) - 1), label="alone")
    return key, ir, plans, alone


def _bits(result) -> tuple:
    """Every field of a result, floats as their exact hex form."""
    values = [
        value
        for part in (result.counters, result.occupancy, result.timing)
        for value in astuple(part)
    ] + [result.time_s, result.tflops]
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _check_family(ir, plans, alone, device):
    assert len({plan_structural_key(p) for p in plans}) == 1
    lanes = family_structure(ir, plans[0]).price(plans, device)
    assert len(lanes) == len(plans) >= 9
    for plan, lane in zip(plans, lanes):
        assert_lane_parity(ir, plan, lane, device=device)
        if lane.result is not None:
            want = scalar_lane(ir, plan, device)["result"]
            assert _bits(lane.result) == _bits(want), plan.describe()
    # The same lane priced alone, as ``simulate`` prices one plan.
    plan, lane = plans[alone], lanes[alone]
    try:
        single = simulate(ir, plan, device)
    except PlanInfeasible as exc:
        assert lane.result is None
        assert str(exc) == lane.occ_message
    else:
        assert lane.result is not None
        assert _bits(single) == _bits(lane.result), plan.describe()


@settings(deadline=None)
@given(families(), st.sampled_from(sorted(DEVICES)))
def test_suite_families_price_like_the_reference(family, name):
    _key, ir, plans, alone = family
    _check_family(ir, plans, alone, get_device(name))


#: one fixed family per shape, on every device profile
_FIXED = [
    "winner/hypterm/0",
    "winner/rhs4sgcurv/1",
    "winner/diffterm/0",
    "winner/denoise/0",
    "tiled/7pt-smoother/5",
    "seed/rhs4sgcurv/rhs4sgcurv.0",
    "fused/shmem/0",
    "fused/register/0",
    "fused/whole/0",
    "fused/gmem/0",
]


@pytest.mark.parametrize("name", sorted(DEVICES))
@pytest.mark.parametrize("key", _FIXED)
def test_fixed_families_on_every_device(key, name):
    ir, plan = _case(key)
    space = _space(ir, plan)
    blocks = space.block_candidates()
    unrolls = space.unroll_candidates()
    plans = [
        _lane(
            plan,
            blocks[(5 * i) % len(blocks)],
            unrolls[(3 * i) % len(unrolls)],
            i % 3 != 0,
            _MAXREGS[i % len(_MAXREGS)],
            i % 2 == 1,
            PERSPECTIVES[i % len(PERSPECTIVES)],
            _STREAM_MODES[i % len(_STREAM_MODES)],
        )
        for i in range(12)
    ]
    _check_family(ir, plans, 7, get_device(name))


@pytest.mark.parametrize("name", ["P100", "V100"])
def test_first_stage_plane_sets_the_working_set(name):
    # ``in`` left in global memory buffers no byte, so its candidates
    # tie at every lane, and the first stage's (the wider) plane must
    # win: it is the L2 working set, which binds on the stage-1 lanes
    # whose working set passes the L2.
    ir, plan = _case("fused/gmem/0")
    space = _space(ir, plan)
    plans = [
        plan.replace(block=block, unroll=unroll)
        for block in space.block_candidates()
        for unroll in space.unroll_candidates()
    ]
    _check_family(ir, plans, 0, get_device(name))


def test_cases_cover_the_shapes():
    """The case list holds a multi-array, a time-tiled and a DAG-fused
    plan, and every Table I kernel's seeds."""
    shapes = {key: _case(key) for key in CASES}
    assert {key.split("/")[1] for key in shapes} >= set(BENCHMARK_ORDER)
    assert any(
        len(family_structure(ir, plan).stages) >= 2
        for ir, plan in shapes.values()
    )
    tiles = {plan.time_tile for _, plan in shapes.values()}
    assert {2, 3, 4, 5} <= tiles
    assert any(plan.kernel_names == ("maxfuse.0",) for _, plan in shapes.values())
    assert max(len(ir.arrays) for ir, _ in shapes.values()) >= 8
