"""Lane-model parity with the scalar reference model.

The lane model (``repro.gpu.pricing``) is the only performance model in
``src``; ``tests/gpu/reference_model.py`` keeps the model's scalar form
as its oracle.  For every lane, ``FamilyStructure.price`` must return
either a
:class:`SimulationResult` equal field-for-field to the reference
``simulate()``, or the exact occupancy rejection (message, context,
RL2xx lint code) that ``plan_occupancy`` raises.  The Hypothesis suite
sweeps the grid knobs (block, unroll, unroll_blocked, max_registers)
over several structural prototypes, and draws the stage-2 knobs —
prefetch, perspective, serial or concurrent streaming and the chunk
count — per lane inside one family; it checks every lane against a
fresh scalar evaluation.  CI also runs it under
``--hypothesis-profile=fuzz``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.codegen.plan import (
    KernelPlan,
    PERSPECTIVE_INPUT,
    PERSPECTIVE_MIXED,
    PERSPECTIVES,
    REGISTER_LEVELS,
    STREAM_CONCURRENT,
)
from repro.codegen.tiling import plan_structural_key
from repro.dsl import parse
from repro.gpu import P100
from repro.gpu.device import DEVICES, device_names, get_device
from repro.gpu.pricing import family_structure, priced_lane_count
from repro.gpu.registers import register_demand
from repro.gpu.simulator import PlanInfeasible, plan_occupancy
from repro.ir import build_ir
from repro.lint.rules_plan import classify_occupancy_failure
from repro.resilience.errors import UsageError

from .reference_model import simulate as reference_simulate


def _star_ir(size=192):
    return build_ir(parse(f"""
    parameter L={size}, M={size}, N={size};
    iterator k, j, i;
    double in[L,M,N], out[L,M,N], a;
    copyin in, a;
    stencil s (B, A, a) {{
      B[k][j][i] = a * (A[k][j][i+1] + A[k][j][i-1] + A[k+1][j][i]
        + A[k-1][j][i] + A[k][j+1][i] + A[k][j-1][i]);
    }}
    s (out, in, a);
    copyout out;
    """))


IR = _star_ir()

#: Structural prototypes: every branch the lane model resolves
#: at :class:`FamilyStructure` build time gets at least one family.
PROTOS = {
    "serial-shm": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming="serial",
        stream_axis=0, placements=(("in", "shmem"),),
    ),
    "serial-prefetch": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming="serial",
        stream_axis=0, placements=(("in", "shmem"),), prefetch=True,
    ),
    "concurrent": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming=STREAM_CONCURRENT,
        stream_axis=0, concurrent_chunks=4, placements=(("in", "shmem"),),
    ),
    "none-gmem": KernelPlan(
        kernel_names=("s.0",), block=(4, 8, 8), streaming="none",
    ),
    "input-persp": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming="serial",
        stream_axis=0, placements=(("in", "shmem"),),
        perspective=PERSPECTIVE_INPUT,
    ),
    "mixed-persp": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming="serial",
        stream_axis=0, placements=(("in", "shmem"),),
        perspective=PERSPECTIVE_MIXED,
    ),
}

#: Tile menus per block rank.  Oversized entries ((64, 32) is 2048
#: threads; (32, 32) with unroll can blow the shared-memory budget) are
#: deliberate: rejection lanes must classify identically too.
_BLOCKS_2D = [(8, 8), (16, 8), (16, 16), (32, 8), (32, 16), (32, 32), (64, 32)]
_BLOCKS_3D = [(2, 8, 8), (4, 8, 8), (4, 16, 16), (8, 8, 16), (16, 16, 8)]
_UNROLLS = [(), (1,), (2,), (4,), (1, 2), (2, 2), (1, 1, 2)]
_MAXREGS = list(REGISTER_LEVELS) + [48, 96, 200]


def price(ir, plans, device=P100):
    """One lane-model pass over ``plans`` (one structural family)."""
    return family_structure(ir, plans[0]).price(plans, device)


def scalar_lane(ir, plan, device=P100):
    """The scalar reference: demand + occupancy screen + reference
    ``simulate``."""
    demand = register_demand(ir, plan)
    try:
        plan_occupancy(ir, plan, device)
    except PlanInfeasible as exc:
        cause = exc.__cause__
        return {
            "demand": demand,
            "result": None,
            "message": str(exc),
            "context": dict(getattr(cause, "context", None) or {}),
            "code": classify_occupancy_failure(cause),
        }
    return {"demand": demand, "result": reference_simulate(ir, plan, device)}


def assert_lane_parity(ir, plan, lane, device=P100):
    want = scalar_lane(ir, plan, device)
    assert lane.demand == want["demand"], plan.describe()
    if want["result"] is None:
        assert lane.result is None, (
            f"{plan.describe()}: scalar infeasible, lane feasible"
        )
        assert lane.occ_message == want["message"], plan.describe()
        assert lane.occ_context == want["context"], plan.describe()
        assert lane.occ_code == want["code"], plan.describe()
        assert lane.occ_code is not None
        assert lane.occ_code.startswith("RL2"), lane.occ_code
    else:
        assert lane.result is not None, (
            f"{plan.describe()}: scalar feasible, lane rejected: "
            f"{lane.occ_message}"
        )
        got, ref = lane.result, want["result"]
        assert got.counters == ref.counters, plan.describe()
        assert got.occupancy == ref.occupancy, plan.describe()
        assert got.timing == ref.timing, plan.describe()
        assert got.time_s == ref.time_s and got.tflops == ref.tflops


@st.composite
def family_grids(draw):
    proto_name = draw(st.sampled_from(sorted(PROTOS)))
    proto = PROTOS[proto_name]
    blocks = _BLOCKS_3D if len(proto.block) == 3 else _BLOCKS_2D
    lanes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(blocks),
                st.sampled_from(_UNROLLS),
                st.booleans(),
                st.sampled_from(_MAXREGS),
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return proto, lanes


#: (streaming mode, concurrent_chunks) of a streaming lane; a
#: non-streaming lane keeps its mode and takes only the chunk count,
#: which it ignores.  3 does not divide the 192-plane sweep.
_STREAM_MODES = [
    ("serial", 1), ("serial", 4), (STREAM_CONCURRENT, 1),
    (STREAM_CONCURRENT, 2), (STREAM_CONCURRENT, 3), (STREAM_CONCURRENT, 4),
    (STREAM_CONCURRENT, 8),
]


@st.composite
def mixed_knob_families(draw):
    """One structural family whose lanes also differ in prefetch,
    perspective, streaming mode and chunk count."""
    proto = PROTOS[draw(st.sampled_from(sorted(PROTOS)))]
    blocks = _BLOCKS_3D if len(proto.block) == 3 else _BLOCKS_2D
    lanes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(blocks),
                st.sampled_from(_UNROLLS),
                st.sampled_from(_MAXREGS),
                st.booleans(),
                st.sampled_from(PERSPECTIVES),
                st.sampled_from(_STREAM_MODES),
            ),
            min_size=1,
            max_size=8,
        )
    )
    plans = []
    for block, unroll, maxreg, prefetch, perspective, mode in lanes:
        streaming, chunks = mode
        plans.append(
            proto.replace(
                block=block,
                unroll=unroll,
                max_registers=maxreg,
                prefetch=prefetch,
                perspective=perspective,
                streaming=(
                    streaming if proto.uses_streaming else proto.streaming
                ),
                concurrent_chunks=chunks,
            )
        )
    return plans


class TestBitwiseParity:
    @settings(deadline=None)
    @given(family_grids())
    def test_price_family_matches_scalar_loop(self, family):
        proto, lanes = family
        plans = [
            proto.replace(
                block=block, unroll=unroll, unroll_blocked=blocked,
                max_registers=maxreg,
            )
            for block, unroll, blocked, maxreg in lanes
        ]
        lanes = price(IR, plans)
        assert len(lanes) == len(plans)
        for plan, lane in zip(plans, lanes):
            assert_lane_parity(IR, plan, lane)

    @settings(deadline=None)
    @given(mixed_knob_families(), st.sampled_from(sorted(DEVICES)))
    def test_mixed_stage2_knobs_match_scalar_per_lane(self, plans, name):
        # Prefetch, perspective and the chunk count are lane columns: a
        # family mixing them is one pass, and each lane still prices
        # exactly as its own plan, occupancy refusals included.
        device = get_device(name)
        assert len({plan_structural_key(p) for p in plans}) == 1
        lanes = price(IR, plans, device)
        assert len(lanes) == len(plans)
        for plan, lane in zip(plans, lanes):
            assert_lane_parity(IR, plan, lane, device=device)

    def test_grid_sweeps_stage2_knobs(self):
        proto = PROTOS["concurrent"]
        plans = [
            proto.replace(
                prefetch=f, perspective=v, concurrent_chunks=c, block=b
            )
            for f in (False, True)
            for v in PERSPECTIVES
            for c in (1, 2, 4)
            for b in ((16, 16), (64, 32))
        ]
        assert len({plan_structural_key(p) for p in plans}) == 1
        lanes = price(IR, plans)
        assert len(lanes) == 36
        assert not all(lane.feasible for lane in lanes)
        for plan, lane in zip(plans, lanes):
            assert_lane_parity(IR, plan, lane)

    def test_structure_holds_no_lane_knob(self):
        # One structure serves every prefetch/perspective/chunk variant,
        # so none of those values may live on it.
        structure = family_structure(IR, PROTOS["concurrent"])
        assert structure is family_structure(IR, PROTOS["serial-prefetch"])
        assert structure is family_structure(IR, PROTOS["mixed-persp"])
        for name in (
            "prefetch", "perspective", "streaming_mode", "concurrent_chunks",
            "sweep_length", "prefetch_regs",
        ):
            assert not hasattr(structure, name), name

    def test_term_tables_are_read_only(self):
        # Structures of every job and device share one set of term
        # tables, so a pass must not be able to write into them.
        import numpy as np

        for proto in PROTOS.values():
            structure = family_structure(IR, proto)
            tables = [
                value for value in vars(structure).values()
                if isinstance(value, np.ndarray)
            ]
            assert tables
            for table in tables:
                assert not table.flags.writeable

    def test_rejection_lane_classifies_like_lint(self):
        # 2048 threads per block: the occupancy screen must reject this
        # lane with the same RL2xx code the scalar reference produces.
        proto = PROTOS["serial-shm"]
        (lane,) = price(IR, [proto.replace(block=(64, 32))])
        assert not lane.feasible
        assert_lane_parity(IR, proto.replace(block=(64, 32)), lane)


def _bound_source(iterators, reach, fused_reach=None):
    """A star stencil over ``iterators`` axes of 2**36 points reading
    ``in`` at ``reach`` along every axis; with ``fused_reach``, a second
    stencil reads its output at that reach."""
    from repro.dsl.validate import MAX_EXTENT

    n = round(MAX_EXTENT ** (1 / iterators))
    assert n**iterators == MAX_EXTENT
    its = "lkji"[-iterators:]

    def star(array, c):
        reads = [
            array + "".join(
                f"[{x}{sign}{c}]" if x == it else f"[{x}]" for x in its
            )
            for it in its
            for sign in "+-"
        ]
        return " + ".join(reads)

    at = "".join(f"[{it}]" for it in its)
    dims = ",".join("N" * iterators)
    second, call, out = "", "", "mid"
    if fused_reach is not None:
        second = f"stencil t (D, C) {{ D{at} = {star('C', fused_reach)}; }}"
        call, out = "t (out, mid);", "out"
    return f"""
    parameter N={n};
    iterator {", ".join(its)};
    double in[{dims}], mid[{dims}], out[{dims}], a;
    copyin in, a;
    stencil s (B, A, a) {{ B{at} = a * ({star('A', reach)}); }}
    {second}
    s (mid, in, a);
    {call}
    copyout {out};
    """


class TestSizeBound:
    """At ``validate``'s size bounds no ``int64`` lane quantity wraps;
    a plan that would wrap raises instead of pricing."""

    @staticmethod
    def _ir(iterators, fused_reach=None):
        from repro.dsl.validate import MAX_EXTENT, reach_limit

        reach = reach_limit(MAX_EXTENT, iterators)
        return build_ir(parse(_bound_source(iterators, reach, fused_reach)))

    @pytest.mark.parametrize("name", sorted(DEVICES))
    def test_program_at_the_bound_prices_like_the_reference(self, name):
        # Down to one-point tiles: the largest halo footprint summed
        # over blocks.
        device = get_device(name)
        ir = self._ir(3)
        plans = list(PROTOS.values()) + [
            KernelPlan(kernel_names=("s.0",), block=(1, 1, 1), streaming="none"),
            KernelPlan(
                kernel_names=("s.0",), block=(1, 1), streaming="serial",
                stream_axis=0, placements=(("in", "shmem"),),
            ),
        ]
        self._assert_parity(ir, plans, device)

    def test_four_iterators_at_the_bound_price_like_the_reference(self):
        # The reach limit shrinks with each iterator: at the constant
        # 32 of three, one-point tiles here wrapped dram_read_bytes.
        ir = self._ir(4)
        plans = [
            KernelPlan(kernel_names=("s.0",), block=block, streaming="none")
            for block in [(1, 1, 1), (16, 16), (4, 8, 8)]
        ]
        self._assert_parity(ir, plans, P100)

    @staticmethod
    def _assert_parity(ir, plans, device):
        for plan in plans:
            (lane,) = price(ir, [plan], device)
            assert_lane_parity(ir, plan, lane, device=device)
            if lane.result is not None:
                counters = lane.result.counters
                assert 0 < counters.useful_flops <= counters.flops

    def test_fused_plan_that_would_wrap_raises(self):
        # Fusing a stencil after the widest valid one widens the first
        # stage's footprint past the int64 range at one-point tiles.
        tiny = KernelPlan(
            kernel_names=("s.0", "t.0"), block=(1, 1, 1), streaming="none"
        )
        with pytest.raises(OverflowError, match="4096x4096x4096 grid"):
            price(self._ir(3, fused_reach=1), [tiny])
        # At reach 14 the fused intermediate needs more shared memory
        # than any device has: a refused lane may wrap, as nothing reads
        # its counts.
        ir = self._ir(3, fused_reach=14)
        (lane,) = price(ir, [tiny])
        assert_lane_parity(ir, tiny, lane)
        assert lane.occ_code == "RL201"


class TestDeviceParity:
    """The bitwise contract holds on *every* registered device profile.

    The lane model reads a dozen device knobs (warp width, transaction
    sector, spill rate, scheduler count, ...); each must be threaded
    identically into the lane arithmetic and the scalar reference,
    on NVIDIA and AMD-like profiles alike.
    """

    @settings(deadline=None)
    @given(family_grids(), st.sampled_from(sorted(DEVICES)))
    def test_price_family_matches_scalar_on_all_devices(self, family, name):
        device = get_device(name)
        proto, lanes = family
        plans = [
            proto.replace(
                block=block, unroll=unroll, unroll_blocked=blocked,
                max_registers=maxreg,
            )
            for block, unroll, blocked, maxreg in lanes
        ]
        lanes = price(IR, plans, device)
        assert len(lanes) == len(plans)
        for plan, lane in zip(plans, lanes):
            assert_lane_parity(IR, plan, lane, device=device)

    @settings(deadline=None)
    @given(st.sampled_from(sorted(DEVICES)), st.data())
    def test_rejection_codes_stable_on_all_devices(self, name, data):
        # Build a footprint that violates exactly one device limit and
        # check the classification is the documented RL2xx code with
        # the device's name in the message — for every profile,
        # including wavefront-64 / LDS ones whose thresholds differ.
        from repro.gpu.occupancy import occupancy
        from repro.resilience.errors import InfeasiblePlanError

        device = get_device(name)
        kind = data.draw(
            st.sampled_from(["threads", "shmem", "registers"]), label="kind"
        )
        threads, regs, shmem = device.warp_size, 32, 0
        if kind == "threads":
            threads = device.max_threads_per_block * data.draw(
                st.integers(min_value=2, max_value=8), label="factor"
            )
            expected = "RL202"
        elif kind == "shmem":
            shmem = device.shared_mem_per_block + data.draw(
                st.integers(min_value=1, max_value=1 << 20), label="extra"
            )
            expected = "RL201"
        else:
            regs = device.max_registers_per_thread + data.draw(
                st.integers(min_value=1, max_value=256), label="extra"
            )
            expected = "RL203"
        with pytest.raises(InfeasiblePlanError) as info:
            occupancy(device, threads, regs, shmem)
        assert classify_occupancy_failure(info.value) == expected
        assert info.value.context.get("device") == device.name
        # The operator-facing message names the offending device.
        assert f"device={device.name}" in info.value.describe()

    def test_registry_names_resolve(self):
        for name in device_names():
            assert get_device(name).name == name
            assert get_device(name.lower()) is get_device(name)


class TestSpillFreeResolution:
    LEVEL_LISTS = [
        list(REGISTER_LEVELS),
        [255],
        [64, 64, 128],        # duplicates
        [128, 32, 255, 64],   # unsorted
        [32],                 # likely nothing fits
    ]

    @pytest.mark.parametrize("levels", LEVEL_LISTS)
    def test_positions_match_scalar_ladder(self, levels):
        proto = PROTOS["serial-shm"]
        structure = family_structure(IR, proto)
        plans = [
            proto.replace(block=b, unroll=u)
            for b in ((8, 8), (16, 16), (32, 16), (32, 32))
            for u in ((), (2,), (1, 2))
        ]
        demands, positions, lanes = structure.price_spill_free(plans, levels)
        assert len(demands) == len(positions) == len(lanes) == len(plans)
        for i, plan in enumerate(plans):
            demand = register_demand(IR, plan)
            assert int(demands[i]) == demand
            level = next((lv for lv in levels if demand <= lv), None)
            want = -1 if level is None else levels.index(level)
            assert int(positions[i]) == want, plan.describe()
            if want >= 0:
                # The lane was priced at the resolved (spill-free) cap,
                # not the prototype's 255.
                resolved = plan.replace(max_registers=levels[want])
                assert_lane_parity(IR, resolved, lanes[i])

    @pytest.mark.parametrize("case", ["all-spill", "all-refused"])
    def test_pass_that_keeps_no_lane_runs_no_model(self, monkeypatch, case):
        # Every lane spills at the only rung, or the certifier refused
        # every lane: the pass prices none and runs no model arithmetic,
        # yet answers demands and rungs, and still opens its span.
        from repro.gpu.pricing import FamilyStructure, first_rungs
        from repro.obs import configure_tracing, get_metrics

        def no_model(*args, **kwargs):
            raise AssertionError("an empty pass ran the model")

        monkeypatch.setattr(FamilyStructure, "_price", no_model)
        proto = PROTOS["serial-shm"]
        structure = family_structure(IR, proto)
        plans = [proto.replace(block=b) for b in ((8, 8), (16, 16), (32, 8))]
        levels, skip = [1], None
        if case == "all-refused":
            levels, skip = list(REGISTER_LEVELS), [True] * len(plans)
        calls = get_metrics().counter("pricing.family_calls").value
        before = priced_lane_count()
        tracer = configure_tracing(True, clear=True)
        try:
            demands, positions, lanes = structure.price_spill_free(
                plans, levels, skip=skip
            )
            spans = [s.name for s in tracer.finished()]
        finally:
            configure_tracing(False, clear=True)
        assert spans.count("price_family") == 1
        assert demands.tolist() == structure.demand(plans).tolist()
        want, _ = first_rungs(demands, levels)
        assert positions.tolist() == want.tolist()
        assert (positions >= 0).all() == (case == "all-refused")
        assert len(lanes) == len(plans)
        assert [lanes[i] for i in range(len(plans))] == [None] * len(plans)
        assert lanes.ok == []
        assert priced_lane_count() == before
        assert get_metrics().counter("pricing.family_calls").value == calls

    def test_lane_counter_advances(self):
        proto = PROTOS["serial-shm"]
        before = priced_lane_count()
        price(IR, [proto, proto.replace(block=(32, 8))])
        assert priced_lane_count() == before + 2


class TestPricedLaneCount:
    """``priced_lane_count()`` is the ``pricing.lanes`` counter."""

    @staticmethod
    def _counter():
        from repro.obs import get_metrics

        return get_metrics().counter("pricing.lanes").value

    def test_one_simulate_adds_one(self):
        from repro.gpu.simulator import simulate

        before = priced_lane_count()
        simulate(IR, PROTOS["serial-shm"])
        assert priced_lane_count() == before + 1 == self._counter()

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_one_family_pass_of_n_lanes_adds_n(self, n):
        proto = PROTOS["serial-shm"]
        plans = [proto.replace(max_registers=32 * (1 + k)) for k in range(n)]
        before = priced_lane_count()
        price(IR, plans)
        assert priced_lane_count() == before + n == self._counter()

    def test_counts_from_the_last_reset(self):
        from repro.obs import configure_metrics

        configure_metrics(reset=True)
        assert priced_lane_count() == 0
        price(IR, [PROTOS["serial-shm"]])
        assert priced_lane_count() == 1 == self._counter()

    def test_empty_family_prices_nothing(self):
        before = priced_lane_count()
        assert family_structure(IR, PROTOS["serial-shm"]).price([]) == []
        assert priced_lane_count() == before == self._counter()


class TestUsageErrors:
    """A plan list is priced with the structure it is handed to, so a
    lane of another structural family must be refused, not priced as if
    it were one of this family."""

    #: the second lane of each list differs from the first in structure
    MIXED = {
        "placement": [
            PROTOS["serial-shm"],
            PROTOS["serial-shm"].replace(placements=(("in", "register"),)),
        ],
        "streaming": [PROTOS["serial-shm"], PROTOS["none-gmem"]],
    }

    def test_mixed_structural_keys_rejected(self):
        plans = self.MIXED["placement"]
        with pytest.raises(UsageError, match="structural key"):
            family_structure(IR, plans[0]).price(plans)

    @pytest.mark.parametrize("mix", sorted(MIXED))
    @pytest.mark.parametrize("entry", ["demand", "price", "price_spill_free"])
    def test_every_plan_list_entry_checks_the_family(self, entry, mix):
        plans = self.MIXED[mix]
        structure = family_structure(IR, plans[0])
        args = {"price_spill_free": (REGISTER_LEVELS,)}.get(entry, ())
        before = priced_lane_count()
        with pytest.raises(UsageError) as info:
            getattr(structure, entry)(plans, *args)
        assert repr(plans[1].describe()) in str(info.value)
        assert priced_lane_count() == before
        # The same list in the other order fails on the other lane.
        with pytest.raises(UsageError):
            getattr(family_structure(IR, plans[1]), entry)(plans, *args)


class TestBackendSmoke:
    def test_vectorized_backend_imports_and_prices(self):
        # Satellite guard for the numpy>=1.23 runtime dependency: the
        # backend must import against the installed numpy and price a
        # minimal family end to end.
        import numpy

        import repro.gpu.pricing as pricing_module

        assert pricing_module.np is numpy
        major, minor = (int(x) for x in numpy.__version__.split(".")[:2])
        assert (major, minor) >= (1, 23)
        (lane,) = price(IR, [PROTOS["serial-shm"]])
        assert lane.feasible and lane.result.time_s > 0
