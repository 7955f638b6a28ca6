"""Device-conformance harness.

Every profile in the device registry must satisfy the same model
invariants — the registry is only useful if adding a device cannot
silently produce nonsense.  The ``device`` fixture (``conftest.py``)
parametrizes each test over *all* registered profiles, so a new
``register_device()`` call is automatically covered:

* occupancy is monotone in each resource axis (bigger blocks, more
  registers or more shared memory never *increase* residency);
* the register-escalation ladder is ordered: raising ``maxrregcount``
  never increases spill traffic;
* the lane model agrees bitwise with the scalar reference model
  (``reference_model.py``) on every device;
* infeasible configurations classify onto the same stable RL2xx lint
  codes everywhere;
* tuning winners per device match the committed golden snapshot
  (``golden_winners.json``) — the cross-device regression anchor;
* evaluator memo entries are device-keyed: the same plan priced on two
  profiles never shares a cache entry.
"""

import json
import os
import pickle

import pytest

from repro.codegen.plan import REGISTER_LEVELS
from repro.gpu.device import DEVICES, P100, V100, device_names, get_device
from repro.gpu.occupancy import occupancy
from repro.gpu.pricing import family_structure
from repro.gpu.simulator import PlanInfeasible, plan_occupancy, simulate
from repro.lint.rules_plan import classify_occupancy_failure
from repro.resilience.errors import InfeasiblePlanError
from repro.tuning import PlanEvaluator, tune_kernel
from repro.tuning.evaluator import plan_fingerprint

from .test_pricing import IR, PROTOS, assert_lane_parity

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_winners.json")


def _doubling(lo, hi):
    out = []
    value = lo
    while value <= hi:
        out.append(value)
        value *= 2
    return out


class TestOccupancyMonotonicity:
    def test_blocks_per_sm_non_increasing_in_block_size(self, device):
        previous = None
        for threads in _doubling(device.warp_size,
                                 device.max_threads_per_block):
            occ = occupancy(device, threads, 32, 0)
            assert occ.blocks_per_sm >= 1
            assert occ.warp_size == device.warp_size
            assert occ.active_threads == occ.active_warps * device.warp_size
            if previous is not None:
                assert occ.blocks_per_sm <= previous
            previous = occ.blocks_per_sm

    def test_occupancy_non_increasing_in_registers(self, device):
        threads = min(256, device.max_threads_per_block)
        previous = None
        for regs in _doubling(16, device.max_registers_per_thread):
            try:
                occ = occupancy(device, threads, regs, 0)
            except InfeasiblePlanError:
                # One block alone outgrew the SM: the monotone floor.
                # Every larger footprint must stay infeasible too.
                with pytest.raises(InfeasiblePlanError):
                    occupancy(device, threads,
                              device.max_registers_per_thread, 0)
                break
            if previous is not None:
                assert occ.occupancy <= previous
            previous = occ.occupancy

    def test_occupancy_non_increasing_in_shared_memory(self, device):
        threads = min(256, device.max_threads_per_block)
        previous = None
        for shmem in _doubling(1024, device.shared_mem_per_block):
            try:
                occ = occupancy(device, threads, 64, shmem)
            except InfeasiblePlanError:
                with pytest.raises(InfeasiblePlanError):
                    occupancy(device, threads, 64,
                              device.shared_mem_per_block)
                break
            if previous is not None:
                assert occ.occupancy <= previous
            previous = occ.occupancy


class TestSpillRungOrdering:
    def test_spill_bytes_non_increasing_along_ladder(self, device):
        # An unrolled plan with register demand above the lowest rung:
        # escalating the cap must monotonically shed spill traffic, and
        # the top rung must be spill-free iff demand fits the device.
        plan = PROTOS["none-gmem"].replace(unroll=(1, 2, 2))
        previous = None
        for cap in REGISTER_LEVELS:
            result = simulate(IR, plan.replace(max_registers=cap), device)
            spill = result.counters.spill_bytes
            demand = result.counters.regs_demand
            assert demand > REGISTER_LEVELS[0], "ladder test needs demand"
            if previous is not None:
                assert spill <= previous
            previous = spill
        if demand <= REGISTER_LEVELS[-1]:
            assert previous == 0


class TestPricingParityPerDevice:
    def test_family_lanes_match_scalar(self, device):
        proto = PROTOS["serial-shm"]
        plans = [
            proto.replace(block=block, unroll=unroll, max_registers=cap)
            for block in ((8, 8), (16, 16), (32, 32), (64, 32))
            for unroll in ((), (2,))
            for cap in (32, 255)
        ]
        lanes = family_structure(IR, proto).price(plans, device)
        assert len(lanes) == len(plans)
        for plan, lane in zip(plans, lanes):
            assert_lane_parity(IR, plan, lane, device=device)


class TestRejectionCodeStability:
    def test_resource_violations_classify_identically(self, device):
        cases = [
            # (threads, regs, shmem, expected RL code)
            (device.max_threads_per_block * 2, 32, 0, "RL202"),
            (device.warp_size, 32, device.shared_mem_per_block + 1, "RL201"),
            (device.warp_size, device.max_registers_per_thread + 1, 0,
             "RL203"),
        ]
        for threads, regs, shmem, expected in cases:
            with pytest.raises(InfeasiblePlanError) as info:
                occupancy(device, threads, regs, shmem)
            assert classify_occupancy_failure(info.value) == expected
            assert info.value.context.get("device") == device.name

    def test_oversized_block_rejects_through_simulator(self, device):
        # 2048 threads exceeds every registered profile's block limit;
        # the screen must reject with the launch-geometry code RL202.
        plan = PROTOS["serial-shm"].replace(block=(64, 32))
        with pytest.raises(PlanInfeasible) as info:
            plan_occupancy(IR, plan, device)
        assert classify_occupancy_failure(info.value.__cause__) == "RL202"


class TestGoldenWinners:
    """Per-device tuning winners, pinned against a committed snapshot.

    The snapshot is the cross-device regression anchor: a model change
    that shifts any device's winner (or its exact time/TFLOPS) must
    regenerate ``golden_winners.json`` deliberately.  Regenerate with::

        PYTHONPATH=src python tests/gpu/regen_golden_winners.py
    """

    @staticmethod
    def winner_entry(device):
        result = tune_kernel(
            IR, PROTOS["serial-shm"], device=device, top_k=2
        )
        best = result.best
        return {
            "fingerprint": plan_fingerprint(best.plan),
            "block": list(best.plan.block),
            "unroll": list(best.plan.unroll),
            "max_registers": best.plan.max_registers,
            "time_s": best.time_s,
            "tflops": best.tflops,
            "evaluations": result.evaluations,
        }

    def test_winner_matches_snapshot(self, device):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert device.name in golden, (
            f"no golden winner for {device.name}; regenerate the snapshot"
        )
        assert self.winner_entry(device) == golden[device.name]

    def test_snapshot_covers_exactly_the_registry(self):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert set(golden) == set(device_names())


class TestEvaluatorDeviceIsolation:
    def test_memo_entries_never_shared_across_devices(self):
        # Same IR, same plan, two devices, one *shared* cache dict: the
        # content-addressed keys must differ, so each engine prices the
        # plan itself and neither reads the other's entry.
        plan = PROTOS["serial-shm"]
        first = PlanEvaluator(device=P100)
        second = PlanEvaluator(device=V100)
        second._cache = first._cache
        assert first._key(IR, plan) != second._key(IR, plan)
        a = first.evaluate(IR, plan)
        before = len(first._cache)
        b = second.evaluate(IR, plan)
        assert len(first._cache) == before + 1
        assert a.time_s != b.time_s  # different silicon, different price

    def test_all_profile_keys_distinct(self):
        plan = PROTOS["serial-shm"]
        keys = {
            PlanEvaluator(device=get_device(name))._key(IR, plan)
            for name in DEVICES
        }
        assert len(keys) == len(DEVICES)

    def test_pinned_hash_keeps_value_semantics(self):
        # The hash a spec pins on first use is the field-tuple hash,
        # and pinning it changes neither equality nor later copies.
        for name in DEVICES:
            spec = get_device(name)
            pinned, fresh = spec.replace(), spec.replace()
            fields = tuple(
                getattr(spec, field) for field in spec.__dataclass_fields__
            )
            assert hash(pinned) == hash(fields) == hash(fresh)
            assert pinned == fresh == spec
            assert pinned.replace() == pinned
            assert pinned.replace(sms=spec.sms + 1) != pinned
            assert repr(pinned) == repr(spec)
            restored = pickle.loads(pickle.dumps(pinned))
            assert restored == pinned and hash(restored) == hash(pinned)
