"""Stage 2 is one knob grid, and it holds the candidates of the plan list
it replaced.

``HierarchicalTuner._stage2`` emits each survivor's variants as grid
lanes, keeps a lane only when its family key (as the ints structural
key and knob number) is new, resolves the grid in one batch and picks
the winner from the time column.  The reference below is the plan-list
generator it replaced: every variant built as a plan, deduplicated by
``plan_family_key`` against stage 1 and the earlier variants, each one
measured, the first strictly faster one kept.  On every Table I kernel
the grid's lanes must be those candidates, in order, and the winner the
same.  Tier-1 runs P100 and TOY; the CI parity fuzz step
(``--hypothesis-profile=fuzz``) runs every registered profile.
"""

import pytest

from repro.codegen.plan import (
    PERSPECTIVE_MIXED,
    STREAM_CONCURRENT,
    KernelPlan,
)
from repro.codegen.tiling import plan_family_key
from repro.dsl import parse
from repro.gpu.counters import SimulationResult
from repro.gpu.device import P100, device_names, get_device
from repro.gpu.simulator import PlanInfeasible
from repro.ir import build_ir
from repro.ir.folding import find_fold_groups
from repro.pipeline import optimize
from repro.suite import BENCHMARKS, load_ir
from repro.tuning import HierarchicalTuner, PlanEvaluator
from repro.tuning.evaluator import Measurement
from repro.tuning.hierarchical import with_fold_groups

#: The profiles tier-1 runs; the fuzz profile adds every other one.
TIER1_DEVICES = ("P100", "TOY")


def pytest_generate_tests(metafunc):
    if "device" in metafunc.fixturenames:
        fuzz = metafunc.config.getoption("--hypothesis-profile") == "fuzz"
        names = device_names() if fuzz else TIER1_DEVICES
        metafunc.parametrize("device", list(map(get_device, names)), ids=names)


def reference_variants(tuner, plan):
    yield plan.replace(prefetch=True)
    yield plan.replace(perspective=PERSPECTIVE_MIXED)
    yield plan.replace(prefetch=True, perspective=PERSPECTIVE_MIXED)
    if plan.streaming == "serial":
        for chunks in (2, 4):
            yield plan.replace(
                streaming=STREAM_CONCURRENT, concurrent_chunks=chunks
            )
    if tuner.use_register_opts and plan.uses_streaming:
        if tuner._retimable(plan):
            yield plan.replace(retime=True)
            yield plan.replace(retime=True, prefetch=True)
        folds = ()
        for name in plan.kernel_names:
            folds = folds + find_fold_groups(tuner.ir.kernel(name))
        if folds:
            yield with_fold_groups(plan, folds)


def reference_candidates(tuner, survivors):
    """The plan-list stage 2: each survivor's variants whose family key
    neither a stage-1 lane nor an earlier variant has."""
    seen = set(map(plan_family_key, tuner._stage1_grid.plans()))
    candidates = []
    for survivor in survivors:
        for variant in reference_variants(tuner, survivor.plan):
            family = plan_family_key(variant)
            if family not in seen:
                seen.add(family)
                candidates.append(variant)
    return candidates


def reference_winner(tuner, survivors, candidates):
    """Each candidate measured alone, the first strictly faster wins."""
    engine = PlanEvaluator(device=tuner.device)
    best = survivors[0]
    for plan in candidates:
        found = engine.evaluate_spill_free(tuner.ir, plan)
        if found is not None and found[1].time_s < best.time_s:
            best = Measurement(found[0], found[1].time_s, found[1].tflops)
    return best


@pytest.fixture
def differential(monkeypatch):
    """Check every stage 2 against the plan list; yields the candidate
    plans of each stage 2 checked."""
    checked = []
    real_stage2 = HierarchicalTuner._stage2

    def stage2(tuner, survivors):
        grid = tuner._stage2_grid(survivors)
        candidates = reference_candidates(tuner, survivors)
        assert list(map(plan_family_key, grid.plans())) == list(
            map(plan_family_key, candidates)
        )
        assert list(grid.plans()) == candidates
        best = real_stage2(tuner, survivors)
        expected = reference_winner(tuner, survivors, candidates)
        assert (best.plan, best.time_s, best.tflops) == (
            expected.plan, expected.time_s, expected.tflops
        )
        checked.append(candidates)
        return best

    monkeypatch.setattr(HierarchicalTuner, "_stage2", stage2)
    return checked


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_stage2_lanes_and_winner_match_the_plan_list(differential, name, device):
    try:
        optimize(load_ir(name), device=device)
    except PlanInfeasible:
        pass  # a program too large for the profile ends the job (exit 3)
    assert all(differential)
    if device.name == "P100":
        assert differential


#: mu and la are only ever read multiplied at one subscript: a fold
#: group, which no Table I kernel tunes with.
FOLDABLE = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], B[N,N,N], mu[N,N,N], la[N,N,N];
copyin A, mu, la;
stencil s (B, A, mu, la) {
  B[k][j][i] = mu[k][j][i+1]*la[k][j][i+1] + mu[k+1][j][i]*la[k+1][j][i]
    + A[k][j][i-1] + A[k-1][j][i];
}
s (B, A, mu, la);
copyout B;
"""


@pytest.mark.parametrize("top_k", [1, 4])
def test_retimed_and_folded_variants_match_the_plan_list(
    differential, device, top_k
):
    ir = build_ir(parse(FOLDABLE))
    base = KernelPlan(
        ("s.0",), block=(32, 16), streaming="serial", stream_axis=0,
        placements=(("A", "shmem"), ("mu", "shmem"), ("la", "shmem")),
    )
    tuner = HierarchicalTuner(
        ir, device=device, use_register_opts=True, top_k=top_k
    )
    tuner.tune(base)
    (candidates,) = differential
    assert any(plan.fold_groups for plan in candidates)
    assert any(plan.retime for plan in candidates)


def test_stage2_builds_one_measurement_per_tune(monkeypatch):
    # No search log reads the rows: stage 2 ranks its lanes from the
    # time column and builds a Measurement for the winner alone, and
    # no SimulationResult at all.
    counts = []
    real_stage2 = HierarchicalTuner._stage2
    real_grid = HierarchicalTuner._stage2_grid

    def stage2(tuner, survivors):
        counts.append({"meas": 0, "result": 0, "lanes": 0})
        try:
            return real_stage2(tuner, survivors)
        finally:
            counts[-1]["done"] = True

    def stage2_grid(tuner, survivors):
        grid = real_grid(tuner, survivors)
        counts[-1]["lanes"] = len(grid)
        return grid

    def counting(cls, kind):
        real_init = cls.__init__

        def init(self, *args, **kwargs):
            if counts and "done" not in counts[-1]:
                counts[-1][kind] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    monkeypatch.setattr(HierarchicalTuner, "_stage2", stage2)
    monkeypatch.setattr(HierarchicalTuner, "_stage2_grid", stage2_grid)
    counting(Measurement, "meas")
    counting(SimulationResult, "result")
    engine = PlanEvaluator(device=P100)
    outcome = optimize(load_ir("7pt-smoother"), device=P100, evaluator=engine)
    assert outcome.tflops > 0
    assert len(counts) > 1
    assert all(c["meas"] <= 1 and c["result"] == 0 for c in counts)
    assert any(c["meas"] == 1 for c in counts)
    assert sum(c["lanes"] for c in counts) > 5 * len(counts)
