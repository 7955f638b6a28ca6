"""Stage 2 is priced as a few structural families.

Prefetch, the load perspective and the concurrent chunk count are lane
columns of the lane model (``repro.gpu.pricing.LaneKnobs``), so the
stage-2 variants of a stage-1 survivor share its family: one
``FamilyStructure`` and one pricing pass.  The certifier is the one
per-lane exception: its concurrent-chunk race check reads the chunk
count, so a family is certified once per distinct (streaming mode,
chunk count), and only the lanes of a racing count take its RL3xx
refusal.
"""

import pytest

from repro.codegen.plan import KernelPlan
from repro.dsl import parse
from repro.gpu import pricing
from repro.gpu.device import get_device
from repro.gpu.simulator import PlanInfeasible
from repro.ir import build_ir
from repro.lint import certify_plan_transformations
from repro.obs import configure_metrics, get_metrics
from repro.pipeline import optimize
from repro.resilience import EvaluationError
from repro.suite import BENCHMARKS
from repro.tuning import HierarchicalTuner, PlanEvaluator

#: A fused pair whose flow dependence through T has distance -1 along
#: k: streaming it in more than one concurrent chunk races.
RACY = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
copyin A;
stencil produce (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
stencil consume (Y, X) { Y[k][j][i] = X[k+1][j][i] + X[k][j][i-1]; }
produce (T, A);
consume (B, T);
copyout B;
"""

BASE = KernelPlan(
    ("produce.0", "consume.0"),
    block=(32, 16),
    streaming="serial",
    stream_axis=0,
    placements=(("A", "shmem"),),
)


def racy_family():
    """One structural family: serial, concurrent 1, 2 and 4 chunks,
    with prefetch and perspective variants mixed in."""
    return [
        BASE,
        BASE.replace(prefetch=True),
        BASE.replace(streaming="concurrent", concurrent_chunks=2),
        BASE.replace(
            streaming="concurrent", concurrent_chunks=4, perspective="mixed"
        ),
        BASE.replace(streaming="concurrent", concurrent_chunks=1),
        BASE.replace(
            streaming="concurrent", concurrent_chunks=2, prefetch=True
        ),
    ]


def test_stage2_prices_as_few_families(monkeypatch):
    # With prefetch, perspective and chunks in the structural key, one
    # 7pt-smoother optimize on P100 built 48 structures and resolved
    # stage 2 in 42 families.
    builds = []
    stage2_families = []
    in_stage2 = []
    real_init = pricing.FamilyStructure.__init__
    real_stage2 = HierarchicalTuner._stage2
    real_price_lanes = PlanEvaluator._price_lanes

    def init(self, ir, proto):
        builds.append(proto)
        real_init(self, ir, proto)

    def stage2(self, survivors):
        in_stage2.append(True)
        try:
            return real_stage2(self, survivors)
        finally:
            in_stage2.pop()

    def price_lanes(self, ir, family, levels):
        if in_stage2:
            stage2_families.append(family.proto)
        return real_price_lanes(self, ir, family, levels)

    monkeypatch.setattr(pricing.FamilyStructure, "__init__", init)
    monkeypatch.setattr(HierarchicalTuner, "_stage2", stage2)
    monkeypatch.setattr(PlanEvaluator, "_price_lanes", price_lanes)
    ir = build_ir(parse(BENCHMARKS["7pt-smoother"].dsl()))
    outcome = optimize(ir, device=get_device("P100"))
    assert outcome.tflops > 0
    assert stage2_families
    assert len(builds) <= 12
    assert len(stage2_families) <= 12


def _refusal_of(ir, plan):
    (finding,) = certify_plan_transformations(ir, plan)
    return finding.code, finding.witness.describe()


@pytest.mark.parametrize(
    "batch", ["evaluate_batch", "evaluate_spill_free_batch"]
)
def test_only_the_racing_chunk_count_is_refused(batch):
    ir = build_ir(parse(RACY))
    plans = racy_family()
    racing = [p.stream_chunks > 1 for p in plans]
    engine = PlanEvaluator()
    configure_metrics(reset=True)
    before = pricing.priced_lane_count()
    answers = getattr(engine, batch)(ir, plans)
    priced = pricing.priced_lane_count() - before
    rl303 = get_metrics().snapshot()["lint.reject.RL303"]
    assert [answer is None for answer in answers] == racing
    # The refused lanes were never priced, and each refusal is counted
    # as the screened lint rejection it is.
    assert priced == racing.count(False)
    assert rl303 == racing.count(True)
    assert engine.stats.screened == engine.stats.lint_rejections
    assert engine.stats.screened == racing.count(True)
    # Each refused lane carries its own chunk count's finding and
    # witness, exactly what the plan alone raises.
    for plan, refused in zip(plans, racing):
        if not refused:
            continue
        code, witness = _refusal_of(ir, plan)
        with pytest.raises(PlanInfeasible) as info:
            engine.evaluate(ir, plan)
        assert info.value.context["rule"] == code == "RL303"
        assert info.value.context["witness"] == witness
        assert f"{plan.stream_chunks} concurrent chunks" in str(info.value)
        with pytest.raises(PlanInfeasible) as alone:
            PlanEvaluator().evaluate(ir, plan)
        assert str(alone.value) == str(info.value)
        assert alone.value.context == info.value.context


def test_merged_family_failure_names_its_first_lane(monkeypatch):
    # A pricing failure in a merged family ends the batch as an
    # EvaluationError (exit 4) naming the family's first submitted lane.
    ir = build_ir(parse(RACY))
    plans = racy_family()

    def broken(*args, **kwargs):
        raise RuntimeError("model bug")

    monkeypatch.setattr(pricing.FamilyStructure, "price_spill_free", broken)
    with pytest.raises(EvaluationError) as info:
        PlanEvaluator().evaluate_spill_free_batch(ir, plans[1:])
    error = info.value
    assert error.exit_code == 4
    assert error.context["plan"] == plans[1].describe()
    assert error.context["candidate"] == 0
    assert isinstance(error.__cause__, RuntimeError)
