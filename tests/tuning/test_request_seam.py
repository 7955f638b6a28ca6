"""One request per priced lane, without exceptions for screened lanes.

A family lane reaches the engine's request seam (``_evaluate``) with
its verdict already priced.  A lane the occupancy screen refuses is
memoized as a refusal record, and the ``PlanInfeasible`` it stands for
is built only when a caller raises it: ``evaluate`` on a cache hit
raises a fresh copy each time, with the message and rule the lint
prescreen (``plan_rejection``) gives.
"""

import pytest

from repro.gpu.device import P100
from repro.gpu.simulator import PlanInfeasible
from repro.lint.rules_plan import plan_rejection
from repro.tuning.evaluator import PlanEvaluator

#: Blocks of 2048 threads: past every profile's block limit (RL202).
OVERSIZED = [(64, 32), (128, 16), (256, 8), (512, 4), (1024, 2)]


@pytest.fixture
def screened_family(base_plan):
    return [base_plan.replace(block=block) for block in OVERSIZED]


@pytest.fixture
def constructions(monkeypatch):
    """Counts every ``PlanInfeasible`` built (raised or cloned)."""
    built = []
    real_init = PlanInfeasible.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(PlanInfeasible, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "batch", ["evaluate_batch", "evaluate_spill_free_batch"]
)
def test_screened_family_builds_no_exception(
    smoother_ir, screened_family, constructions, batch
):
    engine = PlanEvaluator()
    results = getattr(engine, batch)(smoother_ir, screened_family)
    assert results == [None] * len(screened_family)
    stats = engine.stats
    assert stats.requests == stats.misses == len(screened_family)
    assert stats.screened == stats.lint_rejections == len(screened_family)
    assert stats.vectorized == 0
    assert constructions == []


def test_rerequest_raises_fresh_copies(smoother_ir, screened_family):
    diagnostic = plan_rejection(smoother_ir, screened_family[0], P100)
    assert diagnostic.code == "RL202"

    engine = PlanEvaluator()
    engine.evaluate_batch(smoother_ir, screened_family)
    raised = []
    for attempt in range(3):
        with pytest.raises(PlanInfeasible) as info:
            engine.evaluate(smoother_ir, screened_family[0])
        assert str(info.value) == f"[RL202] {diagnostic.message}"
        assert info.value.context == {"rule": "RL202"}
        # Context one caller attaches never reaches the next copy.
        info.value.with_context(attempt=attempt)
        raised.append(info.value)
    assert engine.stats.hits == 3
    assert len({id(exc) for exc in raised}) == len(raised)
