"""Analytical kernel simulator: counters + timing for a kernel plan.

Device-parametric: every resource limit, bandwidth and model knob comes
from the :class:`~repro.gpu.device.DeviceSpec` profile passed in (the
paper's P100 is the default; see ``docs/devices.md``).

The simulator plays the role of the paper's (GPU + nvprof) pair.  Every
quantity ARTEMIS's profiling and tuning logic consumes — FLOPs, DRAM
bytes, texture bytes, shared-memory bytes, registers, occupancy — is
derived *mechanistically* from the stencil IR and the kernel plan:

* FLOPs come from the statement ASTs times the points each fused stage
  computes per block (overlapped tiling recomputes halo points);
* texture bytes count the global-load instructions that actually execute
  (buffered arrays load their footprint once; gmem arrays load per
  distinct access, discounted by blocked-unroll register reuse), scaled
  by a 32-byte-sector coalescing factor;
* DRAM bytes separate unique first-touch traffic from re-touches, which
  hit in L2 with a probability set by the live working set vs. L2 size —
  this is what makes "global-stream" lose to "global" (Section VIII-F)
  and fusion pay off for bandwidth-bound smoothers (Table II);
* shared bytes count buffer fills, rotation traffic and served reads;
* register demand beyond ``maxrregcount`` spills, adding local-memory
  traffic (the §VIII-D fission story).

Timing applies a derated roofline — ``max`` over per-resource times with
occupancy-dependent saturation — plus an issue-latency term that binds
low-occupancy kernels, sync overhead and launch overhead.

There is one implementation of that model: the lane model of
:mod:`repro.gpu.pricing`, which prices a whole structural plan family
over a lane axis.  :func:`simulate` is one lane of it, and
:func:`plan_occupancy` is its launch-feasibility screen on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codegen.plan import KernelPlan
from ..codegen.tiling import (
    LaunchGeometry,
    _plan_memoized,
    launch_geometry,
    shmem_bytes_per_block,
)
from ..ir.stencil import ProgramIR
from ..obs import counter as _counter
from ..obs import span as _span
from ..resilience.errors import (
    EvaluationError,
    InfeasiblePlanError,
    ReproError,
)
from .counters import SimulationResult
from .device import DeviceSpec, P100
from .occupancy import OccupancyResult, occupancy


class PlanInfeasible(InfeasiblePlanError):
    """Raised when a plan cannot launch on the device at all.

    Part of the :mod:`repro.resilience` taxonomy (and still a
    ``ValueError``, as in the seed implementation): tuners treat it as
    "candidate rejected", never as a crash.
    """


@dataclass(frozen=True)
class PlanPrefix:
    """What the launch-feasibility screen reads of a plan.

    A pure function of (IR, plan family): launch geometry, shared-memory
    bytes and uncapped register demand.  The four rungs of the register-
    escalation ladder (32/64/128/255) share one prefix; only the cap
    differs.
    """

    geometry: LaunchGeometry
    shmem: int
    reg_demand: int


def plan_prefix(ir: ProgramIR, plan: KernelPlan) -> PlanPrefix:
    """Register-independent analysis of a plan (memoized per family)."""
    return _plan_memoized(
        "sim_prefix", ir, plan, lambda: _plan_prefix(ir, plan)
    )


def _plan_prefix(ir: ProgramIR, plan: KernelPlan) -> PlanPrefix:
    from .registers import register_demand

    return PlanPrefix(
        geometry=launch_geometry(ir, plan),
        shmem=shmem_bytes_per_block(ir, plan),
        reg_demand=register_demand(ir, plan),
    )


def plan_occupancy(
    ir: ProgramIR, plan: KernelPlan, device: DeviceSpec = P100
) -> OccupancyResult:
    """The launch-feasibility screen of :func:`simulate`, on its own.

    Computes occupancy from the memoized register-independent prefix
    plus the plan's register cap, without paying for counters and
    timing, and raises the :class:`PlanInfeasible` a refused lane of
    :func:`simulate` raises.  The lint prescreen runs it to classify a
    plan onto its RL2xx rule.
    """
    pre = plan_prefix(ir, plan)
    compiled = min(pre.reg_demand, plan.max_registers)
    try:
        return occupancy(
            device, pre.geometry.threads_per_block, compiled, pre.shmem
        )
    except ValueError as exc:
        _counter("simulate.prescreen_rejections").add()
        # Classify onto the stable lint rule code (RL201/202/203)
        # so dashboards and the evaluation engine agree on names.
        from ..lint.rules_plan import classify_occupancy_failure

        _counter(f"lint.reject.{classify_occupancy_failure(exc)}").add()
        context = dict(getattr(exc, "context", None) or {})
        raise PlanInfeasible(str(exc), **context) from exc


def simulate(
    ir: ProgramIR, plan: KernelPlan, device: DeviceSpec = P100
) -> SimulationResult:
    """Simulate one launch of ``plan`` over the whole domain.

    One lane of the lane model: ``plan``'s family structure priced for
    this plan alone.  A lane the occupancy screen refuses raises the
    :class:`PlanInfeasible` of :func:`plan_occupancy`.  Like a batch in
    the evaluation engine, an unexpected exception inside the model
    raises an :class:`~repro.resilience.EvaluationError` naming the plan.
    """
    _counter("simulate.calls").add()
    with _span("simulate"):
        from .pricing import family_structure, knobs_of

        try:
            lanes = family_structure(ir, plan).price(knobs_of((plan,)), device)
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001 — fail fast, naming the plan
            raise EvaluationError(
                f"evaluation of candidate failed: {exc}",
                plan=plan.describe(),
                phase="simulate",
            ) from exc
        if not lanes.ok[0]:
            plan_occupancy(ir, plan, device)  # raises the screen's refusal
        return lanes.result(0)
