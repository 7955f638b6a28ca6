"""Top-level code generation entry points.

``generate_baseline`` performs the first step of the paper's end-to-end
flow (Section VII): derive a plan for every kernel of a program from the
user's pragmas, apply automatic resource assignment within the device's
budget, honour any occupancy target, validate the transformation mix,
and render CUDA plus a simulated performance report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from ..dsl.ast import Program
from ..dsl.parser import parse
from ..gpu.counters import SimulationResult
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import simulate
from ..ir.stencil import ProgramIR, build_ir
from .plan import KernelPlan, ProgramPlan
from .resources import auto_assign, seed_plan_from_pragma, validate_plan

if TYPE_CHECKING:
    from ..tuning.evaluator import PlanEvaluator
    from .cuda_emitter import GeneratedKernel


@dataclass(frozen=True)
class GeneratedProgram:
    """Everything produced for one program: plans, CUDA, predicted perf."""

    ir: ProgramIR
    schedule: ProgramPlan
    kernels: Tuple[GeneratedKernel, ...]
    simulations: Tuple[SimulationResult, ...]

    @property
    def total_time_s(self) -> float:
        return sum(
            sim.time_s * count
            for sim, count in zip(self.simulations, self.schedule.counts)
        )

    @property
    def tflops(self) -> float:
        """Aggregate useful-FLOP throughput across all launches."""
        useful = sum(
            sim.counters.useful_flops * count
            for sim, count in zip(self.simulations, self.schedule.counts)
        )
        total = self.total_time_s
        return useful / total / 1e12 if total > 0 else 0.0

    @property
    def source(self) -> str:
        return "\n".join(k.source for k in self.kernels)


def lower(source_or_program: Union[str, Program, ProgramIR]) -> ProgramIR:
    """Accept DSL text, a parsed Program, or IR, and return IR."""
    if isinstance(source_or_program, ProgramIR):
        return source_or_program
    if isinstance(source_or_program, Program):
        return build_ir(source_or_program)
    return build_ir(parse(source_or_program))


def generate_baseline(
    source_or_program: Union[str, Program, ProgramIR],
    device: DeviceSpec = P100,
    auto_resources: bool = True,
) -> GeneratedProgram:
    """Generate the pragma-seeded baseline version of a program."""
    ir = lower(source_or_program)
    plans: List[KernelPlan] = []
    for instance in ir.kernels:
        plan = seed_plan_from_pragma(ir, instance, device)
        if auto_resources:
            plan = auto_assign(ir, plan, device).plan
        validate_plan(ir, plan)
        plans.append(plan)
    schedule = ProgramPlan(plans=tuple(plans))
    return realize(ir, schedule, device)


def realize(
    ir: ProgramIR, schedule: ProgramPlan, device: DeviceSpec = P100
) -> GeneratedProgram:
    """Emit CUDA and simulate every launch of a schedule."""
    from .cuda_emitter import emit_cuda

    kernels = tuple(emit_cuda(ir, plan) for plan in schedule.plans)
    simulations = tuple(simulate(ir, plan, device) for plan in schedule.plans)
    return GeneratedProgram(
        ir=ir, schedule=schedule, kernels=kernels, simulations=simulations
    )


def schedule_tflops(
    ir: ProgramIR,
    schedule: ProgramPlan,
    device: DeviceSpec = P100,
    evaluator: Optional["PlanEvaluator"] = None,
) -> float:
    """Useful-FLOP throughput of a schedule without emitting CUDA.

    With an ``evaluator`` on ``device``, a launch plan it has already
    priced is read from its memo (:meth:`PlanEvaluator.memoized`, no
    request) instead of being priced again.
    """
    if evaluator is not None and evaluator.device != device:
        evaluator = None
    total_time = 0.0
    useful = 0.0
    for plan, count in zip(schedule.plans, schedule.counts):
        sim = None if evaluator is None else evaluator.memoized(ir, plan)
        if sim is None:
            sim = simulate(ir, plan, device)
        total_time += sim.time_s * count
        useful += sim.counters.useful_flops * count
    return useful / total_time / 1e12 if total_time > 0 else 0.0
