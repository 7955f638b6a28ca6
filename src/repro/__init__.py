"""ARTEMIS reproduction: profiling-driven GPU stencil code generation.

Public API highlights::

    from repro import parse, build_ir, optimize, simulate, P100

    ir = build_ir(parse(dsl_text))        # frontend + IR
    outcome = optimize(ir)                # end-to-end ARTEMIS flow (§VII)
    print(outcome.tflops, outcome.variant)

    from repro.codegen import emit_cuda   # CUDA source for any plan
    from repro.suite import load_ir       # the 11 paper benchmarks
"""

from ._lazy import lazy_attributes

__getattr__ = lazy_attributes(
    __name__,
    {
        ".codegen": (
            "GeneratedProgram",
            "KernelPlan",
            "ProgramPlan",
            "emit_cuda",
            "generate_baseline",
            "lower",
            "realize",
        ),
        ".dsl": ("parse",),
        ".gpu": (
            "DeviceSpec",
            "P100",
            "V100",
            "SimulationResult",
            "simulate",
        ),
        ".gpu.executor": (
            "allocate_inputs",
            "default_scalars",
            "execute_plan",
            "execute_program_plan",
            "execute_reference",
        ),
        ".ir": ("ProgramIR", "build_ir", "characteristics"),
        ".pipeline": ("OptimizationOutcome", "format_report", "optimize"),
        ".profiling": ("advise", "classify_result", "profile"),
        ".tuning": ("deep_tune", "fusion_schedule", "tune_kernel"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "DeviceSpec",
    "GeneratedProgram",
    "KernelPlan",
    "OptimizationOutcome",
    "P100",
    "ProgramIR",
    "ProgramPlan",
    "SimulationResult",
    "V100",
    "__version__",
    "advise",
    "allocate_inputs",
    "build_ir",
    "characteristics",
    "classify_result",
    "deep_tune",
    "default_scalars",
    "emit_cuda",
    "execute_plan",
    "execute_program_plan",
    "execute_reference",
    "format_report",
    "fusion_schedule",
    "generate_baseline",
    "lower",
    "optimize",
    "parse",
    "profile",
    "realize",
    "simulate",
    "tune_kernel",
]
