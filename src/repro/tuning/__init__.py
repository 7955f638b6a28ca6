"""Autotuning: pruned spaces, hierarchical tuning, deep tuning, fission."""

from .deeptuning import (
    DeepTuningEntry,
    DeepTuningResult,
    FusionSchedule,
    MAX_FUSION_DEGREE,
    deep_tune,
    fusion_schedule,
    schedule_to_program_plan,
)
from .evaluator import (
    EvalStats,
    PlanEvaluator,
    plan_fingerprint,
)
from .fission import (
    FissionCandidate,
    dedupe_candidates,
    export_dsl,
    generate_fission_candidates,
    recompute_fission,
    trivial_fission,
)
from .fusion import fuse_instances, maxfuse
from .hierarchical import (
    HierarchicalTuner,
    Measurement,
    TuningResult,
    tune_kernel,
)
from .space import (
    SearchSpace,
    exhaustive_space_size,
    seed_variants,
)

__all__ = [
    "DeepTuningEntry",
    "DeepTuningResult",
    "EvalStats",
    "FissionCandidate",
    "FusionSchedule",
    "HierarchicalTuner",
    "MAX_FUSION_DEGREE",
    "Measurement",
    "PlanEvaluator",
    "SearchSpace",
    "TuningResult",
    "dedupe_candidates",
    "deep_tune",
    "plan_fingerprint",
    "exhaustive_space_size",
    "export_dsl",
    "fuse_instances",
    "fusion_schedule",
    "generate_fission_candidates",
    "maxfuse",
    "recompute_fission",
    "schedule_to_program_plan",
    "seed_variants",
    "trivial_fission",
    "tune_kernel",
]
