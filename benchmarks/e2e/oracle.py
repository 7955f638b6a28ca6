"""Correctness oracle for the end-to-end benchmark.

Every job's outcome is checked against ``expected.json`` outside the
timed path:

* the winner digest (or the expected typed error and exit code) must
  match the one recorded for its (workload, program, device);
* every winner plan must certify clean (``certify_plan_transformations``);
* the winning schedule, run on the program shrunk to ``SHRUNK_EXTENT``
  points per axis, must be bitwise equal to the reference executor.

The checks cost far more than a digest, so :class:`Verifier` runs the
certify and execute checks once per distinct digest in a run; a later
job with the same digest has, by construction, the same winner.
"""

from __future__ import annotations

import json
import re
from hashlib import sha256
from pathlib import Path
from typing import Dict, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Points per axis of the shrunk program the winner is executed on.
SHRUNK_EXTENT = 12


def outcome_digest(outcome) -> str:
    """sha256 over the winner: variant, exact TFLOPS, plans, launch counts."""
    from repro.resilience.checkpoint import plan_to_dict

    payload = {
        "variant": outcome.variant,
        "tflops": repr(outcome.tflops),
        "plans": [plan_to_dict(plan) for plan in outcome.schedule.plans],
        "launch_counts": list(outcome.schedule.launch_counts),
    }
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def error_outcome(exc) -> Dict[str, object]:
    """Expected-outcome record of a typed ``ReproError``."""
    return {"error": type(exc).__name__, "exit_code": exc.exit_code}


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, object]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def shrink_source(text: str, extent: int = SHRUNK_EXTENT) -> str:
    """Rewrite every ``parameter`` extent of a DSL program to ``extent``."""

    def shrink(match):
        return re.sub(r"=\s*\d+", f"={extent}", match.group(0))

    return re.sub(r"(?m)^\s*parameter\b[^;]*;", shrink, text)


def _variant_ir(small, variant: str):
    """Re-derive the winning variant's IR from the shrunk program by label."""
    from repro.tuning.fission import generate_fission_candidates
    from repro.tuning.fusion import maxfuse

    if variant in ("tuned", "global"):
        return small
    if variant == "dag-fused":
        return maxfuse(small)
    if variant == "deep-tuned":
        return maxfuse(small) if len(small.kernels) > 1 else small
    for candidate in generate_fission_candidates(small):
        if candidate.label == variant:
            return candidate.ir
    raise ValueError(f"cannot re-derive variant {variant!r}")


def check_winner(source: str, outcome) -> Optional[str]:
    """Certify and execute one winner; a problem description or None."""
    import numpy as np

    from repro.dsl.parser import parse
    from repro.gpu.executor import (
        allocate_inputs,
        default_scalars,
        execute_program_plan,
        execute_reference,
    )
    from repro.ir.stencil import build_ir
    from repro.lint import certify_plan_transformations

    for plan in outcome.schedule.plans:
        refutations = certify_plan_transformations(outcome.ir, plan)
        if refutations:
            return f"certifier refutes {plan.describe()}: {refutations[0].code}"

    small = build_ir(parse(shrink_source(source)))
    if small.is_iterative and outcome.variant != "deep-tuned":
        return f"no executable check for iterative variant {outcome.variant!r}"
    target = _variant_ir(small, outcome.variant)
    steps = outcome.schedule.total_time_steps() if small.is_iterative else 1
    inputs = allocate_inputs(small)
    # Damped scalars keep long iterative runs finite, so equality is a
    # bitwise comparison of real numbers rather than of infinities.
    scalars = {k: v * 0.1 for k, v in default_scalars(small).items()}
    reference = execute_reference(small, inputs, scalars, time_iterations=steps)
    got = execute_program_plan(target, outcome.schedule, inputs, scalars)
    for name in small.copyout:
        if not np.isfinite(reference[name]).all():
            return f"reference output {name} is not finite"
        if reference[name].tobytes() != got[name].tobytes():
            return f"executor output {name} differs from the reference"
    return None


class Verifier:
    """Checks job outcomes against the expected table of one workload."""

    def __init__(self, expected: Dict[str, object]):
        self.expected = expected
        self._checked: Dict[str, Optional[str]] = {}

    def check(self, key: str, source: str, outcome=None, error=None) -> Optional[str]:
        """Problem description for one job's outcome, or None when correct.

        ``outcome`` is the job's ``OptimizationOutcome``; ``error`` the
        ``ReproError`` it raised instead.
        """
        want = self.expected.get(key)
        if want is None:
            return f"{key}: no expected outcome recorded"
        if error is not None:
            got = error_outcome(error)
            if got != want:
                return f"{key}: raised {got}, expected {want}"
            return None
        if not isinstance(want, str):
            return f"{key}: succeeded, expected {want}"
        digest = outcome_digest(outcome)
        if digest != want:
            return f"{key}: winner digest {digest[:12]} != expected {want[:12]}"
        if digest not in self._checked:
            problem = check_winner(source, outcome)
            self._checked[digest] = f"{key}: {problem}" if problem else None
        return self._checked[digest]
