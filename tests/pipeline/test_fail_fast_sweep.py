"""Every suite job ends in a winner or a typed error, never anything else.

Runs ``optimize`` on all 11 Table I kernels on every registered device
profile, plus ``iterations=64`` for the iterative kernels.  A job either
returns a winner whose accounting is exact (every screened candidate
carries a lint rule code) or raises a :class:`ReproError` with its
documented exit code.  The errors are pinned exactly: only the TOY
profile refuses kernels, and always as ``PlanInfeasible`` (exit 3).
Any other exception is a model bug, which fail-fast surfaces.
"""

import pytest

from repro.gpu.device import device_names, get_device
from repro.gpu.simulator import PlanInfeasible
from repro.pipeline import optimize
from repro.resilience import ReproError
from repro.suite import BENCHMARK_ORDER, ITERATIVE_BENCHMARKS, load_ir

#: Documented CLI exit status per error class (``docs/robustness.md``).
EXIT_CODES = {PlanInfeasible: 3}

#: (kernel, device, iterations) jobs that must end in an error.
EXPECTED_ERRORS = {
    ("denoise", "TOY", None): PlanInfeasible,
    ("denoise", "TOY", 64): PlanInfeasible,
    ("miniflux", "TOY", None): PlanInfeasible,
    ("hypterm", "TOY", None): PlanInfeasible,
    ("diffterm", "TOY", None): PlanInfeasible,
    ("addsgd4", "TOY", None): PlanInfeasible,
    ("addsgd6", "TOY", None): PlanInfeasible,
    ("rhs4center", "TOY", None): PlanInfeasible,
    ("rhs4sgcurv", "TOY", None): PlanInfeasible,
}

JOBS = [
    (kernel, device, None)
    for device in device_names()
    for kernel in BENCHMARK_ORDER
] + [
    (kernel, device, 64)
    for device in device_names()
    for kernel in ITERATIVE_BENCHMARKS
]


def test_sweep_covers_every_kernel_and_profile():
    assert len(JOBS) == 11 * len(device_names()) + 4 * len(device_names())
    assert set(EXPECTED_ERRORS) <= set(JOBS)


@pytest.mark.parametrize(
    "kernel, device, iterations",
    JOBS,
    ids=[f"{k}-{d}-T{t or 'default'}" for k, d, t in JOBS],
)
def test_job_ends_in_winner_or_typed_error(kernel, device, iterations):
    expected = EXPECTED_ERRORS.get((kernel, device, iterations))
    try:
        outcome = optimize(
            load_ir(kernel), device=get_device(device), iterations=iterations
        )
    except ReproError as exc:
        assert expected is not None, f"unexpected {exc.describe()}"
        assert type(exc) is expected
        assert exc.exit_code == EXIT_CODES[expected]
        return
    assert expected is None, f"expected {expected.__name__}, got a winner"
    assert outcome.tflops > 0
    assert outcome.schedule.plans
    stats = outcome.eval_stats
    assert stats.lint_rejections == stats.screened
