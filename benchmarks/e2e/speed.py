"""Machine-speed calibration for timings on a shared host.

On a host shared with other tenants the same work can take 1.6x as
long from one second to the next (measured: a fixed pure-Python loop
alternates between ~0.12 s and ~0.20 s, with slow spells lasting tens
of seconds).  No amount of work in one run averages that out, so every
timed sample is taken between two calibrations: a fixed kernel that
does not touch ``repro``, so no change to the code under test can move
it.
"""

from __future__ import annotations

import os
import resource
from time import perf_counter

#: Calibration time of the reference 2-core machine when unloaded.
REFERENCE_S = 0.0021

_REPEATS = 3

_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'v{i}')):\n"
    f"    x = [a * {i} + c for c in b if c]\n"
    f"    return {{'k{i}': x, 'n': len(x)}}\n"
    for i in range(30)
)


def _kernel() -> int:
    """Dict, tuple and string churn plus a compile, like tuning and import."""
    counts = {}
    total = 0
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    compile(_SOURCE, "<calibration>", "exec")
    return total


def calibration_s() -> float:
    """Median time of the calibration kernel, run a few times now."""
    samples = []
    for _ in range(_REPEATS):
        start = perf_counter()
        _kernel()
        samples.append(perf_counter() - start)
    return sorted(samples)[_REPEATS // 2]


def _cpu(children: bool):
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    )
    return usage.ru_utime, usage.ru_stime


def timed(execute, children: bool = False):
    """Run ``execute()`` between two calibrations.

    ``execute`` returns ``(measured seconds, result)``; ``timed``
    returns ``(result, sample)`` where ``sample`` holds the measured
    seconds, the user and system CPU seconds of this process (of its
    children with ``children``), the mean of the two calibrations and,
    as ``s``, the :func:`calibrated` seconds.
    """
    before = calibration_s()
    user, system = _cpu(children)
    seconds, result = execute()
    user_after, system_after = _cpu(children)
    after = calibration_s()
    sample = {
        "wall": seconds,
        "user": user_after - user,
        "sys": system_after - system,
        "cal": (before + after) / 2,
    }
    sample["s"] = calibrated(sample)
    return result, sample


def calibrated(sample: dict) -> float:
    """A sample in *calibrated seconds*: reference-machine seconds.

    User CPU time is scaled by the calibration; the rest of the wall
    time (system calls, I/O, process start) is kept as measured, since
    it does not slow down with the calibration kernel.
    """
    user = min(sample["user"], sample["wall"])
    return user * REFERENCE_S / sample["cal"] + sample["wall"] - user


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    A job run in a child process is then timed on the CPU whose speed
    the parent's calibrations measure.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
