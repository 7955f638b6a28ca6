"""A finished tuning job's heap is freed by reference counting alone.

The IR analyses, plan geometry and pricing structures are memoized per
owner object, and an entry lives exactly as long as its owner; the
evaluator memoizes failures without their traceback.  So once a job
drops its IR and evaluator, nothing of it is left for the cyclic
garbage collector: with collection disabled, the job's IR is already
dead afterwards, ``gc.collect()`` finds no garbage, and the memo caches
are back to their size before the job.
"""

import gc
import weakref

import pytest

from repro.codegen.tiling import plan_cache_size
from repro.dsl import parse
from repro.gpu.device import get_device
from repro.ir import build_ir
from repro.ir.analysis import analysis_cache_size
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.resilience import ReproError
from repro.resilience.checkpoint import TuningJournal
from repro.suite import BENCHMARKS
from repro.tuning.evaluator import PlanEvaluator


def tune(program, device, iterations=None, journal_path=None):
    """One in-process job, run the way the benchmark runs it.

    Returns a weak reference to the job's IR and the CLI exit status
    the job would end with.
    """
    device = get_device(device)
    ir = build_ir(parse(BENCHMARKS[program].dsl()))
    engine = PlanEvaluator(device=device)
    engine.search_log = SearchLog(device=device)
    journal = (
        TuningJournal(str(journal_path), device=device.name)
        if journal_path is not None
        else None
    )
    try:
        optimize(
            ir,
            device=device,
            iterations=iterations,
            evaluator=engine,
            journal=journal,
        )
        status = 0
    except ReproError as exc:
        status = exc.exit_code
    finally:
        if journal is not None:
            journal.close()
    return weakref.ref(ir), status


def fission(tmp):
    return [tune("rhs4sgcurv", "P100")]


def deep_tuning(tmp):
    return [tune("7pt-smoother", "V100", iterations=64)]


def journal_resume(tmp):
    path = tmp / "hypterm.jsonl"
    return [tune("hypterm", "P100", journal_path=path) for _ in range(2)]


def infeasible(tmp):
    return [tune("denoise", "TOY", iterations=64)]


JOBS = {
    "rhs4sgcurv@P100": (fission, 0),
    "7pt-smoother@V100-T64": (deep_tuning, 0),
    "hypterm@P100-journal-resume": (journal_resume, 0),
    "denoise@TOY-T64": (infeasible, 3),
}


@pytest.mark.parametrize("name", list(JOBS))
def test_job_heap_dies_by_reference_counting(name, tmp_path):
    run, expected_status = JOBS[name]
    # Warm up: first use of some dependencies builds cyclic objects
    # once per process (networkx compiles its dispatch wrappers).
    warm = tmp_path / "warm"
    warm.mkdir()
    run(warm)
    gc.collect()
    before = (analysis_cache_size(), plan_cache_size())
    gc.disable()
    try:
        jobs = run(tmp_path)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert [status for _, status in jobs] == [expected_status] * len(jobs)
    assert all(ir_ref() is None for ir_ref, _ in jobs)
    assert garbage == 0
    assert (analysis_cache_size(), plan_cache_size()) == before


def test_rejected_family_leaves_no_cyclic_garbage(smoother_ir, base_plan):
    # Every lane of a family whose prototype fails validation is
    # rejected with the prototype's failure; a shared exception object
    # would carry the frames of every lane (and the evaluator) in its
    # traceback.
    blocks = [(32, 4), (32, 8), (16, 8), (64, 4), (16, 16)]
    plans = [base_plan.replace(block=b, stream_axis=7) for b in blocks]

    def batch():
        evaluator = PlanEvaluator(vectorize=True)
        results = evaluator.evaluate_batch(smoother_ir, plans)
        assert results == [None] * len(plans)
        assert evaluator.stats.infeasible == len(plans)

    batch()
    gc.collect()
    gc.disable()
    try:
        batch()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
