"""The version rules of the spatial flow (paper Section VII, step 4).

``optimize`` tunes a spatial program, then its alternative versions in
a fixed order: the fused kernel DAG, each fission candidate and the
global-memory version.  A strictly faster version replaces the best so
far, adding its hint and its evaluations.  These tests pin what each
rule keeps on P100 jobs of the suite:

* a fused or split version that cannot be tuned is skipped; the tuned
  and the global version are the input program, so their
  ``PlanInfeasible`` ends the flow;
* a winning global version keeps the advice of the version it beat,
  every other winner its own;
* every winner except the fused DAG carries the fission candidates.

A version is refused, or made to win, by its ``variant`` search-log
context: the tuner's ``tune`` runs right after the version's advice is
logged, and ``schedule_tflops`` right after its last tuning row.
"""

import re

import pytest

from repro.gpu.device import P100
from repro.gpu.simulator import PlanInfeasible
from repro.obs.search import SearchLog
from repro.pipeline import artemis, format_report, optimize
from repro.suite import load_ir
from repro.tuning import PlanEvaluator
from repro.tuning.hierarchical import HierarchicalTuner

FUSE_HINT = "fusing the kernel DAG eliminates intermediate array traffic"
FISSION_HINT = "trivial-fission outperforms the fused kernel"
GLOBAL_HINT = "global-memory version outperforms shared memory"
CANDIDATES = ["maxfuse", "trivial-fission", "recompute-fission"]


def run(kernel):
    """``optimize`` on P100 with a search log; (outcome, log)."""
    log = SearchLog()
    outcome = optimize(
        load_ir(kernel), evaluator=PlanEvaluator(device=P100, search_log=log)
    )
    return outcome, log


def latest_variant(log):
    return (log.events()[-1].get("context") or {}).get("variant")


def variants_tried(log):
    seen = []
    for row in log.events():
        variant = (row.get("context") or {}).get("variant")
        if variant is not None and variant not in seen:
            seen.append(variant)
    return seen


@pytest.fixture
def refuse(monkeypatch):
    """Make every ``tune`` call of one version raise ``PlanInfeasible``."""

    def install(variant):
        tune = HierarchicalTuner.tune

        def tune_or_refuse(self, base):
            if latest_variant(self.evaluator.search_log) == variant:
                raise PlanInfeasible(f"{variant} refused")
            return tune(self, base)

        monkeypatch.setattr(HierarchicalTuner, "tune", tune_or_refuse)

    return install


@pytest.fixture
def reprice(monkeypatch):
    """``{variant: factor}`` scaling the TFLOPS the flow prices it at."""
    factors = {}
    price = artemis.schedule_tflops

    def scaled(ir, schedule, device, evaluator):
        factor = factors.get(latest_variant(evaluator.search_log), 1)
        return price(ir, schedule, device, evaluator) * factor

    monkeypatch.setattr(artemis, "schedule_tflops", scaled)
    return factors


@pytest.fixture(scope="module")
def plain():
    """The unpatched P100 outcomes of one job per winning kind."""
    return {
        kernel: run(kernel)
        for kernel in ("diffterm", "rhs4sgcurv", "hypterm")
    }


def hints_of(advice):
    return tuple(h for a in advice for h in a.hints)


class TestVersionsTried:
    @pytest.mark.parametrize(
        "kernel, tried",
        [
            ("diffterm", ["tuned", "dag-fused", "global"]),
            ("rhs4sgcurv", ["tuned", "trivial-fission", "global"]),
            ("hypterm", ["tuned", "global"]),
        ],
    )
    def test_in_order(self, plain, kernel, tried):
        assert variants_tried(plain[kernel][1]) == tried


class TestWinners:
    def test_tuned_keeps_its_advice_and_no_candidates(self, plain):
        outcome, _ = plain["hypterm"]
        assert outcome.variant == "tuned"
        assert outcome.fission_candidates == ()
        assert len(outcome.advice) == len(outcome.ir.kernels) == 1
        assert outcome.hints == hints_of(outcome.advice)

    def test_dag_fused_keeps_its_advice_and_no_candidates(self, plain):
        outcome, _ = plain["diffterm"]
        assert outcome.variant == "dag-fused"
        assert len(load_ir("diffterm").kernels) > 1
        assert len(outcome.ir.kernels) == len(outcome.advice) == 1
        assert outcome.fission_candidates == ()
        assert outcome.hints[-1] == FUSE_HINT
        assert FUSE_HINT not in outcome.hints[:-1]

    def test_fission_keeps_its_advice_and_the_candidates(self, plain):
        outcome, _ = plain["rhs4sgcurv"]
        assert outcome.variant == "trivial-fission"
        assert len(outcome.ir.kernels) == len(outcome.advice) == 3
        assert [c.label for c in outcome.fission_candidates] == CANDIDATES
        assert outcome.hints[-1] == FISSION_HINT

    def test_tuned_keeps_the_candidates_of_a_skipped_fission(
        self, refuse, reprice
    ):
        refuse("trivial-fission")
        reprice["global"] = 0.01
        outcome, log = run("rhs4sgcurv")
        assert outcome.variant == "tuned"
        assert len(outcome.advice) == len(load_ir("rhs4sgcurv").kernels)
        assert [c.label for c in outcome.fission_candidates] == CANDIDATES
        assert outcome.hints == hints_of(outcome.advice)
        assert variants_tried(log) == ["tuned", "trivial-fission", "global"]

    def test_global_after_a_skipped_fission_keeps_the_tuned_advice(
        self, refuse, reprice
    ):
        refuse("trivial-fission")
        reprice["global"] = 0.01
        tuned, _ = run("rhs4sgcurv")
        reprice["global"] = 1
        outcome, _ = run("rhs4sgcurv")
        assert outcome.variant == "global"
        assert outcome.advice == tuned.advice
        assert outcome.hints == tuned.hints + (GLOBAL_HINT,)
        assert outcome.evaluations > tuned.evaluations
        assert [c.label for c in outcome.fission_candidates] == CANDIDATES

    @pytest.mark.parametrize(
        "kernel, beaten, candidates",
        [
            ("hypterm", "tuned", []),
            ("diffterm", "dag-fused", []),
            ("rhs4sgcurv", "trivial-fission", CANDIDATES),
        ],
    )
    def test_global_keeps_the_advice_it_beat(
        self, plain, reprice, kernel, beaten, candidates
    ):
        reprice["global"] = 100
        before, _ = plain[kernel]
        assert before.variant == beaten
        outcome, _ = run(kernel)
        assert outcome.variant == "global"
        assert outcome.advice == before.advice
        assert outcome.hints == before.hints + (GLOBAL_HINT,)
        assert outcome.evaluations > before.evaluations
        assert [c.label for c in outcome.fission_candidates] == candidates
        assert len(outcome.ir.kernels) == len(load_ir(kernel).kernels)


class TestInfeasibleVersions:
    def test_a_fused_dag_that_cannot_be_tuned_is_skipped(
        self, plain, refuse
    ):
        refuse("dag-fused")
        outcome, log = run("diffterm")
        assert outcome.variant == "tuned"
        assert FUSE_HINT not in outcome.hints
        assert len(outcome.advice) == len(outcome.ir.kernels) > 1
        assert variants_tried(log) == ["tuned", "dag-fused", "global"]
        assert outcome.tflops < plain["diffterm"][0].tflops

    def test_a_fission_candidate_that_cannot_be_tuned_is_skipped(
        self, plain, refuse
    ):
        refuse("trivial-fission")
        outcome, log = run("rhs4sgcurv")
        assert outcome.variant == "global"
        assert FISSION_HINT not in outcome.hints
        assert variants_tried(log) == ["tuned", "trivial-fission", "global"]
        assert outcome.tflops < plain["rhs4sgcurv"][0].tflops

    @pytest.mark.parametrize("variant", ["tuned", "global"])
    def test_the_input_program_that_cannot_be_tuned_ends_the_flow(
        self, refuse, variant
    ):
        refuse(variant)
        with pytest.raises(PlanInfeasible, match=f"{variant} refused"):
            run("hypterm")


def masked(report):
    return re.sub(r"[0-9.]+ ms wall", "<t> ms wall", report)


#: ``format_report`` of one P100 job per winning kind, wall time masked.
REPORTS = {
    "diffterm": """\
========================================================================
ARTEMIS optimization report
========================================================================
variant chosen : dag-fused
performance    : 1.447 TFLOPS (simulated)
evaluations    : 905
eval engine    : 1574 requests, 0 cache hits, 659 simulated, 7325 escalation rungs skipped
                 8240 simulations avoided, <t> ms wall in evaluation

launches:
  - maxfuse.0 block=8x16 stream=serial@0 prefetch shm(vx,vy,vz,T) regs<=255
      9.397 ms/launch, occupancy 19%, bound at dram, OI(dram/tex/shm) = 4.27/2.11/0.62

hints:
  * spatial stencil texture-bandwidth-bound: shared memory buffering enabled by default
  * kernel remains DRAM bandwidth-bound with shared memory: generating the global-memory version; consider algorithmic changes that reduce DRAM traffic or stencil order
  * kernel is shared-memory bandwidth-bound: enabling register-level optimizations (retiming, register caching, folding)
  * spatial stencil texture-bandwidth-bound: shared memory buffering enabled by default
  * kernel remains DRAM bandwidth-bound with shared memory: generating the global-memory version; consider algorithmic changes that reduce DRAM traffic or stencil order
  * fusing the kernel DAG eliminates intermediate array traffic""",
    "rhs4sgcurv": """\
========================================================================
ARTEMIS optimization report
========================================================================
variant chosen : trivial-fission
performance    : 0.813 TFLOPS (simulated)
evaluations    : 898
eval engine    : 305 requests, 0 cache hits, 158 simulated, 3425 escalation rungs skipped
                 3572 simulations avoided, <t> ms wall in evaluation

launches:
  - rhs4sgcurv_0.0 block=8x32 stream=serial@0 unroll=1x2x1 prefetch shm(u0,u1,u2) regs<=255
      32.489 ms/launch, occupancy 12%, bound at dram, OI(dram/tex/shm) = 3.59/1.66/1.59
  - rhs4sgcurv_1.0 block=8x32 stream=serial@0 unroll=1x2x1 prefetch shm(u0,u1,u2) regs<=255
      32.489 ms/launch, occupancy 12%, bound at dram, OI(dram/tex/shm) = 3.59/1.66/1.59
  - rhs4sgcurv_2.0 block=8x32 stream=serial@0 unroll=1x2x1 prefetch shm(u0,u1,u2) regs<=255
      32.489 ms/launch, occupancy 12%, bound at dram, OI(dram/tex/shm) = 3.59/1.66/1.59

hints:
  * register pressure (306 demanded vs 255 available): unrolling disabled, generating fission candidates
  * spatial stencil texture-bandwidth-bound: shared memory buffering enabled by default
  * kernel remains DRAM bandwidth-bound with shared memory: generating the global-memory version; consider algorithmic changes that reduce DRAM traffic or stencil order
  * trivial-fission outperforms the fused kernel

fission candidates written (DSL):
  * maxfuse: 1 kernel(s)
  * trivial-fission: 3 kernel(s)
  * recompute-fission: 1 kernel(s)""",
    "hypterm": """\
========================================================================
ARTEMIS optimization report
========================================================================
variant chosen : tuned
performance    : 0.604 TFLOPS (simulated)
evaluations    : 290
eval engine    : 253 requests, 0 cache hits, 94 simulated, 3755 escalation rungs skipped
                 3914 simulations avoided, <t> ms wall in evaluation

launches:
  - hypterm.0 block=8x16 stream=serial@0 unroll=1x2x1 prefetch shm(p,vx,vy,vz,mx,my,mz,E) regs<=255
      19.412 ms/launch, occupancy 12%, bound at dram, OI(dram/tex/shm) = 2.67/1.44/0.38

hints:
  * spatial stencil texture-bandwidth-bound: shared memory buffering enabled by default
  * kernel remains DRAM bandwidth-bound with shared memory: generating the global-memory version; consider algorithmic changes that reduce DRAM traffic or stencil order
  * kernel is shared-memory bandwidth-bound: enabling register-level optimizations (retiming, register caching, folding)""",
}


@pytest.mark.parametrize("kernel", sorted(REPORTS))
def test_report_text(plain, kernel):
    assert masked(format_report(plain[kernel][0], P100)) == REPORTS[kernel]
