"""One workload of the end-to-end benchmark, in its own interpreter.

``run.py`` starts this script once per workload, with ``PYTHONPATH``
naming the checkout's ``src`` and ``PYTHONHASHSEED`` pinned, so no state
leaks from one workload into the next and ``ru_maxrss`` is the
workload's own.  Load is a closed loop: one client, no threads, the
next job starts when the previous one has returned.

A job takes one program to one device.  In process it is: parse and
build the IR of the DSL text, ``optimize`` with a fresh
``PlanEvaluator`` and ``SearchLog``, ``build_explain``, and
``emit_cuda`` for every winner plan.  In ``cli-cold`` it is one
``python -m repro optimize K --explain --json OUT`` process.  A round
runs every (program, device) pair of the workload once, in an order
shuffled by ``random.Random(seed + round)``.  Every timed execution is
bracketed by speed calibrations (``speed.py``).

Usage (normally via run.py)::

    python benchmarks/e2e/workload.py --workload W --seed S \\
        --seconds N --trace 0|1 --out RESULT.json --work DIR
    python benchmarks/e2e/workload.py --write-expected PATH --work DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.cli  # noqa: F401 — the set-up a user pays, untimed here
import repro.codegen.cuda_emitter as cuda_emitter
import repro.dsl.parser as dsl_parser
import repro.ir.stencil as stencil
import repro.obs.explain as explain
import repro.pipeline as pipeline
import repro.resilience.checkpoint as checkpoint
from repro.gpu import pricing
from repro.gpu.device import get_device
from repro.ir.analysis import analysis_cache_size
from repro.obs.search import SearchLog
from repro.resilience import ReproError
from repro.suite import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    ITERATIVE_BENCHMARKS,
    SPATIAL_BENCHMARKS,
)
from repro.tuning.evaluator import PlanEvaluator

from oracle import Verifier, check_winner, error_outcome, load_expected, outcome_digest
from spans import LayerTracer
from speed import REFERENCE_S, timed

#: Jobs with at least this many slower samples define ``job_tail_s``.
TAIL_SAMPLES = 10

#: A run always measures its planned rounds, since a cut run would read
#: faster (rounds slow down as the process's caches grow); a round is
#: skipped only if it could end past this many seconds, so that a run
#: on a very slow host still exits in time.
DEADLINE_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: Tuple[Tuple[str, str], ...]  # (program, device)
    #: Round time on the 2-core reference machine; a run plans
    #: ``seconds / round_s`` rounds, so both commits of a comparison
    #: run the same jobs and a run measures about ``seconds``.
    round_s: float
    iterations: Optional[int] = None
    cli: bool = False
    journal: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cli-cold",
            tuple((p, "P100") for p in BENCHMARK_ORDER),
            round_s=6.5,
            cli=True,
        ),
        Workload(
            "spatial-4dev",
            tuple(
                (p, d)
                for d in ("P100", "V100", "A100", "MI100")
                for p in SPATIAL_BENCHMARKS
            ),
            round_s=7.0,
        ),
        Workload(
            "iterative-T64",
            tuple(
                (p, d)
                for d in ("P100", "V100", "A100", "MI100", "TOY")
                for p in ITERATIVE_BENCHMARKS
            ),
            round_s=4.0,
            iterations=64,
        ),
        Workload(
            "journal-resume",
            tuple((p, "P100") for p in BENCHMARK_ORDER),
            round_s=5.8,
            journal=True,
        ),
    )
}


def round_count(workload: Workload, seconds: float) -> int:
    return max(2, round(seconds / workload.round_s))


def pair_key(program: str, device: str) -> str:
    return f"{program}@{device}"


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class JobResult:
    latency_s: float
    outcome: object = None
    error: Optional[ReproError] = None
    cuda_bytes: int = 0
    search_events: int = 0
    lanes: int = 0  # family-pricing lanes priced during the job


def tune_job(
    source: str,
    device,
    iterations: Optional[int],
    journal_path: Optional[str] = None,
) -> JobResult:
    """Run one in-process job and time it.

    Every call goes through a module attribute, so the tracer's
    wrappers see it when installed.
    """
    lanes_before = pricing.priced_lane_count()
    start = perf_counter()
    try:
        ir = stencil.build_ir(dsl_parser.parse(source))
        engine = PlanEvaluator(device=device)
        log = SearchLog(device=device)
        engine.search_log = log
        journal = (
            checkpoint.TuningJournal(journal_path, device=device.name)
            if journal_path
            else None
        )
        try:
            outcome = pipeline.optimize(
                ir,
                device=device,
                iterations=iterations,
                evaluator=engine,
                journal=journal,
            )
        finally:
            if journal is not None:
                journal.close()
        explain.build_explain(log.events())
        cuda = sum(
            len(cuda_emitter.emit_cuda(outcome.ir, plan).source.encode())
            for plan in outcome.schedule.plans
        )
    except ReproError as exc:
        return JobResult(perf_counter() - start, error=exc)
    return JobResult(
        perf_counter() - start,
        outcome=outcome,
        cuda_bytes=cuda,
        search_events=len(log.events()),
        lanes=pricing.priced_lane_count() - lanes_before,
    )


def cli_job(program: str, device: str, out: Path) -> Tuple[float, dict]:
    """One cold ``repro optimize`` process; (latency, summary)."""
    cmd = [sys.executable, "-m", "repro", "optimize", program]
    if device != "P100":
        cmd += ["--device", device]
    cmd += ["--explain", "--json", str(out)]
    if out.exists():
        out.unlink()
    start = perf_counter()
    proc = subprocess.run(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    latency = perf_counter() - start
    summary = {"exit_code": proc.returncode}
    if proc.returncode == 0:
        payload = json.loads(out.read_text())
        summary.update(
            variant=payload["variant"],
            tflops=payload["tflops"],
            schedule=[[s["plan"], s["count"]] for s in payload["schedule"]],
        )
    else:
        summary["stderr"] = proc.stderr.strip()[-300:]
    return latency, summary


def _cli_matches(summary: dict, result: JobResult) -> bool:
    """Does a CLI outcome equal the in-process re-derivation of its job?"""
    if result.error is not None:
        return summary["exit_code"] == result.error.exit_code
    outcome = result.outcome
    schedule = [
        [plan.describe(), count]
        for plan, count in zip(outcome.schedule.plans, outcome.schedule.counts)
    ]
    return summary["exit_code"] == 0 and (
        summary["variant"],
        summary["tflops"],
        summary["schedule"],
    ) == (outcome.variant, outcome.tflops, schedule)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    """State of one workload run: samples, correctness and layer counts."""

    def __init__(self, workload: Workload, seed: int, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.verifier = Verifier(load_expected()[workload.name])
        self.sources = {p: BENCHMARKS[p].dsl() for p, _ in workload.pairs}
        self.devices = {d: get_device(d) for _, d in workload.pairs}
        self.tracer = LayerTracer() if trace else None
        #: one dict per round: calibrated ``jobs`` and ``resumes`` as
        #: ``(pair key, seconds)``, plus the round's deterministic counts
        self.rounds: List[dict] = []
        self.peak_rss_mb = 0.0
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.verify_s = 0.0
        self.digests: Dict[str, object] = {}
        self.tflops: Dict[str, float] = {}
        # trace mode: the traced executions, and per pair the traced
        # execution's time over its untraced twin's, minus one
        self.overhead: List[float] = []
        self.traced_jobs: List[JobResult] = []
        self.job_scale: Dict[str, float] = {}  # traced job -> speed factor
        self.traced_chars = 0
        self.journal_bytes = 0

    # -- correctness --------------------------------------------------------

    def verify(self, key: str, result: JobResult, extra: Optional[str] = None) -> None:
        """Check one outcome against the oracle, outside the timed path."""
        start = perf_counter()
        problem = self.verifier.check(
            key, self.sources[key.split("@")[0]], result.outcome, result.error
        )
        self.verify_s += perf_counter() - start
        self.attempted += 1
        problem = problem or extra
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
        self.digests.setdefault(
            key,
            outcome_digest(result.outcome)
            if result.outcome is not None
            else error_outcome(result.error),
        )
        if result.outcome is not None:
            self.tflops[key] = result.outcome.tflops

    # -- in-process jobs ----------------------------------------------------

    def execute(self, program: str, device: str, journal: Optional[Path]):
        result = tune_job(
            self.sources[program],
            self.devices[device],
            self.workload.iterations,
            str(journal) if journal is not None else None,
        )
        return result.latency_s, result

    def traced(self, key: str, program: str, device: str, journal: Optional[Path]):
        tracer = self.tracer
        job = f"{len(self.traced_jobs)}:{key}"

        def execute():
            tracer.active = True
            try:
                with tracer.job_span(job):
                    return self.execute(program, device, journal)
            finally:
                tracer.active = False

        result, sample = timed(execute)
        self.job_scale[job] = REFERENCE_S / sample["cal"]
        self.traced_jobs.append(result)
        self.traced_chars += len(self.sources[program])
        return sample["s"]

    def pair(self, record: dict, position: int, program: str, device: str) -> None:
        """Run and verify one pair, adding its samples to the round ``record``.

        With tracing on, the job also runs traced, before or after the
        plain execution as ``position`` alternates, so drift cancels in
        the overhead estimate; only the plain execution is sampled.
        """
        key = pair_key(program, device)
        journal = self.work / f"{key}.jsonl" if self.workload.journal else None
        modes = ("plain",)
        if self.trace:
            modes = ("plain", "traced") if position % 2 == 0 else ("traced", "plain")
        plain_s = traced_s = 0.0
        for mode in modes:
            if journal is not None and journal.exists():
                journal.unlink()
            if mode == "traced":
                traced_s += self.traced(key, program, device, journal)
                if journal is not None:
                    self.journal_bytes += journal.stat().st_size
                    traced_s += self.traced(key, program, device, journal)
                continue
            result, sample = timed(lambda: self.execute(program, device, journal))
            plain_s += sample["s"]
            _add(record, "jobs", key, sample)
            record["cuda_bytes"] += result.cuda_bytes
            if result.outcome is not None:
                record["requests"] += result.outcome.eval_stats.requests
            self.verify(key, result)
            if journal is not None:
                resumed, sample = timed(
                    lambda: self.execute(program, device, journal)
                )
                plain_s += sample["s"]
                _add(record, "resumes", key, sample)
                self.verify(key, resumed, _resume_problem(key, result, resumed))
        if journal is not None and journal.exists():
            journal.unlink()
        if self.trace:
            self.overhead.append(traced_s / plain_s - 1)

    def run_inprocess(self, rounds: int) -> None:
        start = perf_counter()
        for index in range(rounds):
            if index and _past_deadline(start, len(self.rounds)):
                break
            record = _round_record(cuda_bytes=0, requests=0)
            for position, (program, device) in enumerate(self.order(index)):
                self.pair(record, position, program, device)
            self.rounds.append(record)
        self.peak_rss_mb = _max_rss_mb(resource.RUSAGE_SELF)

    def order(self, index: int) -> List[Tuple[str, str]]:
        """Round ``index``'s job order, shuffled by ``seed + index``."""
        order = list(self.workload.pairs)
        random.Random(self.seed + index).shuffle(order)
        return order

    # -- cli-cold -----------------------------------------------------------

    def run_cli(self, rounds: int) -> None:
        out = self.work / "outcome.json"
        summaries: Dict[str, List[dict]] = {}
        start = perf_counter()
        for index in range(rounds):
            if index and _past_deadline(start, len(self.rounds)):
                break
            record = _round_record()
            for program, device in self.order(index):
                key = pair_key(program, device)
                summary, sample = timed(
                    lambda: cli_job(program, device, out), children=True
                )
                _add(record, "jobs", key, sample)
                summaries.setdefault(key, []).append(summary)
            self.rounds.append(record)
        self.peak_rss_mb = _max_rss_mb(resource.RUSAGE_CHILDREN)
        # The CLI's JSON names the winner plans but does not serialize
        # them, so every winner is re-derived in process (the CLI's
        # engine defaults) to be certified and executed.
        cuda = requests = 0
        for position, (program, device) in enumerate(self.workload.pairs):
            key = pair_key(program, device)
            traced_first = self.trace and position % 2 == 1
            if traced_first:
                traced_s = self.traced(key, program, device, None)
            result, sample = timed(lambda: self.execute(program, device, None))
            cuda += result.cuda_bytes
            if result.outcome is not None:
                requests += result.outcome.eval_stats.requests
            for summary in summaries[key]:
                mismatch = None
                if not _cli_matches(summary, result):
                    mismatch = f"{key}: CLI outcome {summary} differs from in-process"
                self.verify(key, result, mismatch)
            if self.trace:
                if not traced_first:
                    traced_s = self.traced(key, program, device, None)
                self.overhead.append(traced_s / sample["s"] - 1)
        for record in self.rounds:
            record.update(cuda_bytes=cuda, requests=requests)

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        latencies = [s for r in self.rounds for _, s in r["jobs"]]
        per_pair: Dict[str, List[float]] = {}
        for record in self.rounds:
            for key, seconds in record["jobs"]:
                per_pair.setdefault(key, []).append(seconds)
        return {
            "wall_s": statistics.median(
                sum(s for _, s in r["jobs"] + r["resumes"]) for r in self.rounds
            ),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail(latencies),
            "tune_geomean_s": geomean(
                statistics.median(v) for v in per_pair.values()
            ),
            "peak_rss_mb": self.peak_rss_mb,
            "best_gflops_geomean": geomean(
                t * 1e3 for t in self.tflops.values() if t > 0
            ),
            "cuda_kb": self.rounds[0]["cuda_bytes"] / 1024,
        }

    def layers(self, rounds: int) -> Dict[str, float]:
        """Per-layer metrics of the traced executions, per round.

        Span times are calibrated with their job's speed factor.
        """
        totals = self.tracer.layer_totals(self.job_scale)

        def self_s(name):
            return totals.get(name, (0.0, 0.0, 0))[0] / rounds

        def total_s(name):
            return totals.get(name, (0.0, 0.0, 0))[1] / rounds

        def calls(name):
            return totals.get(name, (0.0, 0.0, 0))[2] / rounds

        scaled = [
            (job.outcome.eval_stats, scale)
            for job, scale in zip(self.traced_jobs, self.job_scale.values())
            if job.outcome is not None
        ]

        def stat(field):
            return sum(getattr(s, field) for s, _ in scaled) / rounds

        def per_round(values):
            return sum(values) / rounds

        requests = stat("requests")
        priced = stat("simulations")
        parse_s = self_s("dsl.parse")
        traced_s = total_s("job")
        journal_s = self_s("resilience.journal.open") + self_s(
            "resilience.journal.record"
        )
        writes = [s for r in self.rounds for _, s in r["jobs"]]
        resumes = [s for r in self.rounds for _, s in r["resumes"]]
        return {
            "pipeline.optimize.self_s": self_s("pipeline.optimize"),
            "dsl.parse.self_s": self_s("dsl.parse"),
            "dsl.parse.calls": calls("dsl.parse"),
            "dsl.parse.kchars_per_s": (
                self.traced_chars / rounds / 1e3 / parse_s if parse_s else 0.0
            ),
            "ir.build_ir.self_s": self_s("ir.build_ir"),
            "ir.analysis_cache_entries": analysis_cache_size(),
            "codegen.lower.self_s": self_s("codegen.lower"),
            "codegen.emit_cuda.self_s": self_s("codegen.emit_cuda"),
            "codegen.emit_cuda.calls": calls("codegen.emit_cuda"),
            "codegen.cuda_bytes": per_round(j.cuda_bytes for j in self.traced_jobs),
            "profiling.advise.self_s": self_s("profiling.advise"),
            "profiling.advise.calls": calls("profiling.advise"),
            "tuning.tune.self_s": self_s("tuning.tune"),
            "tuning.tune.calls": calls("tuning.tune"),
            # Deep tuning runs only on iterative programs and fission only
            # on spatial ones, so their self times are reported together:
            # a time that is 0 on a whole workload measures nothing.
            "tuning.variants.self_s": (
                self_s("tuning.deep_tune")
                + self_s("tuning.fusion_schedule")
                + self_s("tuning.fission")
            ),
            "tuning.deep_tune.calls": calls("tuning.deep_tune"),
            "tuning.fission.calls": calls("tuning.fission"),
            "evaluator.requests": requests,
            "evaluator.hits": stat("hits"),
            "evaluator.screened": stat("screened"),
            "evaluator.priced": priced,
            "evaluator.vectorized": stat("vectorized"),
            "evaluator.simulate_calls": priced - stat("vectorized"),
            "evaluator.rungs_skipped": stat("rungs_skipped"),
            "evaluator.useful_frac": priced / requests if requests else 0.0,
            "evaluator.engine_busy_s": per_round(s.wall_s * k for s, k in scaled),
            "evaluator.evaluate_batch.self_s": self_s("evaluator.evaluate_batch"),
            "gpu.price_family.self_s": self_s("gpu.price_family"),
            "gpu.price_family.calls": calls("gpu.price_family"),
            "gpu.price_family.lanes": per_round(j.lanes for j in self.traced_jobs),
            "gpu.simulate.self_s": self_s("gpu.simulate"),
            "gpu.simulate.calls": calls("gpu.simulate"),
            "lint.certify.self_s": self_s("lint.certify"),
            "lint.certify.calls": calls("lint.certify"),
            "lint.prescreen.self_s": self_s("lint.prescreen"),
            "lint.prescreen.calls": calls("lint.prescreen"),
            "lint.rejections": stat("lint_rejections"),
            "obs.explain.self_s": self_s("obs.explain"),
            "obs.search_events": per_round(j.search_events for j in self.traced_jobs),
            # Journals exist only in journal-resume; as shares, the other
            # workloads read 0 without reporting a time of 0.
            "resilience.journal.time_frac": journal_s / traced_s,
            "resilience.journal.records": calls("resilience.journal.record"),
            "resilience.journal.bytes": self.journal_bytes / rounds,
            "resilience.journal.lookup_hits": self.tracer.lookup_hits / rounds,
            "resilience.resume_frac": (
                statistics.median(resumes) / statistics.median(writes)
                if resumes
                else 0.0
            ),
            "runtime.gc.self_s": self_s("runtime.gc"),
            "runtime.gc.collections": calls("runtime.gc"),
            "verify.execute_s": self.verify_s,
            "verify.jobs": self.attempted,
            "trace_overhead_frac": statistics.median(self.overhead),
        }


def _round_record(**counts) -> dict:
    """A round: calibrated ``(pair key, seconds)`` of its ``jobs`` and
    ``resumes``, their raw ``samples``, and deterministic counts."""
    return dict(jobs=[], resumes=[], samples=[], **counts)


def _add(record: dict, kind: str, key: str, sample: dict) -> None:
    record[kind].append((key, sample["s"]))
    record["samples"].append(dict(sample, key=key, kind=kind))


def _resume_problem(key: str, written: JobResult, resumed: JobResult) -> Optional[str]:
    if (written.outcome is None) != (resumed.outcome is None):
        return f"{key}: resumed run ended differently from its write run"
    if written.outcome is not None and outcome_digest(
        written.outcome
    ) != outcome_digest(resumed.outcome):
        return f"{key}: resumed winner differs from the written one"
    return None


def _past_deadline(start: float, done: int) -> bool:
    """Could another round end past ``DEADLINE_S``?"""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done > DEADLINE_S


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def _tail_index(count: int) -> int:
    # The slowest sample with TAIL_SAMPLES samples beyond it, but never
    # below the median (runs of fewer than 2 * TAIL_SAMPLES + 1 jobs).
    return max(count // 2, count - TAIL_SAMPLES - 1)


def tail(samples: List[float]) -> float:
    """The highest percentile with ``TAIL_SAMPLES`` samples beyond it."""
    return sorted(samples)[_tail_index(len(samples))]


def tail_percentile(count: int) -> float:
    """Percentile :func:`tail` reports for ``count`` samples."""
    return 100.0 * (_tail_index(count) + 1) / count


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    rounds: Optional[int] = None,
    pairs: Optional[int] = None,
) -> dict:
    """Measure one workload; the result record ``run.py`` reports.

    ``rounds`` and ``pairs`` override the run length (the smoke test
    runs one job per workload).
    """
    workload = WORKLOADS[name]
    if pairs is not None:
        workload = replace(workload, pairs=workload.pairs[:pairs])
    if rounds is None:
        rounds = round_count(workload, seconds)
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, trace, work)
    if trace:
        run.tracer.install()
    try:
        if workload.cli:
            run.run_cli(rounds)
        else:
            # With tracing, each pair runs twice (plain and traced), so
            # half the rounds keep the run the same length.
            run.run_inprocess(max(1, rounds // 2) if trace else rounds)
    finally:
        if trace:
            run.tracer.uninstall()
    jobs = [s for r in run.rounds for _, s in r["jobs"]]
    record = {
        "workload": name,
        "seed": seed,
        "rounds": len(run.rounds),
        "samples": [r["samples"] for r in run.rounds],
        "jobs": len(jobs),
        "job_tail_percentile": tail_percentile(len(jobs)),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:20],
        "digests": run.digests,
        "counts": {
            "attempted_per_round": run.attempted // len(run.rounds),
            "winners": len(run.digests),
            "cuda_bytes": run.rounds[0]["cuda_bytes"],
            "requests": run.rounds[0]["requests"],
        },
        "metrics": run.end_to_end(),
    }
    if trace:
        traced_rounds = 1 if workload.cli else len(run.rounds)
        record["layers"] = run.layers(traced_rounds)
        trace_path = Path(f"trace-{name}.json")
        run.tracer.write_chrome(str(trace_path))
        record["trace_file"] = str(trace_path)
    return record


def write_expected(path: Path, work: Path) -> None:
    """Record every workload's expected outcomes from this build.

    Each winner must certify and execute correctly before it is
    recorded; a run that cannot verify its own winners writes nothing.
    """
    expected: Dict[str, Dict[str, object]] = {}
    work.mkdir(parents=True, exist_ok=True)
    journal = work / "expected.jsonl"
    for workload in WORKLOADS.values():
        table = expected.setdefault(workload.name, {})
        for program, device in workload.pairs:
            source = BENCHMARKS[program].dsl()
            if journal.exists():
                journal.unlink()
            result = tune_job(
                source,
                get_device(device),
                workload.iterations,
                str(journal) if workload.journal else None,
            )
            key = pair_key(program, device)
            if result.error is not None:
                table[key] = error_outcome(result.error)
            else:
                problem = check_winner(source, result.outcome)
                if problem:
                    raise SystemExit(f"{workload.name} {key}: {problem}")
                table[key] = outcome_digest(result.outcome)
            print(f"{workload.name:15s} {key:22s} {table[key]}", file=sys.stderr)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result record (JSON)")
    parser.add_argument(
        "--work", type=Path, required=True,
        help="scratch directory for journals and CLI outputs",
    )
    parser.add_argument("--write-expected", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    if args.write_expected:
        write_expected(args.write_expected, args.work)
        return 0
    if not args.workload or not args.out:
        parser.error("--workload and --out are required")
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.work
    )
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
