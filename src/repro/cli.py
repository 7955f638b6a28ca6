"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

* ``characteristics <spec.dsl | benchmark>`` — print the Table-I-style
  characteristics of a specification.
* ``optimize <spec.dsl | benchmark>``        — run the full ARTEMIS flow
  and print the optimization report.
* ``cuda <spec.dsl | benchmark>``            — emit the baseline CUDA.
* ``profile <spec.dsl | benchmark>``         — profile the baseline and
  print the nvprof-style metrics plus the roofline verdicts.
* ``suite``                                  — list the 11 built-in
  benchmarks.
* ``deep-tune <benchmark> [-T N]``           — deep-tune an iterative
  benchmark and print the fusion schedule for N iterations.
* ``lint [specs...] [--suite] [--examples DIR]`` — statically verify
  DSL specifications (``repro.lint`` rule catalog; ``--json`` /
  ``--sarif`` for machine-readable findings; exit 1 on errors).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .codegen.generator import generate_baseline, lower
from .gpu.device import DEVICES, DeviceSpec, P100, device_names, get_device
from .ir.analysis import characteristics
from .obs import (
    configure_metrics,
    configure_tracing,
    get_tracer,
    run_series,
    tracing_enabled,
    write_trace,
)
from .obs.explain import build_explain, format_explain
from .obs.search import SearchLog, read_events
from .pipeline import format_report, optimize
from .profiling import classify_result, profile
from .resilience import (
    ReproError,
    TuningJournal,
    UsageError,
    atomic_write_json,
    atomic_write_text,
)
from .suite import BENCHMARKS, get as get_benchmark
from .tuning import PlanEvaluator
from .tuning.deeptuning import check_iterations


def _unknown_spec(source: str) -> UsageError:
    return UsageError(
        f"{source!r} is neither a built-in benchmark "
        f"({', '.join(BENCHMARKS)}) nor a file"
    )


def _spec_text(source: str) -> str:
    """The text of the spec file ``source``; a missing, directory or
    unreadable path is a :class:`UsageError`."""
    path = Path(source)
    if not path.exists():
        raise _unknown_spec(source)
    if path.is_dir():
        raise UsageError(f"{source!r} is a directory, not a spec file")
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read {source!r}: {reason}") from None


def _load(source: str):
    """Resolve a positional argument: a benchmark name or a DSL file."""
    if source in BENCHMARKS:
        return get_benchmark(source).ir()
    return lower(_spec_text(source))


#: The flags that name a file a command writes, by ``args`` attribute.
_OUTPUT_FLAGS = {
    "json": "--json",
    "search_log": "--search-log",
    "trace": "--trace",
    "checkpoint": "--checkpoint",
    "sarif": "--sarif",
    "output": "--output",
}


def _check_flags(args) -> None:
    """Refuse, before any work, a flag the run could not honour: an
    output path in a missing directory or naming a directory, or a
    ``--metrics-port`` outside 0-65535."""
    for attr, flag in _OUTPUT_FLAGS.items():
        path = getattr(args, attr, None)
        if not isinstance(path, str):
            continue  # not given (or the devices --json switch)
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise UsageError(
                f"{flag}: cannot write {path!r}: directory {directory!r} "
                "does not exist"
            )
        if os.path.isdir(path):
            raise UsageError(f"{flag}: {path!r} is a directory")
    port = getattr(args, "metrics_port", None)
    if port is not None and not 0 <= port <= 65535:
        raise UsageError(f"--metrics-port must be in 0-65535, not {port}")


def _device(name: str) -> DeviceSpec:
    # get_device raises UsageError (exit code 2) for unknown names.
    return get_device(name)


def _obs_begin(args) -> None:
    """Start tracing, and empty the metrics registry, when a command's
    flags ask for either, so the run's outputs show the run alone."""
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    metrics_port = getattr(args, "metrics_port", None)
    if trace_path:
        configure_tracing(True, clear=True)
    if trace_path or want_metrics or metrics_port is not None:
        configure_metrics(reset=True)


def _obs_finish(args) -> None:
    """Write the trace file / print metrics, then stop tracing.

    Both show :func:`~repro.obs.metrics.run_series` of the run's
    ``EvalStats``, the series a ``/metrics`` scrape exposes.
    """
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if not (trace_path or want_metrics):
        return
    series = run_series(getattr(args, "_eval_stats", None))
    if trace_path:
        write_trace(
            trace_path,
            metrics=series,
            fmt=getattr(args, "trace_format", "chrome"),
            search_events=getattr(args, "_search_events", None),
        )
        spans = len(get_tracer().finished())
        print(f"trace: {spans} spans written to {trace_path}", file=sys.stderr)
        configure_tracing(False)
    if want_metrics:
        _print_metrics(series)


def _print_metrics(series) -> None:
    print("\npipeline metrics:")
    if not series:
        print("  (none recorded)")
        return
    for name, value in series.items():
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {rendered}")


def _start_metrics_server(args, engine):
    """Serve ``/metrics`` for the run's duration when --metrics-port asks.

    Each scrape exposes the registry plus the engine's *current*
    EvalStats, so a live endpoint sees evaluation traffic mid-run.
    """
    port = getattr(args, "metrics_port", None)
    if port is None:
        return None
    from .obs import MetricsHTTPServer

    try:
        server = MetricsHTTPServer(
            collect=lambda: run_series(engine.stats), port=port
        ).start()
    except OSError as exc:
        raise UsageError(
            f"--metrics-port {port}: cannot serve: {exc.strerror or exc}"
        ) from None
    print(f"metrics: serving {server.url}", file=sys.stderr)
    return server


def _stop_metrics_server(server) -> None:
    if server is not None:
        server.stop()


def _open_journal(args, device: DeviceSpec) -> Optional[TuningJournal]:
    """Open the checkpoint journal named by --checkpoint/--resume."""
    path = getattr(args, "checkpoint", None)
    if path is None:
        if getattr(args, "resume", False):
            raise UsageError("--resume requires --checkpoint PATH")
        return None
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    if exists and not args.resume:
        raise UsageError(
            f"checkpoint {path} already exists; pass --resume to continue "
            f"it, or remove the file to start fresh"
        )
    if args.resume and not exists:
        raise UsageError(f"cannot --resume: checkpoint {path} does not exist")
    journal = TuningJournal(path, device=device.name)
    if journal.replayable:
        print(
            f"checkpoint: resuming from {path} "
            f"({journal.replayable} journaled records)",
            file=sys.stderr,
        )
    return journal


def cmd_characteristics(args) -> int:
    ir = _load(args.spec)
    row = characteristics(ir)
    print(f"domain          : {'x'.join(str(d) for d in row.domain)}")
    print(f"time iterations : {row.time_iterations}")
    print(f"stencil order   : {row.order}")
    print(f"FLOPs per point : {row.flops_per_point}")
    print(f"I/O arrays      : {row.io_arrays}")
    print(f"theoretical OI  : {row.theoretical_oi:.2f} FLOP/byte")
    print(f"kernels         : {', '.join(k.name for k in ir.kernels)}")
    return 0


def _open_search_log(args, engine, device) -> Optional[SearchLog]:
    """Attach a SearchLog when --search-log/--explain/--json ask for one.

    The explain engine and the JSON payload both derive from the same
    candidate event stream, so any of the three flags arms collection;
    only --search-log also persists it.  Tracing is enabled for the
    duration when not already on, so the log's ``phase`` footer records
    (per-phase timing aggregates) are always present.
    """
    wants = (
        getattr(args, "search_log", None)
        or getattr(args, "explain", False)
        or getattr(args, "json", None)
    )
    if not wants:
        return None
    log = SearchLog(path=getattr(args, "search_log", None), device=device)
    engine.search_log = log
    if not tracing_enabled():
        configure_tracing(True, clear=True)
        args._own_tracing = True
    return log


def _close_search_log(args, log: Optional[SearchLog]) -> None:
    """Emit the phase footer, persist, and hand events to _obs_finish."""
    if log is None:
        return
    try:
        log.phases(get_tracer().finished())
    finally:
        if getattr(args, "_own_tracing", False):
            configure_tracing(False)
        log.close()
        # _obs_finish reads these to add the candidate instant track to
        # a --trace export.
        args._search_events = log.events()


def _optimize_json_payload(args, device, outcome, report) -> dict:
    payload = {
        "spec": args.spec,
        "device": device.name,
        "variant": outcome.variant,
        "tflops": outcome.tflops,
        "evaluations": outcome.evaluations,
        "hints": list(outcome.hints),
        "schedule": [
            {"plan": plan.describe(), "count": count}
            for plan, count in zip(
                outcome.schedule.plans, outcome.schedule.counts
            )
        ],
        "eval_stats": (
            outcome.eval_stats.as_dict()
            if outcome.eval_stats is not None
            else None
        ),
    }
    if report is not None:
        payload["explain"] = report.as_dict()
    return payload


def cmd_optimize(args) -> int:
    if args.iterations is not None:
        check_iterations(args.iterations)
    ir = _load(args.spec)
    device = _device(args.device)
    engine = PlanEvaluator(device=device)
    # The run's EvalStats for --metrics and --trace, a failed run's too.
    args._eval_stats = engine.stats
    server = _start_metrics_server(args, engine=engine)
    journal = log = None
    try:
        journal = _open_journal(args, device)
        log = _open_search_log(args, engine, device)
        outcome = optimize(
            ir,
            device=device,
            iterations=args.iterations,
            top_k=args.top_k,
            evaluator=engine,
            journal=journal,
        )
        if log is not None and outcome.eval_stats is not None:
            log.summary(outcome.eval_stats)
    finally:
        _stop_metrics_server(server)
        if journal is not None:
            journal.close()
        _close_search_log(args, log)
    # --explain and --json share one report, built from the log.
    report = (
        build_explain(log.events()) if args.explain or args.json else None
    )
    print(format_report(outcome, device))
    if args.explain:
        print(format_explain(report))
    if args.eval_stats and outcome.eval_stats is not None:
        _print_eval_stats(outcome.eval_stats)
    if args.json:
        payload = _optimize_json_payload(args, device, outcome, report)
        atomic_write_json(args.json, payload, indent=2)
        print(f"json: outcome written to {args.json}", file=sys.stderr)
    if args.search_log:
        print(
            f"search log: {log.candidate_count()} candidate event(s) "
            f"written to {args.search_log}",
            file=sys.stderr,
        )
    return 0


def _print_eval_stats(stats) -> None:
    print("\nevaluation engine statistics:")
    for name, value in stats.as_dict().items():
        if isinstance(value, float):
            print(f"  {name:20s} {value:.6f}")
        else:
            print(f"  {name:20s} {value}")


def cmd_cuda(args) -> int:
    ir = _load(args.spec)
    generated = generate_baseline(ir, device=_device(args.device))
    print(generated.source)
    return 0


def cmd_profile(args) -> int:
    from .obs import span

    ir = _load(args.spec)
    device = _device(args.device)
    with span("lower"):
        generated = generate_baseline(ir, device=device)
    kernels = []
    for plan in generated.schedule.plans:
        with span("profile", kernels="+".join(plan.kernel_names)):
            report = profile(ir, plan, device)
            verdict = classify_result(report.result, device)
        print(f"== {plan.describe()} ==")
        for name, value in report.metrics.items():
            print(f"  {name:28s} {value:.4g}")
        for level in ("dram", "tex", "shm"):
            entry = verdict.verdict(level)
            print(
                f"  OI_{level:4s} = {entry.oi:8.3f}  "
                f"(ridge {entry.ridge:.2f}) -> {entry.verdict}"
            )
        print(f"  bound at: {verdict.bound_level}")
        kernels.append(
            {
                "plan": plan.describe(),
                "metrics": dict(report.metrics),
                "verdicts": {
                    level: {
                        "oi": verdict.verdict(level).oi,
                        "ridge": verdict.verdict(level).ridge,
                        "verdict": verdict.verdict(level).verdict,
                    }
                    for level in ("dram", "tex", "shm")
                },
                "bound_level": verdict.bound_level,
            }
        )
    if getattr(args, "json", None):
        atomic_write_json(
            args.json,
            {"spec": args.spec, "device": device.name, "kernels": kernels},
            indent=2,
        )
        print(f"json: profile written to {args.json}", file=sys.stderr)
    return 0


def cmd_suite(args) -> int:
    print(f"{'benchmark':15s} {'domain':12s} {'T':>3s} {'k':>2s} "
          f"{'FLOPs':>6s} {'arrays':>6s}  notes")
    for name, spec in BENCHMARKS.items():
        domain = "x".join(str(d) for d in spec.domain)
        print(
            f"{name:15s} {domain:12s} {spec.time_iterations:3d} "
            f"{spec.order:2d} {spec.flops_per_point:6d} "
            f"{spec.io_arrays:6d}  {spec.notes}"
        )
    return 0


def cmd_deep_tune(args) -> int:
    from .tuning import deep_tune, fusion_schedule

    check_iterations(args.iterations)
    ir = _load(args.spec)
    if not ir.is_iterative:
        raise UsageError("deep tuning applies to iterative stencils")
    if len(ir.kernels) > 1:
        from .tuning.fusion import maxfuse

        ir = maxfuse(ir)
    device = _device(args.device)
    engine = PlanEvaluator(device=device)
    # The run's EvalStats for --metrics and --trace, a failed run's too.
    args._eval_stats = engine.stats
    server = _start_metrics_server(args, engine=engine)
    journal = None
    try:
        journal = _open_journal(args, device)
        result = deep_tune(ir, evaluator=engine, journal=journal)
    finally:
        _stop_metrics_server(server)
        if journal is not None:
            journal.close()
    if args.eval_stats and result.eval_stats is not None:
        _print_eval_stats(result.eval_stats)
    for entry in result.entries:
        marker = (
            "  <-- tipping point"
            if entry.time_tile == result.tipping_point
            else ""
        )
        print(
            f"({entry.time_tile} x 1): {entry.tflops:6.3f} TFLOPS, "
            f"bound at {entry.bound_level}{marker}"
        )
    schedule = fusion_schedule(result, args.iterations)
    print(
        f"\nschedule for T={args.iterations}: {schedule.describe()} "
        f"({schedule.total_time_s * 1e3:.2f} ms)"
    )
    return 0


def cmd_report(args) -> int:
    from .obs.report_html import render_html

    events = read_events(args.log)
    out = args.output or str(Path(args.log).with_suffix(".html"))
    document = render_html(events, title=args.title, top_k=args.top_k)
    atomic_write_text(out, document)
    candidates = sum(1 for e in events if e.get("kind") == "candidate")
    print(f"report: {candidates} candidate(s) rendered to {out}")
    return 0


def cmd_lint(args) -> int:
    from .lint import lint_source, extract_dsl_blocks
    from .lint.sarif import write_sarif

    targets = []  # (artifact, dsl_source)
    for spec in args.specs:
        if spec in BENCHMARKS:
            targets.append((spec, get_benchmark(spec).dsl()))
            continue
        path = Path(spec)
        text = _spec_text(spec)
        if path.suffix == ".py":
            blocks = extract_dsl_blocks(text)
            if not blocks:
                print(f"{path}: no DSL blocks found", file=sys.stderr)
            for start, block in blocks:
                targets.append((f"{path}:{start}", block))
        else:
            targets.append((str(path), text))
    if args.suite:
        for name in BENCHMARKS:
            targets.append((name, get_benchmark(name).dsl()))
    if args.examples:
        root = Path(args.examples)
        if not root.is_dir():
            raise UsageError(f"--examples: {args.examples!r} is not a directory")
        for path in sorted(root.glob("*.py")):
            for start, block in extract_dsl_blocks(path.read_text()):
                targets.append((f"{path}:{start}", block))
    if not targets:
        raise UsageError(
            "nothing to lint: pass a spec, --suite, or --examples DIR"
        )

    reports = [lint_source(source, artifact=name) for name, source in targets]
    findings = sum(len(r) for r in reports)
    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)

    if args.json:
        atomic_write_json(
            args.json,
            {
                "artifacts": [r.as_dict() for r in reports],
                "totals": {
                    "artifacts": len(reports),
                    "findings": findings,
                    "errors": errors,
                    "warnings": warnings,
                },
            },
            indent=2,
        )
        print(f"lint: JSON written to {args.json}", file=sys.stderr)
    if args.sarif:
        write_sarif(reports, args.sarif)
        print(f"lint: SARIF written to {args.sarif}", file=sys.stderr)

    for report in reports:
        if report:
            print(report.render())
    print(
        f"lint: {len(reports)} artifact(s), {findings} finding(s) "
        f"({errors} error(s), {warnings} warning(s))"
    )
    return 1 if errors else 0


def cmd_certify(args) -> int:
    """Prove every plan transformation legal (``repro certify``).

    Runs the RL3xx dependence certifier over explicit plans (``--plan``),
    the winners of journalled tuning units (``--journal``,
    read through the journal's validating loader, so a damaged journal
    exits 4 naming the line), or — when neither is
    given — each program's per-kernel seed plans.  Exit 1 when any plan
    is refuted; refutations carry replayable witnesses in ``--json`` and
    ``--sarif`` output.
    """
    import json as _json
    from dataclasses import replace as _restamp

    from .codegen.resources import (
        InvalidPlan,
        seed_plan_from_pragma,
        validate_plan,
    )
    from .lint import (
        Diagnostic,
        LintReport,
        certification_advisories,
        certify_plan_transformations,
        extract_dsl_blocks,
    )
    from .lint.rules_plan import RL204
    from .lint.sarif import write_sarif
    from .resilience.checkpoint import plan_from_dict, read_journal

    programs = [(spec, _load(spec)) for spec in args.specs]
    if args.suite:
        for name in BENCHMARKS:
            programs.append((name, get_benchmark(name).ir()))
    if args.examples:
        root = Path(args.examples)
        if not root.is_dir():
            raise UsageError(
                f"--examples: {args.examples!r} is not a directory"
            )
        for path in sorted(root.glob("*.py")):
            for start, block in extract_dsl_blocks(path.read_text()):
                programs.append((f"{path}:{start}", lower(block)))
    if not programs:
        raise UsageError(
            "nothing to certify: pass a spec, --suite, or --examples DIR"
        )

    explicit = []  # plans certified against every resolved program
    for path in args.plan or []:
        plan_path = Path(path)
        if not plan_path.exists():
            raise UsageError(f"--plan: {path!r} does not exist")
        if plan_path.is_dir():
            raise UsageError(f"--plan: {path!r} is a directory")
        data = _json.loads(plan_path.read_text())
        for entry in data if isinstance(data, list) else [data]:
            try:
                explicit.append(plan_from_dict(entry))
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(
                    f"--plan: {path!r} is not a serialized KernelPlan: {exc}"
                ) from None
    for path in args.journal or []:
        if not Path(path).exists():
            raise UsageError(f"--journal: {path!r} does not exist")
        if Path(path).is_dir():
            raise UsageError(f"--journal: {path!r} is a directory")
        _, records = read_journal(path)
        explicit.extend(
            dict.fromkeys(plan_from_dict(record["plan"]) for record in records)
        )

    reports = []
    plans_total = 0
    for name, ir in programs:
        plans = explicit or [
            seed_plan_from_pragma(ir, instance) for instance in ir.kernels
        ]
        for plan in plans:
            plans_total += 1
            artifact = f"{name}::plan({','.join(plan.kernel_names)})"
            findings = [
                _restamp(d, artifact=artifact)
                for d in certify_plan_transformations(ir, plan)
            ]
            try:
                validate_plan(ir, plan)
            except InvalidPlan as exc:
                # Only surface RL204 when no refutation already explains
                # the invalidity (a multi-kernel time tile is both).
                if not any(d.severity == "error" for d in findings):
                    findings.append(
                        Diagnostic(RL204, str(exc), artifact=artifact)
                    )
            else:
                findings.extend(
                    _restamp(d, artifact=artifact)
                    for d in certification_advisories(ir, plan)
                )
            reports.append(
                LintReport(tuple(findings), artifact=artifact)
            )

    errors = sum(len(r.errors) for r in reports)
    findings_total = sum(len(r) for r in reports)
    if args.json:
        atomic_write_json(
            args.json,
            {
                "artifacts": [r.as_dict() for r in reports],
                "totals": {
                    "programs": len(programs),
                    "plans": plans_total,
                    "findings": findings_total,
                    "refutations": errors,
                },
            },
            indent=2,
        )
        print(f"certify: JSON written to {args.json}", file=sys.stderr)
    if args.sarif:
        write_sarif(reports, args.sarif)
        print(f"certify: SARIF written to {args.sarif}", file=sys.stderr)

    for report in reports:
        if report:
            print(report.render())
    verdict = (
        "all transformations certified"
        if errors == 0
        else f"{errors} refutation(s)"
    )
    print(
        f"certify: {plans_total} plan(s) across {len(programs)} "
        f"program(s) — {verdict}"
    )
    return 1 if errors else 0


def cmd_devices(args) -> int:
    """List the registered device profiles (``repro devices``)."""
    import json as _json

    specs = [DEVICES[name] for name in device_names()]
    if getattr(args, "json", False):
        from dataclasses import asdict

        payload = {}
        for spec in specs:
            row = asdict(spec)
            row["ridge_dram"] = spec.ridge_dram
            row["ridge_tex"] = spec.ridge_tex
            row["ridge_shm"] = spec.ridge_shm
            payload[spec.name] = row
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{'name':8s} {'vendor':7s} {'SMs':>4s} {'warp':>5s} "
        f"{'peak GF':>8s} {'DRAM GB/s':>10s} {'a/b_dram':>9s} "
        f"{'shm/blk KiB':>12s} {'thr/blk':>8s}"
    )
    for spec in specs:
        print(
            f"{spec.name:8s} {spec.vendor:7s} {spec.sms:4d} "
            f"{spec.warp_size:5d} {spec.peak_gflops:8.0f} "
            f"{spec.dram_bw_gbs:10.1f} {spec.ridge_dram:9.2f} "
            f"{spec.shared_mem_per_block / 1024:12.0f} "
            f"{spec.max_threads_per_block:8d}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARTEMIS-reproduction stencil compiler and autotuner",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="show full tracebacks instead of one-line error messages "
             "(place before the command: repro --debug optimize ...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, iterations_default: Optional[int] = None):
        p.add_argument("spec", help="benchmark name or DSL file path")
        p.add_argument(
            "--device", default="P100",
            help=f"device profile ({', '.join(device_names())}; "
                 f"see 'repro devices')",
        )
        return p

    p = add_common(sub.add_parser(
        "characteristics", help="Table-I characteristics of a spec"
    ))
    p.set_defaults(func=cmd_characteristics)

    def add_eval_flags(p):
        p.add_argument(
            "--eval-stats", action="store_true",
            help="print evaluation-engine cache/throughput statistics",
        )
        return p

    def add_checkpoint_flags(p):
        p.add_argument(
            "--checkpoint", metavar="PATH", default=None,
            help="journal each finished tuning unit to PATH (crash-safe "
                 "JSONL: a crash loses at most the unit in flight; see "
                 "docs/robustness.md)",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="resume an interrupted run from the --checkpoint journal",
        )
        return p

    def add_obs_flags(p):
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="record a span trace of the run and write it to PATH "
                 "(open in chrome://tracing or ui.perfetto.dev)",
        )
        p.add_argument(
            "--trace-format", choices=("chrome", "flat"), default="chrome",
            help="trace file format: chrome://tracing object (default) "
                 "or flat span/metrics JSON",
        )
        p.add_argument(
            "--metrics", action="store_true",
            help="print the run's pipeline metrics after it",
        )
        return p

    def add_metrics_port_flag(p):
        p.add_argument(
            "--metrics-port", type=int, default=None, metavar="PORT",
            help="serve live Prometheus metrics on 127.0.0.1:PORT "
                 "(/metrics and /healthz) for the run's duration; "
                 "0 picks an ephemeral port",
        )
        return p

    p = add_common(sub.add_parser("optimize", help="run the full flow"))
    p.add_argument("-T", "--iterations", type=int, default=None,
                   help="time-iteration count for iterative stencils")
    p.add_argument("--top-k", type=int, default=4,
                   help="stage-1 survivors carried into stage 2")
    p.add_argument(
        "--search-log", metavar="PATH", default=None,
        help="record one JSONL event per evaluated candidate to PATH "
             "(render with 'repro report PATH')",
    )
    p.add_argument(
        "--explain", action="store_true",
        help="print the why-this-plan explanation (winner vs runners-up, "
             "advisor rules, convergence) after the report",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the outcome (schedule, stats, explanation) as JSON",
    )
    add_eval_flags(p)
    add_checkpoint_flags(p)
    add_obs_flags(p)
    add_metrics_port_flag(p)
    p.set_defaults(func=cmd_optimize)

    p = add_common(sub.add_parser("cuda", help="emit the baseline CUDA"))
    p.set_defaults(func=cmd_cuda)

    p = add_common(sub.add_parser("profile", help="profile the baseline"))
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the metrics and roofline verdicts as JSON",
    )
    add_obs_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("suite", help="list the built-in benchmarks")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("devices", help="list the registered device profiles")
    p.add_argument(
        "--json", action="store_true",
        help="emit the full profiles (all model knobs) as JSON",
    )
    p.set_defaults(func=cmd_devices)

    p = add_common(sub.add_parser(
        "deep-tune", help="deep-tune an iterative stencil"
    ))
    p.add_argument("-T", "--iterations", type=int, default=12)
    add_eval_flags(p)
    add_checkpoint_flags(p)
    add_obs_flags(p)
    add_metrics_port_flag(p)
    p.set_defaults(func=cmd_deep_tune)

    p = sub.add_parser(
        "report", help="render a search log as a standalone HTML report"
    )
    p.add_argument("log", help="search-log JSONL file (from --search-log)")
    p.add_argument(
        "-o", "--output", default=None,
        help="output HTML path (default: the log path with .html)",
    )
    p.add_argument(
        "--title", default="ARTEMIS search report", help="report title"
    )
    p.add_argument(
        "--top-k", type=int, default=3,
        help="runners-up shown in the explanation",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "lint", help="statically verify DSL specs (repro.lint rules)"
    )
    p.add_argument(
        "specs", nargs="*",
        help="benchmark names, DSL files, or Python files with embedded "
             "DSL blocks",
    )
    p.add_argument(
        "--suite", action="store_true",
        help="also lint every built-in suite benchmark",
    )
    p.add_argument(
        "--examples", metavar="DIR", default=None,
        help="extract and lint DSL blocks from every *.py under DIR",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write all findings as JSON to PATH",
    )
    p.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="write all findings as SARIF 2.1.0 to PATH",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "certify",
        help="prove plan transformations legal (RL3xx dependence certifier)",
    )
    p.add_argument(
        "specs", nargs="*",
        help="benchmark names or DSL files the plans apply to",
    )
    p.add_argument(
        "--plan", action="append", metavar="PATH", default=None,
        help="JSON plan (or list of plans) to certify; repeatable",
    )
    p.add_argument(
        "--journal", action="append", metavar="PATH", default=None,
        help="certify the winner plans recorded in a tuning journal "
             "(JSONL checkpoint); repeatable",
    )
    p.add_argument(
        "--suite", action="store_true",
        help="also certify every built-in suite benchmark's seed plans",
    )
    p.add_argument(
        "--examples", metavar="DIR", default=None,
        help="certify seed plans of DSL blocks in every *.py under DIR",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write certification results (witnesses included) as JSON",
    )
    p.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="write certification results as SARIF 2.1.0",
    )
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
    except ReproError as exc:
        return _failed(args, exc)
    _obs_begin(args)
    try:
        return args.func(args)
    except ReproError as exc:
        return _failed(args, exc)
    finally:
        _obs_finish(args)


def _failed(args, exc: ReproError) -> int:
    """Error hygiene: one line per failure, mapped to a stable exit
    status (2 usage, 3 infeasible input, 4 evaluation/checkpoint
    failure).  --debug restores the traceback."""
    if getattr(args, "debug", False):
        raise exc
    print(f"error: {exc.describe()}", file=sys.stderr)
    return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
