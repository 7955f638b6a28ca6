"""Candidate-level search telemetry for the tuning engines.

ARTEMIS's pitch is *profiling-driven* optimization: every fusion,
fission and tiling decision is justified by the analytical model's
counters.  The span/metrics layers say where wall time went; this module
records **what the search actually did** — one event per candidate the
evaluation engine priced, with the model's full prediction attached —
so a user can ask "which candidates were considered, why were the losers
pruned, and why did the winner win?" and get a machine-readable answer.

The log is a JSONL stream (one self-contained JSON object per line):

* a ``header`` record carrying the schema version and the device's
  roofline parameters (peak GFLOPS, per-level bandwidths and ridge
  points — everything a renderer needs to draw the roofline);
* one ``candidate`` record per evaluation-engine request — plan
  fingerprint + config summary, the cache/screen/infeasibility
  disposition with its reason, and (when the model ran or the memo
  cache answered) the predicted time, occupancy, counter snapshot and
  roofline bottleneck class;
* ``prune`` records for candidates the incremental escalation resolved
  without ever entering the model (infeasible at validation, or
  spilling even at the top register level);
* ``skip`` / ``failure`` markers mirroring the engine's ``on_error``
  policy;
* ``replay`` records for candidates served from a checkpoint journal;
* ``advice`` / ``fission`` / ``winner`` records from the pipeline (which
  advisor rules fired, which fission variants were generated, which
  plans won);
* ``phase`` / ``summary`` footer records (per-phase timing aggregates
  and the final :class:`~repro.tuning.evaluator.EvalStats`).

Accounting invariant (pinned by ``tests/obs/test_search.py``): the
number of ``candidate`` records equals ``EvalStats.requests`` exactly —
cache hits, screened, infeasible and injected faults included — so the
log never under- or over-reports what the engine did.

Writing is crash-safe: events accumulate in memory and the whole stream
is serialized through :func:`repro.resilience.atomic_write_text` on
``flush()`` (called automatically every ``flush_every`` events and on
``close()``), so a crash can truncate nothing — the previous complete
snapshot stays on disk.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..resilience.atomic import atomic_write_text
from ..resilience.errors import UsageError

__all__ = [
    "SEARCH_LOG_VERSION",
    "SearchLog",
    "log_context",
    "read_events",
]

SEARCH_LOG_VERSION = 1

#: Candidate dispositions (the ``disposition`` field of ``candidate``
#: records).  ``simulated`` went to the full model; ``cache-hit`` /
#: ``cache-hit-infeasible`` were answered by the memo cache; ``screened``
#: was rejected by the occupancy prescreen; ``infeasible`` failed
#: validation or simulation; ``error`` is an unexpected (injected or
#: real) fault, resolved by the resilience policy.
DISPOSITIONS = (
    "simulated",
    "cache-hit",
    "cache-hit-infeasible",
    "screened",
    "infeasible",
    "error",
)


def _config_summary(plan) -> Dict[str, Any]:
    """Compact, human-scannable summary of a plan's decisions."""
    config: Dict[str, Any] = {
        "kernels": list(plan.kernel_names),
        "block": list(plan.block),
        "registers": plan.max_registers,
    }
    if plan.time_tile > 1:
        config["time_tile"] = plan.time_tile
    if plan.uses_streaming:
        config["streaming"] = plan.streaming
        config["stream_axis"] = plan.stream_axis
        if plan.concurrent_chunks > 1:
            config["chunks"] = plan.concurrent_chunks
    if plan.unroll and any(u > 1 for u in plan.unroll):
        config["unroll"] = list(plan.unroll)
    if plan.prefetch:
        config["prefetch"] = True
    if plan.retime:
        config["retime"] = True
    if plan.fold_groups:
        config["folds"] = len(plan.fold_groups)
    if plan.perspective != "output":
        config["perspective"] = plan.perspective
    shm = [a for a, s in plan.placements if s == "shmem"]
    if shm:
        config["shmem"] = shm
    return config


def _result_payload(result, device) -> Dict[str, Any]:
    """The model's prediction for one candidate, flattened for JSONL."""
    from ..profiling.roofline import classify_result

    counters = result.counters
    verdict = classify_result(result, device) if device is not None else None
    payload: Dict[str, Any] = {
        "time_ms": result.time_ms,
        "gflops": result.tflops * 1e3,
        "occupancy": result.occupancy.occupancy,
        "counters": {
            "flops": counters.flops,
            "useful_flops": counters.useful_flops,
            "dram_bytes": counters.dram_bytes,
            "tex_bytes": counters.tex_bytes,
            "shm_bytes": counters.shm_bytes,
            "spill_bytes": counters.spill_bytes,
            "regs_per_thread": counters.regs_per_thread,
            "regs_demand": counters.regs_demand,
            "oi_dram": counters.oi("dram"),
            "oi_tex": counters.oi("tex"),
            "oi_shm": counters.oi("shm"),
        },
    }
    if verdict is not None:
        payload["bottleneck"] = verdict.bound_level
    return payload


def _device_payload(device) -> Dict[str, Any]:
    return {
        "name": device.name,
        "peak_gflops": device.peak_gflops,
        "dram_bw_gbs": device.dram_bw_gbs,
        "tex_bw_gbs": device.tex_bw_gbs,
        "shm_bw_gbs": device.shm_bw_gbs,
        "ridge_dram": device.ridge("dram"),
        "ridge_tex": device.ridge("tex"),
        "ridge_shm": device.ridge("shm"),
    }


class SearchLog:
    """Collects candidate-level search events; optionally streams JSONL.

    One log serves one search run (typically one ``optimize`` or
    ``deep-tune`` invocation) on one thread, like the evaluator that
    feeds it.

    With ``path=None`` the log is in-memory only (``--explain`` without
    ``--search-log`` uses this); with a path, :meth:`flush` serializes
    the complete event stream atomically.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        device=None,
        flush_every: int = 256,
    ):
        self.path = path
        self.device = device
        self.flush_every = max(1, int(flush_every))
        self._events: List[Dict[str, Any]] = []
        self._counts: Dict[str, int] = {}
        #: merged context tags, innermost scope last
        self._stack: List[Dict[str, Any]] = []
        self._seq = 0
        self._t0 = time.perf_counter()
        self._unflushed = 0
        self._closed = False
        header: Dict[str, Any] = {
            "kind": "header",
            "version": SEARCH_LOG_VERSION,
            "t0_s": self._t0,
        }
        if device is not None:
            header["device"] = _device_payload(device)
        self._events.append(header)

    # -- context tags --------------------------------------------------------

    @contextmanager
    def context(self, **tags):
        """Attach tags to every event emitted in this scope."""
        merged = dict(self._stack[-1]) if self._stack else {}
        merged.update(tags)
        self._stack.append(merged)
        try:
            yield
        finally:
            self._stack.pop()

    # -- emission ------------------------------------------------------------

    def emit(self, kind: str, **fields) -> Dict[str, Any]:
        """Record one event; auto-stamps seq, relative time and context."""
        self._seq += 1
        event: Dict[str, Any] = {
            "kind": kind,
            "seq": self._seq,
            "t_ms": (time.perf_counter() - self._t0) * 1e3,
        }
        event.update(fields)
        context = self._stack[-1] if self._stack else None
        if context:
            event["context"] = dict(context)
        self._events.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if kind == "candidate":
            disposition = fields.get("disposition", "?")
            key = f"candidate.{disposition}"
            self._counts[key] = self._counts.get(key, 0) + 1
        self._unflushed += 1
        if self.path is not None and self._unflushed >= self.flush_every:
            self.flush()
        return event

    def candidate(
        self,
        plan,
        fingerprint: str,
        family: str,
        disposition: str,
        reason: Optional[str] = None,
        result=None,
        device: Optional[str] = None,
    ) -> None:
        """One evaluation-engine request (the core telemetry record).

        ``device`` names the profile the candidate was priced on.  The
        engine always supplies it; when absent, the log's own device
        (the header's) is stamped so every candidate record is
        self-describing even after logs from several devices are merged.
        """
        if device is None and self.device is not None:
            device = self.device.name
        fields: Dict[str, Any] = {
            "fingerprint": fingerprint,
            "family": family,
            "plan": plan.describe(),
            "config": _config_summary(plan),
            "disposition": disposition,
        }
        if device is not None:
            fields["device"] = device
        if reason:
            fields["reason"] = reason
        if result is not None:
            fields.update(_result_payload(result, self.device))
        self.emit("candidate", **fields)

    def prune(self, plan, family: str, reason: str) -> None:
        """A candidate resolved by the escalation logic without the model."""
        self.emit(
            "prune",
            family=family,
            plan=plan.describe(),
            config=_config_summary(plan),
            reason=reason,
        )

    def marker(self, kind: str, plan, **fields) -> None:
        """``on_error`` markers: skip / failure."""
        described = plan.describe() if hasattr(plan, "describe") else str(plan)
        self.emit(kind, plan=described, **fields)

    def replay(self, plan, source: str = "journal") -> None:
        """A candidate answered from a checkpoint journal (not the engine)."""
        self.emit(
            "replay", plan=plan.describe(), source=source,
            config=_config_summary(plan),
        )

    def advice(self, kernel: str, advice) -> None:
        """Which Section IV-A advisor rules fired for one kernel."""
        self.emit(
            "advice",
            kernel=kernel,
            bound_level=advice.bottleneck.bound_level,
            occupancy=advice.bottleneck.occupancy,
            rules=list(advice.hints),
            suppressed=list(advice.suppressed()),
            flags={
                "use_shared_memory": advice.use_shared_memory,
                "use_unrolling": advice.use_unrolling,
                "use_register_opts": advice.use_register_opts,
                "explore_higher_fusion": advice.explore_higher_fusion,
                "explore_fission": advice.explore_fission,
                "generate_global_version": advice.generate_global_version,
            },
        )

    def fission(self, candidates: Sequence) -> None:
        """The fission/fusion DSL variants generated for exploration."""
        self.emit(
            "fission",
            candidates=[
                {"label": c.label, "kernels": len(c.ir.kernels)}
                for c in candidates
            ],
        )

    def winner(self, outcome) -> None:
        """The pipeline's final choice, linked to its candidate records."""
        from ..tuning.evaluator import plan_fingerprint

        self.emit(
            "winner",
            variant=outcome.variant,
            tflops=outcome.tflops,
            evaluations=outcome.evaluations,
            plans=[
                {
                    "fingerprint": plan_fingerprint(plan),
                    "plan": plan.describe(),
                    "count": count,
                }
                for plan, count in zip(
                    outcome.schedule.plans, outcome.schedule.counts
                )
            ],
        )

    def phases(self, spans: Sequence) -> None:
        """Footer: per-phase timing aggregates (from the span tracer)."""
        from .export import aggregate_phases

        for phase in aggregate_phases(spans):
            self.emit(
                "phase",
                name=phase.name,
                count=phase.count,
                total_ms=phase.total_s * 1e3,
                self_ms=phase.self_s * 1e3,
            )

    def summary(self, stats) -> None:
        """Footer: the run's final evaluation-engine statistics."""
        self.emit("summary", stats=stats.as_dict(), counts=self.counts())

    # -- reading / persistence ----------------------------------------------

    def events(self) -> Tuple[Dict[str, Any], ...]:
        return tuple(self._events)

    def counts(self) -> Dict[str, int]:
        """Event counts by kind, plus ``candidate.<disposition>`` splits."""
        return dict(self._counts)

    def candidate_count(self) -> int:
        return self.counts().get("candidate", 0)

    def flush(self) -> None:
        """Atomically write the complete JSONL stream (if a path is set)."""
        if self.path is None:
            return
        lines = [json.dumps(event, default=str) for event in self._events]
        self._unflushed = 0
        atomic_write_text(self.path, "\n".join(lines) + "\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.flush()


def log_context(log: Optional[SearchLog], **tags):
    """``log.context(**tags)`` or a no-op when no log is attached."""
    if log is None:
        return nullcontext()
    return log.context(**tags)


def read_events(path: str) -> List[Dict[str, Any]]:
    """Load a search-log JSONL file.

    The file is written atomically, so a malformed line means damage by
    something other than this writer; the loader fails loudly rather
    than silently analyzing a partial history.
    """
    events: List[Dict[str, Any]] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read search log {path}: {exc}") from exc
    with handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise UsageError(
                    f"{path}:{number}: not a search-log line ({exc.msg})"
                ) from exc
    if not events or events[0].get("kind") != "header":
        raise UsageError(
            f"{path}: not a search log (missing header record)"
        )
    return events
