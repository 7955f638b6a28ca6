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
* a ``failure`` marker naming the candidate that ended the run;
* ``replay`` records for tuning units served from a checkpoint journal
  (one per replayed unit, naming its winner);
* ``advice`` / ``fission`` / ``winner`` records from the pipeline (which
  advisor rules fired, which fission variants were generated, which
  plans won);
* ``phase`` / ``summary`` footer records (per-phase timing aggregates
  and the final :class:`~repro.tuning.evaluator.EvalStats`).

Accounting invariant (pinned by ``tests/obs/test_search.py``): the
number of ``candidate`` records equals ``EvalStats.requests`` exactly —
cache hits, screened, infeasible and errors included — so the
log never under- or over-reports what the engine did.

The ``candidate`` and ``prune`` events of one resolved batch are stored
as one :class:`Block`: the engine's
:class:`~repro.tuning.evaluator.Resolution`, the first ``seq``, one
``t_ms`` and one context for all of them, the lanes that are rows and
the batch's disposition counts.  A row (:class:`_Row`) is made only
when it is read, and renders its plan, config and counter fields when
those are first read; :meth:`SearchLog.events` and the JSONL stream
show the same rows, in the same order, as if every record had been
built eagerly.

Writing is crash-safe: events accumulate in memory and the whole stream
is rewritten through :func:`repro.resilience.atomic_write_text` on
``flush()`` (called automatically every ``flush_every`` events and on
``close()``), so a crash can truncate nothing — the previous complete
snapshot stays on disk.  Each event is encoded once, at the first flush
after it.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from collections.abc import Mapping, Sequence as _Sequence
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..resilience.atomic import atomic_write_text
from ..resilience.errors import UsageError

__all__ = [
    "SEARCH_LOG_VERSION",
    "Block",
    "Events",
    "SearchLog",
    "log_context",
    "read_events",
]

SEARCH_LOG_VERSION = 1

#: Candidate dispositions (the ``disposition`` field of ``candidate``
#: records).  ``simulated`` went to the full model; ``cache-hit`` /
#: ``cache-hit-infeasible`` were answered by the memo cache; ``screened``
#: was refused by the prescreen; ``infeasible`` failed validation.  An
#: unexpected exception ends the run with a ``failure`` marker instead.
DISPOSITIONS = (
    "simulated",
    "cache-hit",
    "cache-hit-infeasible",
    "screened",
    "infeasible",
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


class _Row(Mapping):
    """A ``candidate`` or ``prune`` event, rendered when it is read.

    A search settles tens of thousands of lanes, and a reader looks at
    few of them in detail, so a :class:`Block` makes a row only for a
    lane that is read.  The row stores what its block knows at once
    (kind, sequence, time, context, disposition, device and predicted
    GFLOPS) plus its lane of the resolved batch (``source``, ``index``:
    :class:`~repro.tuning.evaluator.Resolution`), which builds its plan,
    reason and :class:`~repro.gpu.counters.SimulationResult` on demand.
    Reading ``fingerprint`` computes only the fingerprint; reading any
    other field renders the full record once — the same keys, in the
    same order, as the record the JSONL stream holds.  A cheap key the
    record lacks answers the default without rendering.
    """

    __slots__ = (
        "kind", "seq", "t_ms", "context", "disposition", "device",
        "gflops", "_reason", "_plan", "_source", "_index",
        "_log_device", "_fingerprint", "_full",
    )

    def __init__(
        self, kind, seq, t_ms, context, log_device, source, index,
        disposition=None, device=None, gflops=None,
    ):
        self.kind = kind
        self.seq = seq
        self.t_ms = t_ms
        self.context = context or None
        self.disposition = disposition
        self.device = device
        self.gflops = gflops
        self._reason = _UNREAD
        self._plan = None
        self._source = source
        self._index = index
        self._log_device = log_device
        self._fingerprint = None
        self._full = None

    @property
    def reason(self) -> Optional[str]:
        if self._reason is _UNREAD:
            self._reason = self._source.reason(self._index)
        return self._reason

    @property
    def plan(self):
        if self._plan is None:
            self._plan = self._source.plan(self._index)
        return self._plan

    def identity(self) -> tuple:
        """A measured candidate's plan identity, ``(structural key, lane
        key)``: what its fingerprint digests, without hashing."""
        return self._source.identity(self._index)

    def _keys(self) -> List[str]:
        """The record's keys, in JSONL order, known without rendering."""
        keys = ["kind", "seq", "t_ms"]
        if self.kind == "candidate":
            keys.append("fingerprint")
        keys += ("family", "plan", "config")
        keys += (k for k in _TAGS if getattr(self, k) is not None)
        if self.gflops is not None:
            keys += ("time_ms", "gflops", "occupancy", "counters")
            if self._log_device is not None:
                keys.append("bottleneck")
        if self.context is not None:
            keys.append("context")
        return keys

    def _fp(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = _fingerprint(self.plan)
        return self._fingerprint

    def _render(self) -> Dict[str, Any]:
        if self._full is not None:
            return self._full
        plan = self.plan
        full = {"kind": self.kind, "seq": self.seq, "t_ms": self.t_ms}
        if self.kind == "candidate":
            full["fingerprint"] = self._fp()
        full["family"] = _fingerprint(plan, include_registers=False)
        full["plan"] = plan.describe()
        full["config"] = _config_summary(plan)
        for key in _TAGS:
            value = getattr(self, key)
            if value is not None:
                full[key] = value
        if self.gflops is not None:
            result = self._source.result(self._index)
            full.update(_result_payload(result, self._log_device))
        if self.context is not None:
            full["context"] = self.context
        self._full = full
        return full

    def get(self, key, default=None):
        if key in _CHEAP_KEYS:
            value = getattr(self, key)
            return default if value is None else value
        if self._full is None:
            if key == "fingerprint" and self.kind == "candidate":
                return self._fp()
            if key not in self._keys():
                return default
        return self._render().get(key, default)

    def __getitem__(self, key):
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return key in self._keys()

    def __iter__(self):
        return iter(self._keys())

    def __len__(self) -> int:
        return len(self._keys())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


#: fields a row holds from the start; absent ones are None
_CHEAP_KEYS = frozenset(
    ("kind", "seq", "t_ms", "context", "disposition", "device", "reason",
     "gflops")
)
#: the cheap fields a record lists after its config, in order
_TAGS = ("disposition", "device", "reason")

_ABSENT = object()
_UNREAD = object()


def _fingerprint(plan, include_registers: bool = True) -> str:
    global _plan_fingerprint
    if _plan_fingerprint is None:
        # The evaluator imports this module, so resolve it on first use.
        from ..tuning.evaluator import plan_fingerprint as _plan_fingerprint
    return _plan_fingerprint(plan, include_registers=include_registers)


_plan_fingerprint = None


class Block:
    """The ``candidate`` and ``prune`` rows of one resolved batch.

    ``res`` is the engine's :class:`~repro.tuning.evaluator.Resolution`;
    ``lanes`` are the lanes that are rows, in input order (all of them,
    or those a batch that ended early settled).  Row ``k`` is lane
    ``lanes[k]``, with ``seq + k`` as its sequence number; every row
    shares the block's ``t_ms`` and ``context``.  A lane whose
    disposition (``res.disposition``) is None is a ``prune`` row, any
    other a ``candidate`` row tagged with the engine's ``device``.
    ``tally`` counts the rows by disposition (None: prune), in order of
    first appearance.  Rows are made when read (:meth:`row`) and kept.
    """

    __slots__ = (
        "res", "lanes", "seq", "t_ms", "context", "device", "tally",
        "_log_device", "_rows",
    )

    def __init__(self, res, lanes, seq, t_ms, context, device, tally,
                 log_device):
        self.res = res
        self.lanes = lanes
        self.seq = seq
        self.t_ms = t_ms
        self.context = context
        self.device = device
        self.tally = tally
        self._log_device = log_device
        self._rows: Optional[Dict[int, _Row]] = None

    def __len__(self) -> int:
        return len(self.lanes)

    def row(self, k: int, keep: bool = True) -> _Row:
        """Row ``k`` (kept for the next read unless ``keep`` is false)."""
        rows = self._rows
        row = None if rows is None else rows.get(k)
        if row is not None:
            return row
        res, i = self.res, self.lanes[k]
        disposition = res.disposition[i]
        if disposition is None:
            row = _Row(
                "prune", self.seq + k, self.t_ms, self.context,
                self._log_device, res, i,
            )
        else:
            row = _Row(
                "candidate", self.seq + k, self.t_ms, self.context,
                self._log_device, res, i, disposition=disposition,
                device=self.device, gflops=res.gflops(i),
            )
        if keep:
            if rows is None:
                rows = self._rows = {}
            rows[k] = row
        return row

    def rows(self, keep: bool = True):
        return (self.row(k, keep) for k in range(len(self.lanes)))


class Events(_Sequence):
    """A snapshot of a log's events, as a read-only sequence of mappings.

    ``entries`` holds the recorded events as they are stored: plain
    dicts and :class:`Block`s.  Indexing and iteration expand each
    block into its rows; a reader that can take a block whole (such as
    :func:`repro.obs.explain.build_explain`) reads ``entries``.
    """

    __slots__ = ("entries", "_starts", "_len")

    def __init__(self, entries: Tuple[Any, ...]):
        self.entries = entries
        starts: List[int] = []
        size = 0
        for entry in entries:
            starts.append(size)
            size += len(entry) if type(entry) is Block else 1
        self._starts = starts
        self._len = size

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(*index.indices(self._len)))
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(index)
        at = bisect_right(self._starts, index) - 1
        entry = self.entries[at]
        if type(entry) is Block:
            return entry.row(index - self._starts[at])
        return entry

    def __iter__(self):
        for entry in self.entries:
            if type(entry) is Block:
                yield from entry.rows()
            else:
                yield entry


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
        #: plain events and :class:`Block`s, in emission order
        self._events: List[Any] = []
        #: encoded JSONL lines of the events flushed so far, and how
        #: many entries of ``_events`` they cover
        self._lines: List[str] = []
        self._encoded = 0
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

    def _stamp(self, kind: str) -> Tuple[int, float, Optional[Dict]]:
        """Count one event of ``kind``: its seq, relative time and the
        innermost context (shared by every event in the scope)."""
        self._seq += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1
        context = self._stack[-1] if self._stack else None
        return self._seq, (time.perf_counter() - self._t0) * 1e3, context

    def _append(self, entry, rows: int = 1) -> None:
        self._events.append(entry)
        self._unflushed += rows
        if self.path is not None and self._unflushed >= self.flush_every:
            self.flush()

    def emit(self, kind: str, **fields) -> Dict[str, Any]:
        """Record one event; auto-stamps seq, relative time and context."""
        seq, t_ms, context = self._stamp(kind)
        event: Dict[str, Any] = {"kind": kind, "seq": seq, "t_ms": t_ms}
        event.update(fields)
        if context:
            event["context"] = context
        self._append(event)
        return event

    def block(self, res, tally, lanes=None, device=None) -> None:
        """The rows of a resolved batch (``res``), as one :class:`Block`.

        ``lanes`` are the lanes to record, in input order (default:
        every lane); ``tally`` counts them by disposition, in order of
        first appearance (None for a lane pruned without a request),
        and adds to :meth:`counts` as the rows would one by one.  The
        rows share one ``t_ms`` and the innermost context.
        """
        if lanes is None:
            lanes = range(len(res))
        n = len(lanes)
        if not n:
            return
        counts = self._counts
        for disposition, count in tally.items():
            if disposition is None:
                counts["prune"] = counts.get("prune", 0) + count
                continue
            counts["candidate"] = counts.get("candidate", 0) + count
            key = f"candidate.{disposition}"
            counts[key] = counts.get(key, 0) + count
        if device is None and self.device is not None:
            device = self.device.name
        seq = self._seq + 1
        self._seq += n
        context = self._stack[-1] if self._stack else None
        t_ms = (time.perf_counter() - self._t0) * 1e3
        self._append(
            Block(res, lanes, seq, t_ms, context, device, tally, self.device),
            n,
        )

    def marker(self, kind: str, plan, **fields) -> None:
        """A ``failure`` marker: the candidate that ended the run."""
        described = plan.describe() if hasattr(plan, "describe") else str(plan)
        self.emit(kind, plan=described, **fields)

    def replay(self, plan, source: str = "journal") -> None:
        """A tuning unit answered from a checkpoint journal (not the
        engine); ``plan`` is the unit's winner."""
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
        self.emit(
            "winner",
            variant=outcome.variant,
            tflops=outcome.tflops,
            evaluations=outcome.evaluations,
            plans=[
                {
                    "fingerprint": _fingerprint(plan),
                    "plan": plan.describe(),
                    "count": count,
                }
                for plan, count in zip(
                    outcome.schedule.plans, outcome.schedule.counts
                )
            ],
        )

    def phases(self, spans: Sequence) -> None:
        """Footer: per-phase timing aggregates (from the span tracer),
        in name order, so two runs of one job write the same records in
        the same order."""
        from .export import aggregate_phases

        for phase in sorted(aggregate_phases(spans), key=lambda p: p.name):
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

    def events(self) -> Events:
        """Every event so far, as a sequence of read-only mappings.

        ``candidate`` and ``prune`` events render their plan, config and
        counter fields on first read; the rest are plain dicts.
        """
        return Events(tuple(self._events))

    def counts(self) -> Dict[str, int]:
        """Event counts by kind, plus ``candidate.<disposition>`` splits."""
        return dict(self._counts)

    def candidate_count(self) -> int:
        return self.counts().get("candidate", 0)

    def flush(self) -> None:
        """Atomically write the complete JSONL stream (if a path is set).

        Each event is encoded once, at the first flush after it; later
        flushes reuse its line.
        """
        if self.path is None:
            return
        lines = self._lines
        for entry in self._events[self._encoded:]:
            if type(entry) is Block:
                lines.extend(
                    json.dumps(dict(row), default=str)
                    for row in entry.rows(keep=False)
                )
            else:
                lines.append(json.dumps(dict(entry), default=str))
        self._encoded = len(self._events)
        self._unflushed = 0
        atomic_write_text(self.path, "\n".join(self._lines) + "\n")

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
