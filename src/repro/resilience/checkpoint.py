"""Journaled checkpoint/resume for long autotuning runs.

A :class:`TuningJournal` is an append-only JSONL file recording every
candidate a tuning run has already priced — one self-contained record
per line, flushed (and fsynced) as soon as it is known, so a crash at
any instant loses at most the record being written.  An interrupted run
restarted with the same journal replays the recorded outcomes instead
of re-evaluating, then continues the search from where it died.

Crash model and recovery:

* appends are single ``write()`` calls of one ``\\n``-terminated line —
  a torn write therefore leaves an *unterminated tail*, which the loader
  drops and truncates away (at most one candidate is re-evaluated);
* a terminated line that fails to parse means the file was damaged by
  something other than a torn append, and the journal refuses to load
  (:class:`CheckpointCorruptError`) rather than resume from a history
  it cannot trust;
* records are keyed by content (IR fingerprint + operation + plan
  fingerprint), never by sequence number, so resumed runs may evaluate
  in a different order and still hit.

Record kinds: ``header`` (version/device sanity), ``candidate`` (one
priced plan: the escalated plan chosen plus its time/TFLOPS, or
``null`` for infeasible) and ``degree`` (a completed deep-tuning fusion
degree, including its roofline classification).  A failed candidate is
never journaled: it ends the run, and a resume evaluates it again.

Every record is validated as it loads: an unknown kind, a plan that
:func:`plan_from_dict` refuses, or a missing field that a replay reads
is refused with :class:`CheckpointCorruptError` naming the line, so a
damaged journal can never crash a resumed run halfway through.
"""

from __future__ import annotations

import json
import os
import threading
from hashlib import sha256
from typing import Any, Dict, Optional

from .errors import (
    CheckpointCorruptError,
    CheckpointDeviceMismatch,
    CheckpointLockedError,
)

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "JOURNAL_VERSION",
    "TuningJournal",
    "ir_fingerprint",
    "plan_from_dict",
    "plan_to_dict",
]

JOURNAL_VERSION = 1

#: Fields a deep-tuning replay reads from a ``degree`` record, besides
#: its plan and timing, with the type each must have.
DEGREE_FIELDS = (("bandwidth_bound", bool), ("bound_level", str))


def ir_fingerprint(ir) -> str:
    """Stable content fingerprint of a program IR.

    The IR is a tree of frozen dataclasses of primitives, so its repr
    is deterministic across processes — good enough to key journal
    records so a journal recorded for one stencil can never satisfy
    lookups for another.
    """
    return sha256(repr(ir).encode()).hexdigest()[:16]


def plan_to_dict(plan) -> Dict[str, Any]:
    """JSON-serializable form of a :class:`KernelPlan`."""
    return {
        "kernel_names": list(plan.kernel_names),
        "block": list(plan.block),
        "time_tile": plan.time_tile,
        "streaming": plan.streaming,
        "stream_axis": plan.stream_axis,
        "concurrent_chunks": plan.concurrent_chunks,
        "unroll": list(plan.unroll),
        "unroll_blocked": plan.unroll_blocked,
        "prefetch": plan.prefetch,
        "perspective": plan.perspective,
        "placements": [list(item) for item in plan.placements],
        "retime": plan.retime,
        "fold_groups": [
            {"members": list(group.members), "op": group.op}
            for group in plan.fold_groups
        ],
        "max_registers": plan.max_registers,
    }


def plan_from_dict(data: Dict[str, Any]):
    """Reconstruct a :class:`KernelPlan` recorded by :func:`plan_to_dict`."""
    from ..codegen.plan import KernelPlan
    from ..ir.folding import FoldGroup

    return KernelPlan(
        kernel_names=tuple(data["kernel_names"]),
        block=tuple(data["block"]),
        time_tile=data["time_tile"],
        streaming=data["streaming"],
        stream_axis=data["stream_axis"],
        concurrent_chunks=data["concurrent_chunks"],
        unroll=tuple(data["unroll"]),
        unroll_blocked=data["unroll_blocked"],
        prefetch=data["prefetch"],
        perspective=data["perspective"],
        placements=tuple(
            (array, storage) for array, storage in data["placements"]
        ),
        retime=data["retime"],
        fold_groups=tuple(
            FoldGroup(members=tuple(group["members"]), op=group["op"])
            for group in data["fold_groups"]
        ),
        max_registers=data["max_registers"],
    )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _record_problem(record: Dict[str, Any]) -> Optional[str]:
    """Why a non-header record cannot be replayed, or None if it can."""
    kind = record["kind"]
    if kind == "failure":
        return (
            "is a 'failure' record; that kind is no longer written, "
            "since a failed candidate ends the run"
        )
    if kind not in ("candidate", "degree"):
        return f"has unknown record kind {kind!r}"
    if not isinstance(record.get("key"), str):
        return "has no record key"
    plan = record.get("plan")
    if plan is None and kind == "candidate":
        return None  # an infeasible candidate
    try:
        plan_from_dict(plan)
    except (KeyError, TypeError, ValueError):
        return f"has a malformed {kind} plan"
    for field in ("time_s", "tflops"):
        if not _is_number(record.get(field)):
            return f"has no numeric {field!r}"
    if kind == "degree":
        for field, expected in DEGREE_FIELDS:
            if not isinstance(record.get(field), expected):
                return f"has no {expected.__name__} {field!r}"
    return None


class TuningJournal:
    """Append-only JSONL checkpoint of evaluated tuning candidates.

    Opening an existing journal resumes it: prior records become
    lookup hits.  Opening a fresh path starts one.  ``device`` (a
    device name) is recorded in the header and verified on resume — a
    journal of P100 timings must not satisfy a V100 run.
    """

    def __init__(self, path: str, device: Optional[str] = None):
        self.path = os.fspath(path)
        self.device = device
        #: device name the journal's header declares (== ``device`` for
        #: a fresh journal; the on-disk value when resuming).  Opening
        #: with ``device=None`` skips the mismatch check — the
        #: sanctioned way for transfer tuning to *read* a foreign
        #: device's journal without replaying it.
        self.recorded_device: Optional[str] = device
        self._lock = threading.Lock()
        self._records: Dict[str, Dict[str, Any]] = {}
        self.replayable = 0  # records loaded from disk
        # Lock before reading: a refused second writer must not repair
        # (truncate) the tail the live writer is appending to.
        self._handle = open(self.path, "a", encoding="utf-8")
        self._acquire_lock()
        try:
            if os.path.getsize(self.path) > 0:
                self._load()
        except BaseException:
            self._handle.close()
            raise
        # Empty after loading: a fresh journal, or one torn inside its
        # header line — either way it still needs its header.
        if os.path.getsize(self.path) == 0:
            self._append(
                {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "tool": "repro",
                    "device": device,
                }
            )

    def _acquire_lock(self) -> None:
        """Take an advisory exclusive lock on the append handle.

        A second live writer on the same path would interleave its
        appends with ours mid-record; the lock makes the misuse loud
        (:class:`CheckpointLockedError`, exit 2) instead of silent.
        Advisory only — readers (``_load``, torn-tail repair) are
        unaffected.  Platforms without
        ``fcntl`` skip the check.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._handle.close()
            raise CheckpointLockedError(
                f"checkpoint journal {self.path} is already open for "
                f"writing by another process; give each run its own "
                f"--checkpoint path",
                path=self.path,
            ) from None

    # -- loading ----------------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            raw = handle.read()
        keep = len(raw)
        if raw and not raw.endswith(b"\n"):
            # Torn trailing append: drop the partial record and truncate
            # so future appends start on a clean line boundary.
            cut = raw.rfind(b"\n")
            keep = cut + 1 if cut >= 0 else 0
            raw = raw[:keep]
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)
        lines = raw.decode("utf-8").splitlines()
        if not lines:
            return
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckpointCorruptError(
                    f"checkpoint journal {self.path} is corrupt: "
                    f"line {number} is not valid JSON",
                    path=self.path,
                    line=number,
                ) from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise CheckpointCorruptError(
                    f"checkpoint journal {self.path} is corrupt: "
                    f"line {number} is not a journal record",
                    path=self.path,
                    line=number,
                )
            self._absorb(record, number)

    def _absorb(self, record: Dict[str, Any], number: int) -> None:
        kind = record["kind"]
        if kind == "header":
            version = record.get("version")
            if version != JOURNAL_VERSION:
                raise CheckpointCorruptError(
                    f"checkpoint journal {self.path} has version "
                    f"{version!r}; this build reads version "
                    f"{JOURNAL_VERSION}",
                    path=self.path,
                )
            recorded = record.get("device")
            self.recorded_device = recorded
            if (
                self.device is not None
                and recorded is not None
                and recorded != self.device
            ):
                raise CheckpointDeviceMismatch(
                    f"checkpoint journal {self.path} was recorded for "
                    f"device {recorded!r}, not {self.device!r}; resume "
                    f"on {recorded!r}, start a fresh checkpoint, or "
                    f"warm-start via transfer tuning",
                    path=self.path,
                    recorded=recorded,
                    requested=self.device,
                )
            return
        problem = _record_problem(record)
        if problem is not None:
            raise CheckpointCorruptError(
                f"checkpoint journal {self.path} is corrupt: line "
                f"{number} {problem}",
                path=self.path,
                line=number,
            )
        self._records[record["key"]] = record
        self.replayable += 1

    # -- writing ----------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def record_candidate(
        self,
        key: str,
        plan: Optional[Dict[str, Any]],
        time_s: Optional[float] = None,
        tflops: Optional[float] = None,
    ) -> None:
        """Journal one priced candidate (``plan=None`` = infeasible)."""
        record = {
            "kind": "candidate",
            "key": key,
            "plan": plan,
            "time_s": time_s,
            "tflops": tflops,
        }
        with self._lock:
            self._records[key] = record
        self._append(record)

    def record_degree(self, key: str, payload: Dict[str, Any]) -> None:
        """Journal a completed deep-tuning fusion degree."""
        record = {"kind": "degree", "key": key}
        record.update(payload)
        with self._lock:
            self._records[key] = record
        self._append(record)

    # -- lookup -----------------------------------------------------------------

    def records(self, kind: Optional[str] = None) -> list:
        """Snapshot of the records (optionally of one ``kind``).

        A read-only view for offline consumers: transfer tuning mines a
        foreign journal's ``candidate``/``degree`` records for winners
        without replaying them into a live search.
        """
        with self._lock:
            items = list(self._records.values())
        if kind is not None:
            items = [item for item in items if item.get("kind") == kind]
        return items

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The journaled record for ``key``, or None."""
        with self._lock:
            return self._records.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "TuningJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
