"""Journaled checkpoint/resume for long autotuning runs.

A :class:`TuningJournal` is an append-only JSONL file with one record
per finished *tuning unit*: one :meth:`HierarchicalTuner.tune` call, or
one fusion degree of a deep-tuning sweep.  Each record is written with
one ``write()`` and fsynced as soon as its unit finishes, so a crash
loses at most the unit in flight.  An interrupted run restarted with the
same journal replays its finished units without evaluating anything and
re-runs the unit that was in flight.

The unit is the smallest piece of work that costs more to recompute
than to write: a single candidate is priced by the analytical model in
about a tenth of a millisecond, less than the fsync that would guard it.

Crash model and recovery:

* appends are single ``write()`` calls of one ``\\n``-terminated line —
  a torn write therefore leaves an *unterminated tail*, which the loader
  drops and truncates away (the unit it held runs again);
* a terminated line that fails to parse means the file was damaged by
  something other than a torn append, and the journal refuses to load
  (:class:`CheckpointCorruptError`) rather than resume from a history
  it cannot trust;
* records are keyed by content — the IR fingerprint, the base plan and
  every tuner setting that shapes the search — never by sequence number,
  so a resumed run may reach its units in any order and still hit.

Record kinds: ``header`` (version/device sanity), ``tune`` (a finished
hierarchical search: its winner plan and time and its evaluation
counts) and ``degree`` (a finished deep-tuning fusion degree: the same,
plus its roofline classification).

Every record is validated as it loads: an unknown kind, a plan that
:func:`plan_from_dict` refuses, or a missing field that a replay reads
is refused with :class:`CheckpointCorruptError` naming the line, so a
damaged journal can never crash a resumed run halfway through.  A
journal of another version (version 1 recorded single candidates,
version 2 also kept per-unit ``seeds`` and keyed units by two tuner
settings that no longer exist) is refused as a whole.
"""

from __future__ import annotations

import json
import os
from hashlib import sha256
from typing import Any, Dict, List, Optional, Tuple

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
    "read_journal",
]

JOURNAL_VERSION = 3

#: Fields a replay reads from each unit record kind, besides its plan
#: and timing, with the type each must have.
UNIT_FIELDS = {
    "tune": (("evaluations", int), ("stage1_evaluations", int)),
    "degree": (
        ("evaluations", int),
        ("bandwidth_bound", bool),
        ("bound_level", str),
    ),
}


def ir_fingerprint(ir) -> str:
    """Stable content fingerprint of a program IR.

    The IR is a tree of frozen dataclasses of primitives, so its repr
    is deterministic across processes — good enough to key journal
    records so a journal recorded for one stencil can never satisfy
    lookups for another.  The repr of a large kernel runs to hundreds
    of kilobytes and every journaled tuner asks for it, so the digest
    is pinned on the frozen IR after the first call.
    """
    fingerprint = ir.__dict__.get("_fingerprint")
    if fingerprint is None:
        fingerprint = sha256(repr(ir).encode()).hexdigest()[:16]
        object.__setattr__(ir, "_fingerprint", fingerprint)
    return fingerprint


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


def _has_type(value, expected: type) -> bool:
    """``isinstance`` that does not take a bool for a number."""
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _record_problem(record: Dict[str, Any]) -> Optional[str]:
    """Why a non-header record cannot be replayed, or None if it can."""
    kind = record["kind"]
    fields = UNIT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        return f"has unknown record kind {kind!r}"
    if not isinstance(record.get("key"), str):
        return "has no record key"
    try:
        plan_from_dict(record.get("plan"))
    except (KeyError, TypeError, ValueError):
        return f"has a malformed {kind} plan"
    for field in ("time_s", "tflops"):
        if not _has_type(record.get(field), float):
            return f"has no numeric {field!r}"
    for field, expected in fields:
        if not _has_type(record.get(field), expected):
            return f"has no {expected.__name__} {field!r}"
    return None


def _committed(raw: bytes) -> bytes:
    """``raw`` up to its last newline: an append counts once terminated."""
    if raw.endswith(b"\n"):
        return raw
    return raw[: raw.rfind(b"\n") + 1]


def _parse(
    path: str, raw: bytes, device: Optional[str]
) -> Tuple[Optional[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """Validate committed journal bytes: ``(header, records by key)``.

    ``device`` is checked against the header's device unless either is
    None.  A later record for a key replaces an earlier one.
    """
    header: Optional[Dict[str, Any]] = None
    records: Dict[str, Dict[str, Any]] = {}
    for number, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptError(
                f"checkpoint journal {path} is corrupt: "
                f"line {number} is not valid JSON",
                path=path,
                line=number,
            ) from exc
        if not isinstance(record, dict) or "kind" not in record:
            raise CheckpointCorruptError(
                f"checkpoint journal {path} is corrupt: "
                f"line {number} is not a journal record",
                path=path,
                line=number,
            )
        if record["kind"] == "header":
            _check_header(path, record, device)
            header = record
            continue
        problem = _record_problem(record)
        if problem is not None:
            raise CheckpointCorruptError(
                f"checkpoint journal {path} is corrupt: line "
                f"{number} {problem}",
                path=path,
                line=number,
            )
        records[record["key"]] = record
    return header, records


def _check_header(path: str, header: Dict[str, Any], device) -> None:
    version = header.get("version")
    if version != JOURNAL_VERSION:
        raise CheckpointCorruptError(
            f"checkpoint journal {path} has version {version!r}; this "
            f"build reads version {JOURNAL_VERSION}: start a fresh "
            f"--checkpoint",
            path=path,
        )
    recorded = header.get("device")
    if device is not None and recorded is not None and recorded != device:
        raise CheckpointDeviceMismatch(
            f"checkpoint journal {path} was recorded for "
            f"device {recorded!r}, not {device!r}; resume "
            f"on {recorded!r} or start a fresh checkpoint",
            path=path,
            recorded=recorded,
            requested=device,
        )


def read_journal(path) -> Tuple[Optional[str], List[Dict[str, Any]]]:
    """``(recorded device, validated records)`` of a journal file.

    A read-only view for offline consumers (``repro certify``): it
    takes no lock, repairs nothing and applies no device
    check.  A torn tail is left out; damage is refused exactly as a
    resume would refuse it (:class:`CheckpointCorruptError`).
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        raw = handle.read()
    header, records = _parse(path, _committed(raw), None)
    device = header.get("device") if header is not None else None
    return device, list(records.values())


class TuningJournal:
    """Append-only JSONL checkpoint of finished tuning units.

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
        #: with ``device=None`` skips the mismatch check.
        self.recorded_device: Optional[str] = device
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
        Advisory only — readers (``_load``, :func:`read_journal`) are
        unaffected.  Platforms without ``fcntl`` skip the check.
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
        committed = _committed(raw)
        if len(committed) < len(raw):
            # Torn trailing append: drop the partial record and truncate
            # so future appends start on a clean line boundary.
            with open(self.path, "r+b") as handle:
                handle.truncate(len(committed))
        header, self._records = _parse(self.path, committed, self.device)
        if header is not None:
            self.recorded_device = header.get("device")
        self.replayable = len(self._records)

    # -- writing ----------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _record(self, kind: str, key: str, payload: Dict[str, Any]) -> None:
        record = {"kind": kind, "key": key}
        record.update(payload)
        problem = _record_problem(record)
        if problem is not None:
            raise ValueError(f"refusing to journal a record that {problem}")
        self._records[key] = record
        self._append(record)

    def record_candidate(self, key: str, payload: Dict[str, Any]) -> None:
        """Journal a finished hierarchical tuning unit (a ``tune`` record).

        ``payload`` holds the winner's ``plan``, ``time_s`` and
        ``tflops`` and the unit's ``evaluations`` and
        ``stage1_evaluations``.  The name predates unit records;
        ``benchmarks/e2e/spans.py`` times the journal's writes through
        it.
        """
        self._record("tune", key, payload)

    def record_degree(self, key: str, payload: Dict[str, Any]) -> None:
        """Journal a finished deep-tuning fusion degree."""
        self._record("degree", key, payload)

    # -- lookup -----------------------------------------------------------------

    def records(self, kind: Optional[str] = None) -> list:
        """Snapshot of the records (optionally of one ``kind``)."""
        items = list(self._records.values())
        if kind is not None:
            items = [item for item in items if item.get("kind") == kind]
        return items

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The journaled record for ``key``, or None."""
        return self._records.get(key)

    def __len__(self) -> int:
        return len(self._records)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "TuningJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
