"""Explainable plan selection: "why did this plan win?".

Consumes the candidate-level event stream recorded by
:mod:`repro.obs.search` (either the in-memory events of a live
:class:`~repro.obs.search.SearchLog` or a JSONL file loaded with
:func:`~repro.obs.search.read_events`) and derives the artifacts a user
needs to audit the search:

* the **winner** — the pipeline's final plan(s), joined back to their
  candidate records so the model's full prediction is attached;
* the **top-k runners-up** — the best distinct losing plans, each with
  counter deltas against the winner (the quantitative "why it lost");
* the **advisor rules** that fired per kernel (which Section IV-A
  decisions shaped the pruned search space);
* the **convergence trajectory** — running best GFLOPS over candidate
  sequence, i.e. how quickly the search found the winner;
* the **disposition summary** — how the engine resolved each request
  (simulated / cache-hit / screened / infeasible / error) plus prune,
  replay and resilience-marker counts.

Everything is derived strictly from the event stream, so the same
explanation is available live (``repro optimize --explain``), from a log
file (``repro report``), and machine-readably (``--json``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, count, islice
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..resilience.errors import UsageError
from .search import Block

__all__ = [
    "CandidateView",
    "ExplainReport",
    "build_explain",
    "format_explain",
]

#: Counters compared between the winner and each runner-up, in display
#: order.  Lower is better for all of them except occupancy/gflops.
DELTA_COUNTERS = (
    "dram_bytes",
    "tex_bytes",
    "shm_bytes",
    "spill_bytes",
    "flops",
)


@dataclass(frozen=True)
class CandidateView:
    """One candidate record, normalized for analysis."""

    seq: int
    fingerprint: str
    family: str
    plan: str
    config: Dict[str, Any]
    disposition: str
    gflops: Optional[float] = None
    time_ms: Optional[float] = None
    occupancy: Optional[float] = None
    bottleneck: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)
    reason: Optional[str] = None

    @property
    def measured(self) -> bool:
        """True when the model's prediction is attached."""
        return self.gflops is not None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "seq": self.seq,
            "fingerprint": self.fingerprint,
            "family": self.family,
            "plan": self.plan,
            "config": self.config,
            "disposition": self.disposition,
        }
        if self.measured:
            out.update(
                gflops=self.gflops,
                time_ms=self.time_ms,
                occupancy=self.occupancy,
                bottleneck=self.bottleneck,
                counters=self.counters,
            )
        if self.reason:
            out["reason"] = self.reason
        if self.context:
            out["context"] = self.context
        return out


@dataclass(frozen=True)
class RunnerUp:
    """A losing candidate plus its counter deltas against the winner."""

    candidate: CandidateView
    #: counter -> (runner value, winner value, ratio runner/winner)
    deltas: Dict[str, Tuple[float, float, Optional[float]]]
    gflops_gap_pct: float  # how far behind the winner, in percent

    def as_dict(self) -> Dict[str, Any]:
        return {
            "candidate": self.candidate.as_dict(),
            "gflops_gap_pct": self.gflops_gap_pct,
            "deltas": {
                name: {"value": value, "winner": winner, "ratio": ratio}
                for name, (value, winner, ratio) in self.deltas.items()
            },
        }


@dataclass(frozen=True)
class ExplainReport:
    """The derived explanation for one search run."""

    device: Optional[Dict[str, Any]]
    winner: Optional[Dict[str, Any]]  # the pipeline's winner event
    winner_candidate: Optional[CandidateView]
    runners: Tuple[RunnerUp, ...]
    advice: Tuple[Dict[str, Any], ...]
    convergence: Tuple[Tuple[int, float], ...]  # (seq, best-so-far GFLOPS)
    dispositions: Dict[str, int]
    markers: Dict[str, int]  # failure/prune/replay
    phases: Tuple[Dict[str, Any], ...]
    stats: Optional[Dict[str, Any]]
    candidates: int = 0
    measured: int = 0
    distinct_plans: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "device": self.device,
            "winner": self.winner,
            "winner_candidate": (
                self.winner_candidate.as_dict()
                if self.winner_candidate is not None
                else None
            ),
            "runners_up": [r.as_dict() for r in self.runners],
            "advice": list(self.advice),
            "convergence": [
                {"seq": seq, "gflops": gflops}
                for seq, gflops in self.convergence
            ],
            "dispositions": self.dispositions,
            "markers": self.markers,
            "phases": list(self.phases),
            "stats": self.stats,
            "candidates": self.candidates,
            "measured": self.measured,
            "distinct_plans": self.distinct_plans,
        }


def _candidate_view(event: Mapping[str, Any]) -> CandidateView:
    counters = event.get("counters") or {}
    return CandidateView(
        seq=int(event.get("seq", 0)),
        fingerprint=str(event.get("fingerprint", "")),
        family=str(event.get("family", "")),
        plan=str(event.get("plan", "")),
        config=dict(event.get("config") or {}),
        disposition=str(event.get("disposition", "?")),
        gflops=event.get("gflops"),
        time_ms=event.get("time_ms"),
        occupancy=event.get("occupancy"),
        bottleneck=event.get("bottleneck"),
        counters=dict(counters),
        context=dict(event.get("context") or {}),
        reason=event.get("reason"),
    )


MARKER_KINDS = ("prune", "replay", "failure")


def build_explain(
    events: Sequence[Mapping[str, Any]], top_k: int = 3
) -> ExplainReport:
    """Derive an :class:`ExplainReport` from a search-event stream.

    One pass reads each candidate's kind, disposition, sequence number,
    GFLOPS and (when measured) plan identity into columns over the
    measured candidates.  The rows of a live log's
    :class:`~repro.obs.search.Block` are read whole: its tally gives the
    dispositions, and the GFLOPS and key columns of its resolution the
    rest, with no row made per lane.  Fingerprints are read only to join
    the winner event, and only the winner and the top-k runners-up are
    read in full.
    """
    if not events:
        raise UsageError("empty search log: nothing to explain")

    device = None
    header = events[0]
    if header.get("kind") == "header":
        device = header.get("device")

    candidates = 0
    winner_event: Optional[Mapping[str, Any]] = None
    advice: List[Mapping[str, Any]] = []
    phases: List[Dict[str, Any]] = []
    stats: Optional[Dict[str, Any]] = None
    dispositions: Dict[str, int] = {}
    markers: Dict[str, int] = {}
    # The measured candidates in stream order: GFLOPS and plan number.
    # Plans are numbered in the order they are first seen, by a cheap
    # identity: a live lane's lane key within its structural key, a
    # loaded record's stored fingerprint.
    gflops_of: List[float] = []
    plan_of: List[int] = []
    numbers = count()
    fingerprints = defaultdict(numbers.__next__)
    structures = defaultdict(lambda: defaultdict(numbers.__next__))
    # Where each measured candidate's event is: (first position, a
    # block and the row of each of its measured lanes, or an event).
    sources: List[Tuple[int, Any, Optional[List[int]]]] = []

    for event in getattr(events, "entries", events):
        if type(event) is Block:
            for disposition, total in event.tally.items():
                if disposition is None:
                    markers["prune"] = markers.get("prune", 0) + total
                    continue
                candidates += total
                dispositions[disposition] = (
                    dispositions.get(disposition, 0) + total
                )
            res, lanes = event.res, event.lanes
            measured, gflops = res.measured()
            if not measured:
                continue
            rows = measured
            if type(lanes) is not range:
                rows = list(map({i: k for k, i in enumerate(lanes)}.get,
                                measured))
            lane_keys = {
                family: structures[family.structural]
                for family in res.families
            }
            sources.append((len(gflops_of), event, rows))
            gflops_of.extend(gflops)
            ok = res.ok
            plan_of.extend(
                map(
                    _number,
                    map(lane_keys.__getitem__, compress(res.lane_family, ok)),
                    compress(res.keys, ok),
                )
            )
            continue
        kind = event.get("kind")
        if kind == "candidate":
            candidates += 1
            disposition = str(event.get("disposition", "?"))
            dispositions[disposition] = dispositions.get(disposition, 0) + 1
            gflops = event.get("gflops")
            if gflops is None:
                continue
            identity = getattr(event, "identity", None)
            if identity is not None:
                structural, lane = identity()
                plan = structures[structural][lane]
            else:
                plan = fingerprints[str(event.get("fingerprint", ""))]
            sources.append((len(gflops_of), event, None))
            gflops_of.append(gflops)
            plan_of.append(plan)
        elif kind == "winner":
            winner_event = event  # last one wins (there is normally one)
        elif kind == "advice":
            advice.append(event)
        elif kind == "phase":
            phases.append(
                {
                    "name": event.get("name"),
                    "count": event.get("count"),
                    "total_ms": event.get("total_ms"),
                    "self_ms": event.get("self_ms"),
                }
            )
        elif kind == "summary":
            stats = event.get("stats")
        elif kind in MARKER_KINDS:
            markers[kind] = markers.get(kind, 0) + 1

    event_at = _EventAt(sources)
    # Convergence: running best GFLOPS in evaluation order.
    convergence: List[Tuple[int, float]] = []
    best = float("-inf")
    for position, gflops in enumerate(gflops_of):
        if gflops > best:
            best = gflops
            convergence.append((event_at.seq(position), gflops))

    plans = len(fingerprints) + sum(map(len, structures.values()))
    ranked, best_of = _rank_plans(gflops_of, plan_of, plans)
    winner_id, winner = _join_winner(winner_event, ranked, best_of, event_at)

    # Top-k runners-up: best distinct plans excluding the winner's.
    winner_candidate: Optional[CandidateView] = None
    runners: List[RunnerUp] = []
    if winner is not None:
        winner_candidate = _candidate_view(winner)
        losers = (plan for plan in ranked if plan != winner_id)
        for plan in islice(losers, max(0, top_k)):
            cand = _candidate_view(event_at(best_of[plan]))
            deltas: Dict[str, Tuple[float, float, Optional[float]]] = {}
            for name in DELTA_COUNTERS:
                value = cand.counters.get(name)
                winner_value = winner_candidate.counters.get(name)
                if value is None or winner_value is None:
                    continue
                ratio = value / winner_value if winner_value else None
                deltas[name] = (value, winner_value, ratio)
            gap = 0.0
            if winner_candidate.gflops:
                gap = (
                    (winner_candidate.gflops - cand.gflops)
                    / winner_candidate.gflops
                    * 100.0
                )
            runners.append(
                RunnerUp(candidate=cand, deltas=deltas, gflops_gap_pct=gap)
            )

    return ExplainReport(
        device=device,
        winner=winner_event,
        winner_candidate=winner_candidate,
        runners=tuple(runners),
        advice=tuple(advice),
        convergence=tuple(convergence),
        dispositions=dispositions,
        markers=markers,
        phases=tuple(phases),
        stats=stats,
        candidates=candidates,
        measured=len(gflops_of),
        distinct_plans=plans,
    )


#: ``_number(numbering, key)``: the number of ``key`` in a
#: ``defaultdict`` numbering, made when new.
_number = defaultdict.__getitem__


def _rank_plans(gflops_of: List[float], plan_of: List[int], plans: int):
    """The distinct plans, fastest first, and each plan's best
    candidate (its position in the columns).

    Plans are numbered ``0 .. plans - 1`` in the order they were first
    seen.  A plan's best candidate is its fastest, the first one on a
    tie; plans with equal best GFLOPS keep their first-seen order.  Both
    results are lists of ints: no object is made per plan.
    """
    best_gflops: List[Optional[float]] = [None] * plans
    best_of = [0] * plans
    for position, (plan, gflops) in enumerate(zip(plan_of, gflops_of)):
        best = best_gflops[plan]
        if best is None or gflops > best:
            best_gflops[plan] = gflops
            best_of[plan] = position
    ranked = sorted(range(plans), key=best_gflops.__getitem__, reverse=True)
    return ranked, best_of


class _EventAt:
    """The event of a measured candidate, by its position in the
    columns: a row of a block (made when first read) or the event."""

    __slots__ = ("sources", "starts")

    def __init__(self, sources):
        self.sources = sources
        self.starts = [start for start, _, _ in sources]

    def __call__(self, position: int) -> Mapping[str, Any]:
        start, source, rows = self.sources[
            bisect_right(self.starts, position) - 1
        ]
        if rows is None:
            return source
        return source.row(rows[position - start])

    def seq(self, position: int) -> int:
        """The candidate's sequence number, without making its row."""
        start, source, rows = self.sources[
            bisect_right(self.starts, position) - 1
        ]
        if rows is None:
            return int(source.get("seq", 0))
        return source.seq + rows[position - start]


def _join_winner(winner_event, ranked, best_of, event_at):
    """``(identity, event)`` of the winner candidate, or ``(None, None)``.

    The winner event names its plans by fingerprint; of the candidates
    with one of those fingerprints, the fastest wins (on a tie, the one
    the winner event lists first).  ``ranked`` holds the distinct plans
    fastest first and ``best_of`` each plan's best candidate, so
    fingerprints are read only down to the first match and its ties.
    Without a match, the fastest candidate overall stands in.
    """
    if not ranked:
        return None, None
    if winner_event is not None:
        order = {}
        for position, plan in enumerate(winner_event.get("plans", ())):
            order.setdefault(plan.get("fingerprint"), position)
        matched = []
        for identity in ranked:
            event = event_at(best_of[identity])
            if matched and event["gflops"] < matched[0][2]["gflops"]:
                break
            position = order.get(event.get("fingerprint"))
            if position is not None:
                matched.append((position, identity, event))
        if matched:
            _, identity, event = min(matched, key=lambda m: m[0])
            return identity, event
    identity = ranked[0]
    return identity, event_at(best_of[identity])


# ---------------------------------------------------------------------------
# text rendering (repro optimize --explain)
# ---------------------------------------------------------------------------


def _fmt_bytes(value: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(value) >= scale:
            return f"{value / scale:.2f} {unit}"
    return f"{value:.0f} B"


def _fmt_counter(name: str, value: float) -> str:
    if name.endswith("_bytes"):
        return _fmt_bytes(value)
    if name == "flops":
        return f"{value / 1e9:.2f} GFLOP"
    return f"{value:g}"


def format_explain(report: ExplainReport) -> str:
    """Render the explanation as the ``--explain`` text block."""
    lines: List[str] = ["", "=== why this plan ==="]

    total = report.candidates
    lines.append(
        f"search considered {total} candidate(s) across "
        f"{report.distinct_plans} distinct plan(s); "
        f"{report.measured} carried a model prediction"
    )
    if report.dispositions:
        parts = ", ".join(
            f"{name}={count}"
            for name, count in sorted(report.dispositions.items())
        )
        lines.append(f"dispositions: {parts}")
    if report.markers:
        parts = ", ".join(
            f"{name}={count}" for name, count in sorted(report.markers.items())
        )
        lines.append(f"search-path events: {parts}")

    winner = report.winner_candidate
    if winner is None:
        lines.append("no measured candidates: nothing to explain")
        return "\n".join(lines)

    lines.append("")
    variant = (report.winner or {}).get("variant")
    title = f"winner{f' ({variant})' if variant else ''}: {winner.plan}"
    lines.append(title)
    lines.append(
        f"  predicted {winner.gflops:.1f} GFLOPS, "
        f"{winner.time_ms:.3f} ms, occupancy {winner.occupancy:.2f}"
        + (f", bound at {winner.bottleneck}" if winner.bottleneck else "")
    )

    for index, runner in enumerate(report.runners, start=1):
        cand = runner.candidate
        lines.append(
            f"runner-up #{index}: {cand.plan}"
        )
        lines.append(
            f"  predicted {cand.gflops:.1f} GFLOPS "
            f"({runner.gflops_gap_pct:+.1f}% behind)"
            + (f", bound at {cand.bottleneck}" if cand.bottleneck else "")
        )
        interesting = [
            (name, value, winner_value, ratio)
            for name, (value, winner_value, ratio) in runner.deltas.items()
            if value != winner_value
            and (ratio is None or abs(ratio - 1.0) > 0.01)
        ]
        for name, value, winner_value, ratio in interesting:
            if ratio is not None:
                comparison = f"{ratio:.2f}x winner's"
            else:
                comparison = f"vs winner {_fmt_counter(name, winner_value)}"
            lines.append(
                f"    {name:12s} {_fmt_counter(name, value):>12s}  "
                f"({comparison})"
            )

    if report.advice:
        lines.append("")
        lines.append("advisor rules fired:")
        for entry in report.advice:
            kernel = entry.get("kernel", "?")
            bound = entry.get("bound_level", "?")
            rules = entry.get("rules") or []
            lines.append(f"  {kernel} (bound at {bound}):")
            for rule in rules:
                lines.append(f"    - {rule}")
            suppressed = entry.get("suppressed") or []
            if suppressed:
                lines.append(
                    f"    suppressed: {', '.join(suppressed)}"
                )

    if report.convergence:
        lines.append("")
        first_seq, first = report.convergence[0]
        last_seq, last = report.convergence[-1]
        lines.append(
            f"convergence: {first:.1f} GFLOPS (candidate #{first_seq}) -> "
            f"{last:.1f} GFLOPS (candidate #{last_seq}) over "
            f"{len(report.convergence)} improvement(s)"
        )

    return "\n".join(lines)
