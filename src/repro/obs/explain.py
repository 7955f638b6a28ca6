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

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..resilience.errors import UsageError

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
    markers: Dict[str, int]  # skip/failure/prune/replay
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


def _candidate_view(event: Dict[str, Any]) -> CandidateView:
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


MARKER_KINDS = ("prune", "replay", "skip", "failure")


def build_explain(
    events: Sequence[Dict[str, Any]], top_k: int = 3
) -> ExplainReport:
    """Derive an :class:`ExplainReport` from a search-event stream."""
    if not events:
        raise UsageError("empty search log: nothing to explain")

    device = None
    header = events[0]
    if header.get("kind") == "header":
        device = header.get("device")

    candidates: List[CandidateView] = []
    winner_event: Optional[Dict[str, Any]] = None
    advice: List[Dict[str, Any]] = []
    phases: List[Dict[str, Any]] = []
    stats: Optional[Dict[str, Any]] = None
    dispositions: Dict[str, int] = {}
    markers: Dict[str, int] = {}

    for event in events:
        kind = event.get("kind")
        if kind == "candidate":
            view = _candidate_view(event)
            candidates.append(view)
            dispositions[view.disposition] = (
                dispositions.get(view.disposition, 0) + 1
            )
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

    measured = [c for c in candidates if c.measured]

    # Best prediction per distinct plan fingerprint (cache hits repeat
    # fingerprints; keep one representative each).
    best_by_fp: Dict[str, CandidateView] = {}
    for cand in measured:
        incumbent = best_by_fp.get(cand.fingerprint)
        if incumbent is None or cand.gflops > incumbent.gflops:
            best_by_fp[cand.fingerprint] = cand

    # The winner candidate: joined by fingerprint to the winner event
    # when possible (multi-plan schedules pick the best member), else
    # the best measured candidate overall.
    winner_candidate: Optional[CandidateView] = None
    if winner_event is not None:
        winner_fps = [
            p.get("fingerprint") for p in winner_event.get("plans", ())
        ]
        matched = [best_by_fp[fp] for fp in winner_fps if fp in best_by_fp]
        if matched:
            winner_candidate = max(matched, key=lambda c: c.gflops)
    if winner_candidate is None and best_by_fp:
        winner_candidate = max(best_by_fp.values(), key=lambda c: c.gflops)

    # Top-k runners-up: best distinct plans excluding the winner's.
    runners: List[RunnerUp] = []
    if winner_candidate is not None:
        losers = sorted(
            (
                c
                for fp, c in best_by_fp.items()
                if fp != winner_candidate.fingerprint
            ),
            key=lambda c: c.gflops,
            reverse=True,
        )
        for cand in losers[: max(0, top_k)]:
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

    # Convergence: running best GFLOPS in evaluation order.
    convergence: List[Tuple[int, float]] = []
    best = float("-inf")
    for cand in measured:
        if cand.gflops > best:
            best = cand.gflops
            convergence.append((cand.seq, cand.gflops))

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
        candidates=len(candidates),
        measured=len(measured),
        distinct_plans=len(best_by_fp),
    )


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
