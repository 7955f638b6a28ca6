"""Transfer tuning: warm-start one device's search from another's journal.

A finished tuning run leaves behind a :class:`TuningJournal` with one
record per tuning unit, and each record keeps the unit's fastest plans
as transfer ``seeds``.  Those timings are *wrong* on any other
device — which is why checkpoint resume refuses across devices
(:class:`~repro.resilience.errors.CheckpointDeviceMismatch`) — but the
*shape* of the winners transfers well: the block sizes and unroll
factors that won on a P100 are strong priors for where a V100 search
should look.  Transfer tuning exploits this the sanctioned way:

* :func:`journaled_winners` reads a foreign journal **offline** (no
  replay, no device check, no lock — timings are never reused) and
  extracts the best recorded seeds for a given stencil;
* :class:`WarmStartTuner` narrows the stage-1 block x unroll sweep to
  the winners' configurations plus an adjustable power-of-two
  neighborhood, falling back to the full sweep if the projection is
  empty — a foreign journal can shrink the search, never brick it;
* :func:`transfer_tune` / :func:`transfer_deep_tune` wire the two into
  the standard :func:`~repro.tuning.hierarchical.tune_kernel` and
  :func:`~repro.tuning.deeptuning.deep_tune` entry points.

Stage 2 runs untouched on the surviving candidates, so second-tier
knobs (prefetch, concurrent streaming, perspectives, retiming, folding)
are still explored from scratch on the target device.  The search-cost
savings are measured by ``benchmarks/bench_transfer.py`` and gated in
``BENCH_transfer.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple, Union

from ..codegen.plan import KernelPlan
from ..gpu.device import DeviceSpec, P100
from ..ir.stencil import ProgramIR
from ..resilience.checkpoint import TuningJournal, ir_fingerprint, read_journal
from .deeptuning import DeepTuningResult, deep_tune
from .hierarchical import (
    DEFAULT_SEED_LIMIT,
    HierarchicalTuner,
    TuningResult,
    measurement_from_record,
    seed_signature,
)
from .space import KnobGrid, SearchSpace

__all__ = [
    "DEFAULT_NEIGHBORHOOD",
    "DEFAULT_SEED_LIMIT",
    "TransferSeed",
    "WarmStartTuner",
    "journaled_winners",
    "transfer_deep_tune",
    "transfer_tune",
]

#: Power-of-two rings explored around each seed configuration (one ring
#: = every single-knob halve/double of a kept configuration).  Two
#: rings is the validated default: on the benchmarked P100 -> V100
#: transfer it reproduces the cold search's winner at every fusion
#: degree while pricing roughly half the candidates
#: (``benchmarks/bench_transfer.py``); one ring saves more (~80%) but
#: can land on a different — equal-or-slower — winner.
DEFAULT_NEIGHBORHOOD = 2

JournalSource = Union[str, "os.PathLike", TuningJournal]


@dataclass(frozen=True)
class TransferSeed:
    """One winner mined from a source-device journal.

    ``time_s``/``tflops`` are the *source* device's model numbers —
    useful for ranking seeds, meaningless as target timings.
    """

    plan: KernelPlan
    time_s: float
    tflops: float
    source_device: Optional[str] = None

    @property
    def signature(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return seed_signature(self.plan)


def journaled_winners(
    source: JournalSource,
    ir: ProgramIR,
    limit: Optional[int] = DEFAULT_SEED_LIMIT,
) -> Tuple[TransferSeed, ...]:
    """Best recorded seeds for ``ir`` in a (foreign) journal.

    ``source`` is a journal path or an open :class:`TuningJournal`.  A
    path is read with :func:`~repro.resilience.checkpoint.read_journal`
    — reading a foreign journal is the sanctioned cross-device use, so
    no mismatch check applies and nothing is replayed.  The ``seeds`` of
    every ``tune`` and ``degree`` record of this stencil (by IR
    fingerprint) are deduplicated by stage-1 signature (best time kept)
    and returned fastest-first, at most ``limit`` of them (``None`` =
    all).  Each unit keeps at most
    :data:`~repro.tuning.hierarchical.DEFAULT_SEED_LIMIT` seeds, so a
    signature in the overall top ``limit <= DEFAULT_SEED_LIMIT`` is
    always among its own unit's seeds.
    """
    if isinstance(source, TuningJournal):
        device, records = source.recorded_device, source.records()
    else:
        device, records = read_journal(source)
    prefix = f"{ir_fingerprint(ir)}:"
    best: dict = {}
    for record in records:
        if not record["key"].startswith(prefix):
            continue
        for entry in record["seeds"]:
            measurement = measurement_from_record(entry)
            seed = TransferSeed(
                plan=measurement.plan,
                time_s=measurement.time_s,
                tflops=measurement.tflops,
                source_device=device,
            )
            held = best.get(seed.signature)
            if held is None or seed.time_s < held.time_s:
                best[seed.signature] = seed
    winners = sorted(best.values(), key=lambda s: s.time_s)
    if limit is not None:
        winners = winners[: max(0, limit)]
    return tuple(winners)


class WarmStartTuner(HierarchicalTuner):
    """Hierarchical tuner whose stage 1 is seeded by foreign winners.

    The full block x unroll sweep is generated, then filtered to the
    configurations whose (block, unroll) signature lies within
    ``neighborhood`` power-of-two rings of any seed — so every kept
    candidate is still a legal member of the target device's own
    :class:`~repro.tuning.space.SearchSpace` (limits differ across
    devices; an MI100 seed of 64 threads/warp never smuggles an
    undersized block onto an NVIDIA part).  An empty projection falls
    back to the full sweep.  Stage 2 is inherited unchanged.
    """

    def __init__(
        self,
        ir: ProgramIR,
        seeds: Sequence[TransferSeed] = (),
        neighborhood: int = DEFAULT_NEIGHBORHOOD,
        **tuner_kwargs,
    ):
        super().__init__(ir, **tuner_kwargs)
        self.seeds = tuple(seeds)
        self.neighborhood = max(0, int(neighborhood))
        #: sweep sizes of the last stage 1, for cost reporting:
        #: ``stage1_full`` is what a cold search would have measured,
        #: ``stage1_kept`` what the warm start actually submitted.
        self.stage1_full = 0
        self.stage1_kept = 0

    def unit_config(self) -> tuple:
        """The cold configuration plus the seeds and neighborhood, which
        decide what stage 1 sweeps."""
        signatures = tuple(sorted({seed.signature for seed in self.seeds}))
        return super().unit_config() + (signatures, self.neighborhood)

    def _warm_signatures(self) -> Set[tuple]:
        allowed: Set[tuple] = {seed.signature for seed in self.seeds}
        frontier = set(allowed)
        for _ in range(self.neighborhood):
            ring: Set[tuple] = set()
            for block, unroll in frontier:
                for axis in range(len(block)):
                    for scaled in (block[axis] * 2, block[axis] // 2):
                        if scaled >= 1:
                            moved = list(block)
                            moved[axis] = scaled
                            ring.add((tuple(moved), unroll))
                for axis in range(len(unroll)):
                    for scaled in (unroll[axis] * 2, unroll[axis] // 2):
                        if scaled >= 1:
                            moved = list(unroll)
                            moved[axis] = scaled
                            ring.add((block, tuple(moved)))
            frontier = ring - allowed
            allowed |= ring
        return allowed

    def _stage1_candidates(
        self, base: KernelPlan, space: SearchSpace
    ) -> KnobGrid:
        full = super()._stage1_candidates(base, space)
        self.stage1_full = len(full)
        kept = full
        if self.seeds:
            allowed = self._warm_signatures()
            keep = [signature in allowed for signature in full.signatures()]
            # The seeds may project entirely outside this device's
            # space (different dimensionality, disjoint limits): a warm
            # start may never brick the search, so then sweep cold.
            if any(keep):
                kept = full.select(keep)
        self.stage1_kept = len(kept)
        return kept


def transfer_tune(
    ir: ProgramIR,
    base: KernelPlan,
    source: JournalSource,
    device: DeviceSpec = P100,
    neighborhood: int = DEFAULT_NEIGHBORHOOD,
    seed_limit: Optional[int] = DEFAULT_SEED_LIMIT,
    **tuner_kwargs,
) -> TuningResult:
    """:func:`~repro.tuning.hierarchical.tune_kernel`, warm-started.

    Mines ``source`` for this stencil's winners and tunes ``base`` on
    ``device`` with the narrowed stage-1 sweep.  All remaining keyword
    arguments flow to :class:`WarmStartTuner` /
    :class:`~repro.tuning.hierarchical.HierarchicalTuner`.
    """
    seeds = journaled_winners(source, ir, limit=seed_limit)
    tuner = WarmStartTuner(
        ir,
        seeds=seeds,
        neighborhood=neighborhood,
        device=device,
        **tuner_kwargs,
    )
    return tuner.tune(base)


def transfer_deep_tune(
    ir: ProgramIR,
    source: JournalSource,
    device: DeviceSpec = P100,
    neighborhood: int = DEFAULT_NEIGHBORHOOD,
    seed_limit: Optional[int] = DEFAULT_SEED_LIMIT,
    **deep_kwargs,
) -> DeepTuningResult:
    """:func:`~repro.tuning.deeptuning.deep_tune`, warm-started.

    Every fusion degree's inner tuner is a :class:`WarmStartTuner`
    seeded from ``source``.  Seeds are mined once: the (block, unroll)
    signature ignores the time tile, so winners recorded at any source
    degree steer every target degree.
    """
    seeds = journaled_winners(source, ir, limit=seed_limit)

    def make_tuner(inner_ir, **tuner_kwargs):
        return WarmStartTuner(
            inner_ir,
            seeds=seeds,
            neighborhood=neighborhood,
            **tuner_kwargs,
        )

    return deep_tune(ir, device=device, make_tuner=make_tuner, **deep_kwargs)
