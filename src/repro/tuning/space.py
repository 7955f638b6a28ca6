"""Pruned autotuning search space (paper Section V).

The autotuner prunes the configuration space with three choices that
"conform to the tuned parameters discovered by other autotuners":

1. block sizes and unroll factors are powers of two per dimension;
2. block sizes are in [4, 256] per dimension (total ≤ device limit);
3. unroll factors are ≤ 8 for bandwidth-bound stencils and ≤ 4 for
   compute-bound ones.

Unrolled versions are ordered so the statement count after unrolling
(``uz*uy*ux``) increases monotonically, letting the tuner escalate the
per-thread register budget (32 → 64 → 128 → 255) and skip spilling
configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..codegen.plan import KernelPlan, REGISTER_LEVELS
from ..gpu.device import DeviceSpec, P100

BLOCK_MIN = 4
BLOCK_MAX = 256
UNROLL_MAX_BANDWIDTH = 8
UNROLL_MAX_COMPUTE = 4


def _powers_of_two(lo: int, hi: int) -> Tuple[int, ...]:
    out: List[int] = []
    value = lo
    while value <= hi:
        out.append(value)
        value *= 2
    return tuple(out)


@dataclass(frozen=True)
class SearchSpace:
    """The pruned candidate space for one kernel."""

    ndim: int
    streaming: bool
    bandwidth_bound: bool = True
    allow_unroll: bool = True
    device: DeviceSpec = P100

    @property
    def tiled_dims(self) -> int:
        return self.ndim - 1 if self.streaming else self.ndim

    def block_candidates(self) -> Tuple[Tuple[int, ...], ...]:
        """Power-of-two blocks within [4, 256] per dim and device limits."""
        sizes = _powers_of_two(BLOCK_MIN, BLOCK_MAX)
        out: List[Tuple[int, ...]] = []
        for combo in itertools.product(sizes, repeat=self.tiled_dims):
            threads = 1
            for extent in combo:
                threads *= extent
            if threads < self.device.warp_size:
                continue
            if threads > self.device.max_threads_per_block:
                continue
            out.append(combo)
        return tuple(out)

    def unroll_candidates(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-axis unroll factors, ordered by total unroll (monotone)."""
        if not self.allow_unroll:
            return (tuple([1] * self.ndim),)
        cap = (
            UNROLL_MAX_BANDWIDTH
            if self.bandwidth_bound
            else UNROLL_MAX_COMPUTE
        )
        factors = _powers_of_two(1, cap)
        combos: List[Tuple[int, ...]] = []
        for combo in itertools.product(factors, repeat=self.ndim):
            if self.streaming and combo[0] != 1:
                continue  # no unrolling along the serial sweep
            total = 1
            for factor in combo:
                total *= factor
            if total > cap:
                continue
            combos.append(combo)
        combos.sort(key=lambda c: (self._total(c), c))
        return tuple(combos)

    @staticmethod
    def _total(combo: Sequence[int]) -> int:
        total = 1
        for factor in combo:
            total *= factor
        return total

    def register_levels(self) -> Tuple[int, ...]:
        return REGISTER_LEVELS

    def size(self) -> int:
        """Candidate count of the pruned (block x unroll) space."""
        return len(self.block_candidates()) * len(self.unroll_candidates())


def exhaustive_space_size(ndim: int, streaming: bool) -> int:
    """Rough census of an *unpruned* OpenTuner-style space.

    Every block extent in [1, 1024], every unroll in [1, 16], four
    register levels, boolean prefetch, three perspectives, three
    streaming modes — the combinatorial space Section V contrasts
    hierarchical tuning against (OpenTuner took > 24h on it).
    """
    dims = ndim - 1 if streaming else ndim
    blocks = 1024 ** dims
    unrolls = 16 ** ndim
    return blocks * unrolls * len(REGISTER_LEVELS) * 2 * 3 * 3


class KnobGrid:
    """Stage-1 lanes as knob columns over one base plan.

    Lane ``i`` is ``base`` with block ``blocks[block_ix[i]]``, unroll
    ``unrolls[unroll_ix[i]]`` and ``retime[i]``: the sweep is described
    once, and a :class:`KernelPlan` exists only for a lane that is read
    (:meth:`plan`).  Each retime value is one structural family of
    lanes (:meth:`families`), priced from the columns alone.

    The lanes are every block x unroll pair, block-major, with the
    base's retime; with ``retime_twins``, each unroll-free lane is
    followed by its retimed twin, so a filter over the lanes keeps the
    pairing.  The columns are built here from those values alone, so
    :meth:`contains` reads the same rule.
    """

    __slots__ = (
        "base", "blocks", "unrolls", "block_ix", "unroll_ix", "retime",
        "retime_twins",
    )

    def __init__(
        self,
        base: KernelPlan,
        blocks: Sequence[Tuple[int, ...]],
        unrolls: Sequence[Tuple[int, ...]],
        retime_twins: bool = False,
    ):
        self.base = base
        self.blocks = tuple(blocks)
        self.unrolls = tuple(unrolls)
        self.retime_twins = retime_twins
        # One block's lanes: every unroll, each unroll-free one followed
        # by its retimed twin; every block repeats them.
        unroll_ix: List[int] = []
        retime: List[bool] = []
        for u, unroll in enumerate(self.unrolls):
            unroll_ix.append(u)
            retime.append(base.retime)
            if retime_twins and SearchSpace._total(unroll) == 1:
                unroll_ix.append(u)
                retime.append(True)
        width = len(unroll_ix)
        count = len(self.blocks)
        self.block_ix = list(
            itertools.chain.from_iterable(
                itertools.repeat(b, width) for b in range(count)
            )
        )
        self.unroll_ix = unroll_ix * count
        self.retime = retime * count

    def __len__(self) -> int:
        return len(self.block_ix)

    def plan(self, i: int) -> KernelPlan:
        """Lane ``i`` as a plan."""
        base = self.base
        block = self.blocks[self.block_ix[i]]
        unroll = self.unrolls[self.unroll_ix[i]]
        if self.retime[i] == base.retime:
            return base.replace(block=block, unroll=unroll)
        return base.replace(block=block, unroll=unroll, retime=self.retime[i])

    def plans(self) -> Iterator[KernelPlan]:
        return (self.plan(i) for i in range(len(self)))

    def families(self) -> List[Tuple[KernelPlan, List[int]]]:
        """``(prototype, lanes)`` per retime value, in first-lane order.

        Lanes of one family differ only in block and unroll, two of
        the lane axes of ``repro.gpu.pricing``; the prototype is the
        family's first lane.
        """
        retime = self.retime
        values = dict.fromkeys(retime)
        lanes = range(len(retime))
        if len(values) == 1:
            groups = [list(lanes)]
        else:
            groups = [
                list(itertools.compress(lanes, map(value.__eq__, retime)))
                for value in values
            ]
        return [(self.plan(members[0]), members) for members in groups]

    def contains(self, plan: KernelPlan) -> bool:
        """Whether ``plan`` is a lane, register cap aside: its
        :func:`~repro.codegen.tiling.plan_family_key` is a lane's (its
        block, unroll and retime are a lane's, and its structural key
        and lane mode are that lane's prototype's)."""
        from ..codegen.tiling import plan_mode, plan_structural_key

        base = self.base
        if plan.block not in self.blocks or plan.unroll not in self.unrolls:
            return False
        if plan.retime != base.retime and not (
            self.retime_twins
            and plan.retime
            and SearchSpace._total(plan.unroll) == 1
        ):
            return False
        proto = base if plan.retime == base.retime else base.replace(
            retime=plan.retime
        )
        return plan_structural_key(plan) == plan_structural_key(
            proto
        ) and plan_mode(plan) == plan_mode(proto)


def stage1_grid(
    plan: KernelPlan, space: SearchSpace, retime_twins: bool = False
) -> KnobGrid:
    """The block x unroll sweep over ``plan`` (see :class:`KnobGrid`)."""
    return KnobGrid(
        plan, space.block_candidates(), space.unroll_candidates(),
        retime_twins,
    )


def seed_variants(
    plan: KernelPlan, space: SearchSpace
) -> Iterator[KernelPlan]:
    """Stage-1 variants: block size x unroll factors over the base plan."""
    return stage1_grid(plan, space).plans()
