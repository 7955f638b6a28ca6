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
from functools import lru_cache
from operator import getitem, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..codegen.plan import KernelPlan, REGISTER_LEVELS
from ..codegen.tiling import (
    MODE_FIELDS,
    knob_number,
    plan_mode,
    plan_structural_key,
)
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


#: The plan fields of a :class:`KnobGrid` lane's columns, in order.
_LANE_FIELDS = ("block", "unroll") + MODE_FIELDS + ("max_registers",)


class KnobGrid:
    """Search lanes as int columns over a few shape plans.

    Lane ``i`` is ``shapes[shape_ix[i]]`` with block
    ``blocks[block_ix[i]]``, unroll ``unrolls[unroll_ix[i]]`` and mode
    ``modes[mode_ix[i]]`` (a :func:`~repro.codegen.tiling.plan_mode`);
    ``knob[i]`` is its :func:`~repro.codegen.tiling.knob_number`.  A
    shape holds the structure (retiming, folding) and the register cap,
    and a mode never switches streaming on or off, so the shapes of one
    structural key make one family of lanes (:meth:`families`), priced
    from the columns alone.  A plan exists only for a lane that is read
    (:meth:`plan`).  Stage 1 is :func:`stage1_grid`; stage 2's shapes
    are the stage-1 survivors, as they are, retimed or folded.
    """

    __slots__ = (
        "shapes", "blocks", "unrolls", "modes", "shape_ix", "block_ix",
        "unroll_ix", "mode_ix", "knob", "_families",
    )

    def __init__(self, shapes, blocks, unrolls, modes, shape_ix, block_ix,
                 unroll_ix, mode_ix, knob):
        self.shapes, self.blocks = tuple(shapes), tuple(blocks)
        self.unrolls, self.modes = tuple(unrolls), tuple(modes)
        self.shape_ix, self.block_ix = shape_ix, block_ix
        self.unroll_ix, self.mode_ix, self.knob = unroll_ix, mode_ix, knob
        self._families: Optional[List[Tuple[KernelPlan, List[int]]]] = None

    def __len__(self) -> int:
        return len(self.knob)

    def plan(self, i: int, max_registers: Optional[int] = None) -> KernelPlan:
        """Lane ``i`` as a plan (at ``max_registers``, if given); a lane
        whose columns are its shape's own is the shape itself."""
        shape = self.shapes[self.shape_ix[i]]
        lane = zip(_LANE_FIELDS, (
            self.blocks[self.block_ix[i]], self.unrolls[self.unroll_ix[i]],
            *self.modes[self.mode_ix[i]], max_registers,
        ))
        changes = {
            field: value for field, value in lane
            if value is not None and value != getattr(shape, field)
        }
        return shape.replace(**changes) if changes else shape

    def plans(self) -> Iterator[KernelPlan]:
        return (self.plan(i) for i in range(len(self)))

    def families(self) -> List[Tuple[KernelPlan, List[int]]]:
        """``(prototype, lanes)`` per structural key, in first-lane
        order (computed once); the prototype is the first lane."""
        if self._families is None:
            number: Dict[tuple, int] = {}
            group = [
                number.setdefault(plan_structural_key(shape), len(number))
                for shape in self.shapes
            ]
            lanes = range(len(self))
            if len(number) == 1:
                groups = [list(lanes)]
            else:
                lane_group = list(map(group.__getitem__, self.shape_ix))
                groups = [
                    list(itertools.compress(lanes, map(g.__eq__, lane_group)))
                    for g in range(len(number))
                ]
            self._families = [
                (self.plan(members[0]), members)
                for members in sorted(filter(None, groups), key=itemgetter(0))
            ]
        return self._families

    def family_knobs(self) -> Dict[tuple, Set[int]]:
        """Each family's structural key -> its lanes' knob numbers."""
        knob = self.knob
        return {
            plan_structural_key(proto): set(map(knob.__getitem__, members))
            for proto, members in self.families()
        }


@lru_cache(maxsize=64)
def _knob_table(blocks: tuple, unrolls: tuple, mode: tuple) -> List[list]:
    """``[block][unroll]`` -> knob number over a sweep's knob values (the
    sweeps of one search space share one table)."""
    return [
        [knob_number(block, unroll, mode) for unroll in unrolls]
        for block in blocks
    ]


def stage1_grid(
    plan: KernelPlan, space: SearchSpace, retime_twins: bool = False
) -> KnobGrid:
    """The block x unroll sweep over ``plan``: every pair, block-major,
    in ``plan``'s mode; with ``retime_twins``, each unroll-free lane is
    followed by its retimed twin, so a filter over the lanes keeps the
    pairing."""
    blocks, unrolls = space.block_candidates(), space.unroll_candidates()
    # One block's lanes: every unroll, each unroll-free one followed by
    # its retimed twin (shape 1); every block repeats them.
    unroll_ix, shape_ix = [], []
    for u, unroll in enumerate(unrolls):
        twin = retime_twins and SearchSpace._total(unroll) == 1
        unroll_ix += (u, u) if twin else (u,)
        shape_ix += (0, 1) if twin else (0,)
    shapes = [plan]
    if blocks and 1 in shape_ix:
        # The twins' shape is their first lane.
        first = unrolls[unroll_ix[shape_ix.index(1)]]
        shapes.append(plan.replace(block=blocks[0], unroll=first, retime=True))
    width, count = len(unroll_ix), len(blocks)
    block_ix = list(itertools.chain.from_iterable(
        map(itertools.repeat, range(count), [width] * count)
    ))
    unroll_ix *= count
    table = _knob_table(blocks, unrolls, plan_mode(plan))
    knob = list(map(getitem, map(table.__getitem__, block_ix), unroll_ix))
    return KnobGrid(
        shapes, blocks, unrolls, (plan_mode(plan),), shape_ix * count,
        block_ix, unroll_ix, [0] * len(knob), knob,
    )


def seed_variants(
    plan: KernelPlan, space: SearchSpace
) -> Iterator[KernelPlan]:
    """Stage-1 variants: block size x unroll factors over the base plan."""
    return stage1_grid(plan, space).plans()
