"""Hardware-counter and timing result types produced by the simulator.

Field names mirror the nvprof metrics the paper collects (Section IV):
FLOP counts, DRAM read/write bytes, texture-path bytes, shared-memory
bytes — plus the derived operational intensities the roofline analysis
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .occupancy import OccupancyResult


@dataclass(frozen=True)
class KernelCounters:
    """Counters for one kernel launch (whole-grid totals)."""

    flops: float
    useful_flops: float  # excluding overlapped-tiling recomputation
    dram_read_bytes: float
    dram_write_bytes: float
    tex_bytes: float
    shm_bytes: float
    spill_bytes: float
    blocks: int
    threads_per_block: int
    regs_per_thread: int  # as compiled (capped at maxrregcount)
    regs_demand: int  # pre-cap estimate; demand > compiled => spills
    shmem_per_block: int
    syncs: float  # __syncthreads() executions, whole grid

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes + self.spill_bytes

    @property
    def has_spills(self) -> bool:
        return self.regs_demand > self.regs_per_thread

    @property
    def spilled_registers(self) -> int:
        return max(0, self.regs_demand - self.regs_per_thread)

    def oi(self, level: str) -> float:
        """Operational intensity at a memory level in {dram, tex, shm}."""
        denom = {
            "dram": self.dram_bytes,
            "tex": self.tex_bytes,
            "shm": self.shm_bytes,
        }[level]
        if denom <= 0:
            return float("inf")
        return self.flops / denom


@dataclass(frozen=True)
class TimingBreakdown:
    """Per-resource time components of one launch (seconds)."""

    compute_s: float
    dram_s: float
    tex_s: float
    shm_s: float
    sync_s: float
    latency_s: float
    launch_s: float
    #: exposed load latency in a synchronized streaming loop without
    #: prefetching (the bubble Section III-A4 eliminates)
    bubble_s: float = 0.0

    @property
    def total_s(self) -> float:
        """The kernel runs at the pace of its slowest resource; sync,
        bubble and launch overheads are additive."""
        bound = max(
            self.compute_s, self.dram_s, self.tex_s, self.shm_s, self.latency_s
        )
        return bound + self.sync_s + self.bubble_s + self.launch_s

    @property
    def bound_resource(self) -> str:
        candidates = {
            "compute": self.compute_s,
            "dram": self.dram_s,
            "tex": self.tex_s,
            "shm": self.shm_s,
            "latency": self.latency_s,
        }
        return max(candidates, key=candidates.get)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SimulationResult:
    """Everything the simulator reports about one kernel launch."""

    counters: KernelCounters
    occupancy: OccupancyResult
    timing: TimingBreakdown

    @property
    def time_s(self) -> float:
        return self.timing.total_s

    @property
    def time_ms(self) -> float:
        return self.timing.total_s * 1e3

    @property
    def tflops(self) -> float:
        """Useful (non-redundant) FLOP throughput — what the paper plots."""
        if self.timing.total_s <= 0:
            return 0.0
        return self.counters.useful_flops / self.timing.total_s / 1e12
