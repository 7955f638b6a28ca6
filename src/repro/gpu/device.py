"""GPU device profiles and the device registry.

The paper evaluates on an NVIDIA Pascal P100 and parameterizes its
profiling component with the device's theoretical peaks ("The user is
expected to provide these theoretical peak values for the GPU device to
ARTEMIS", Section IV).  The ratios the paper states for the P100 are
reproduced exactly: double-precision peak α = 4.7 TFLOPS and ridge
points α/β_dram = 6.42, α/β_tex = 2.35, α/β_shm = 0.49.

A device profile carries everything the model needs to be retargeted:

* **resource limits** the occupancy calculator and the resource-
  assignment algorithm consume (shared memory per SM/block, register
  file size, thread caps, warp/wavefront width);
* **α/β bandwidth ratios** (peak compute and per-level bandwidths);
* **register/spill and latency model knobs** that were historically
  hard-coded P100 constants in :mod:`repro.gpu.simulator` — spill
  access rate, inter-block L2 capture, warp schedulers per SM, the
  latency-covering warp count and the DRAM transaction (sector) size;
* **empirical derates** of the timing model (saturation occupancies,
  sustained fractions, sync/launch overheads).

Profiles register themselves in :data:`DEVICES`; :func:`get_device`
resolves a (case-insensitive) name for the CLI and the examples, and
:func:`register_device` lets downstream code add its own profiles.  The
``DeviceProfile`` name is the public interface alias: every profile is a
frozen :class:`DeviceSpec`, so two profiles are interchangeable wherever
one is accepted, and a profile is hashable — the evaluation engine uses
the profile itself in its content-addressed memo keys, so the same plan
priced on two devices can never share a cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Tuple

from ..resilience.errors import UsageError


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a GPU device for modeling purposes."""

    name: str
    sms: int
    #: double-precision peak, GFLOP/s (the paper's α)
    peak_gflops: float
    #: peak bandwidths, GB/s (the paper's β_M per memory level M)
    dram_bw_gbs: float
    tex_bw_gbs: float
    shm_bw_gbs: float
    #: resource limits
    shared_mem_per_sm: int
    shared_mem_per_block: int
    registers_per_sm: int
    max_registers_per_thread: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    warp_size: int = 32
    l2_cache_bytes: int = 4 * 1024 * 1024
    dram_transaction_bytes: int = 32
    #: register allocation granularity (registers are allocated per warp
    #: in multiples of this many registers)
    register_granularity: int = 256

    # -- empirical derates of the timing model --------------------------------
    # Real kernels do not reach theoretical rooflines; the paper's own
    # Table II/Figure 4 data implies sustained efficiency well below peak
    # (e.g. 7pt-smoother at OI_dram 0.97 measures ~0.28 TFLOPS where the
    # naive roofline predicts 0.71).  These constants derate each roof.
    #: occupancy at which DRAM bandwidth saturates
    dram_saturation_occupancy: float = 0.25
    #: occupancy at which the texture/L1 path saturates (a few warps per
    #: SM suffice) and the fraction of peak it sustains — the SW4
    #: kernels run near peak texture bandwidth at 12.5% occupancy
    tex_saturation_occupancy: float = 0.08
    tex_sustained_fraction: float = 0.92
    #: occupancy at which the compute pipes saturate (needs more warps)
    compute_saturation_occupancy: float = 0.5
    #: fraction of the theoretical roofline that tuned kernels sustain
    sustained_fraction: float = 0.62
    #: per-__syncthreads() cost in nanoseconds per block
    sync_cost_ns: float = 12.0
    #: kernel launch overhead in microseconds
    launch_overhead_us: float = 4.0
    #: core clock (GHz) and arithmetic pipe latency, for the issue-latency
    #: term of the timing model
    clock_ghz: float = 1.48
    arith_latency_cycles: float = 6.0
    #: L2 capture of re-touches when an array is read straight from
    #: global memory under streaming.  The paper observes (Section
    #: VIII-F) that "streaming ... results in poor L2 locality when
    #: shared memory is not used": the long pencil sweep keeps evicting
    #: re-touched planes.  This constant is the fraction of the normal
    #: L2 capture probability such reads retain; the working-set test
    #: (vs. L2 capacity) does the rest.
    stream_gmem_l2_capture: float = 0.65

    # -- register/spill and latency model knobs -------------------------------
    #: spilled registers are stored and reloaded about this many times
    #: per computed point (local-memory traffic through the L1/tex path)
    spill_access_rate: float = 1.0
    #: L2 capture of cross-block halo reuse relative to same-block reuse
    inter_block_l2_factor: float = 0.5
    #: instruction issue slots per SM per cycle (warp schedulers)
    warp_schedulers: float = 2.0
    #: active warps (× ILP) needed per SM to fully hide arithmetic latency
    latency_cover_warps: float = 4.0
    #: vendor tag: "nvidia" | "amd" | "test" — informational (the model
    #: is vendor-agnostic; AMD semantics enter via wavefront width, LDS
    #: sizes and the knobs above)
    vendor: str = "nvidia"

    # -- ratios ---------------------------------------------------------------

    @property
    def ridge_dram(self) -> float:
        """α/β_dram: FLOPs per DRAM byte at the roofline ridge."""
        return self.peak_gflops / self.dram_bw_gbs

    @property
    def ridge_tex(self) -> float:
        return self.peak_gflops / self.tex_bw_gbs

    @property
    def ridge_shm(self) -> float:
        return self.peak_gflops / self.shm_bw_gbs

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    def ridge(self, level: str) -> float:
        """Ridge point α/β for a memory level in {dram, tex, shm}."""
        return {
            "dram": self.ridge_dram,
            "tex": self.ridge_tex,
            "shm": self.ridge_shm,
        }[level]

    def bandwidth(self, level: str) -> float:
        return {
            "dram": self.dram_bw_gbs,
            "tex": self.tex_bw_gbs,
            "shm": self.shm_bw_gbs,
        }[level]

    def replace(self, **changes) -> "DeviceSpec":
        return replace(self, **changes)

    def __hash__(self) -> int:
        # The field-tuple hash the dataclass would generate, pinned on
        # the (frozen) spec after the first call: the evaluation engine's
        # memo key holds the profile and is hashed on every request.
        pinned = self.__dict__.get("_hash")
        if pinned is None:
            pinned = hash(tuple(getattr(self, name) for name in _SPEC_FIELDS))
            object.__setattr__(self, "_hash", pinned)
        return pinned

    def __getstate__(self) -> dict:
        # String hashes differ between interpreters: a copy or an
        # unpickled spec recomputes its own.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


#: Declared field names, in order: the components of the spec's hash.
_SPEC_FIELDS = tuple(DeviceSpec.__dataclass_fields__)


#: The public interface name: any frozen :class:`DeviceSpec` is a device
#: profile.  Kept as an alias (not a subclass) so profiles stay plain
#: hashable value objects usable as memo-key components.
DeviceProfile = DeviceSpec


#: NVIDIA Pascal P100 (the paper's evaluation platform).  Bandwidths are
#: derived from the ridge points the paper quotes: β_dram = 4700/6.42 ≈
#: 732 GB/s (matching the P100's HBM2), β_tex = 4700/2.35 = 2000 GB/s,
#: β_shm = 4700/0.49 ≈ 9592 GB/s.
P100 = DeviceSpec(
    name="P100",
    sms=56,
    peak_gflops=4700.0,
    dram_bw_gbs=4700.0 / 6.42,
    tex_bw_gbs=4700.0 / 2.35,
    shm_bw_gbs=4700.0 / 0.49,
    shared_mem_per_sm=64 * 1024,
    shared_mem_per_block=48 * 1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
)

#: NVIDIA Volta V100 — used by the retargeting example to show the model
#: is parametric in the device (ratios from the Volta microbenchmarking
#: study the paper cites [41]).
V100 = DeviceSpec(
    name="V100",
    sms=80,
    peak_gflops=7800.0,
    dram_bw_gbs=900.0,
    tex_bw_gbs=2700.0,
    shm_bw_gbs=13800.0,
    shared_mem_per_sm=96 * 1024,
    shared_mem_per_block=96 * 1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    l2_cache_bytes=6 * 1024 * 1024,
)

#: NVIDIA Ampere A100 (SXM, FP64 non-tensor peak): 108 SMs, 1.555 TB/s
#: HBM2e, 164 KiB configurable shared memory per SM (163 KiB usable per
#: block), a 40 MiB L2.  Texture/L1 and shared bandwidths follow the
#: published per-SM bytes/clock at the 1.41 GHz boost clock.
A100 = DeviceSpec(
    name="A100",
    sms=108,
    peak_gflops=9700.0,
    dram_bw_gbs=1555.0,
    tex_bw_gbs=4400.0,
    shm_bw_gbs=19400.0,
    shared_mem_per_sm=164 * 1024,
    shared_mem_per_block=163 * 1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    l2_cache_bytes=40 * 1024 * 1024,
    clock_ghz=1.41,
)

#: AMD CDNA-class profile (MI100-like): 120 compute units, 64-wide
#: wavefronts, 64 KiB LDS per CU (the whole LDS is addressable by one
#: workgroup), a 512 KiB-per-CU vector register file allocated in
#: 4-VGPR-per-lane blocks (256 registers per wavefront), and at most 40
#: waves / 16 workgroups resident per CU.  "Stencil Computations on AMD
#: and Nvidia Graphics Processors" (PAPERS.md) motivates the profile:
#: the tuning strategy shifts with wavefront width and LDS geometry,
#: which is exactly what this spec changes — the model arithmetic stays
#: vendor-agnostic.
MI100 = DeviceSpec(
    name="MI100",
    sms=120,
    peak_gflops=11500.0,
    dram_bw_gbs=1228.0,
    tex_bw_gbs=3500.0,
    shm_bw_gbs=23000.0,
    shared_mem_per_sm=64 * 1024,
    shared_mem_per_block=64 * 1024,
    registers_per_sm=131072,
    max_registers_per_thread=255,
    max_threads_per_sm=2560,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    warp_size=64,
    l2_cache_bytes=8 * 1024 * 1024,
    dram_transaction_bytes=64,
    register_granularity=256,
    clock_ghz=1.502,
    warp_schedulers=4.0,
    vendor="amd",
)

#: Deliberately tiny profile for fast tests: two SMs, a 256-thread block
#: cap (which shrinks the stage-1 block space), small register file and
#: L2.  Numbers are round so hand-computed expectations stay readable.
TOY = DeviceSpec(
    name="TOY",
    sms=2,
    peak_gflops=100.0,
    dram_bw_gbs=40.0,
    tex_bw_gbs=80.0,
    shm_bw_gbs=200.0,
    shared_mem_per_sm=16 * 1024,
    shared_mem_per_block=16 * 1024,
    registers_per_sm=16384,
    max_registers_per_thread=255,
    max_threads_per_sm=512,
    max_threads_per_block=256,
    max_blocks_per_sm=8,
    l2_cache_bytes=128 * 1024,
    clock_ghz=1.0,
    launch_overhead_us=1.0,
    vendor="test",
)


#: Registry for lookup by name (used by examples and the CLI surface).
#: Insertion order is presentation order (``repro devices``).
DEVICES: Dict[str, DeviceSpec] = {}


def register_device(spec: DeviceSpec, aliases: Iterable[str] = ()) -> DeviceSpec:
    """Add a profile to the registry (and optional lookup aliases).

    Re-registering the same name with an identical spec is a no-op;
    with a different spec it is a :class:`UsageError` — profiles are
    content-addressed into memo and journal keys, so silently changing
    what a name means would poison both.
    """
    for key in (spec.name, *aliases):
        existing = DEVICES.get(key)
        if existing is not None and existing != spec:
            raise UsageError(
                f"device {key!r} is already registered with a different "
                f"profile",
                device=key,
            )
        DEVICES[key] = spec
    return spec


def get_device(name: str) -> DeviceSpec:
    """Resolve a profile by (case-insensitive) name.

    Raises :class:`UsageError` (CLI exit code 2) for unknown names,
    listing what is available.
    """
    spec = DEVICES.get(name)
    if spec is not None:
        return spec
    folded = str(name).casefold()
    for key, value in DEVICES.items():
        if key.casefold() == folded:
            return value
    raise UsageError(
        f"unknown device {name!r}; available: {', '.join(device_names())}",
        device=name,
    )


def device_names() -> Tuple[str, ...]:
    """Canonical profile names, in registration order (aliases folded)."""
    seen = []
    for spec in DEVICES.values():
        if spec.name not in seen:
            seen.append(spec.name)
    return tuple(seen)


for _spec in (P100, V100, A100, MI100, TOY):
    register_device(_spec)
del _spec
