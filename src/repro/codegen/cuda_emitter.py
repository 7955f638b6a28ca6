"""CUDA C source emission for kernel plans.

This renders a :class:`~repro.codegen.plan.KernelPlan` as compilable-
style CUDA C: a ``__global__`` kernel per launch plus a host wrapper that
performs the ``copyin``/``copyout`` transfers and the kernel launch.  The
generated structure follows the paper's Listing 2:

* block/thread index setup honouring the load/compute perspective;
* shared-memory buffer declarations (one plane for star arrays, a
  rotating window for box arrays, full tiles for non-streaming plans);
* register window declarations (``in_reg_m1``-style) for star planes;
* the streaming main loop with its two ``__syncthreads()`` phases,
  buffer rotation, and optional prefetch registers;
* guarded stores over the output tile;
* retimed kernels emit accumulator windows and homogenized terms;
* unrolling emits ``#pragma unroll`` loops with blocked work distribution.

CUDA uses x-fastest thread indexing: program axis ``ndim-1`` (the DSL's
innermost iterator) maps to ``threadIdx.x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dsl.ast import ArrayAccess, BinOp, Call, Expr, Name, Num, UnaryOp
from ..ir.analysis import read_halos
from ..ir.decompose import split_accumulation
from ..ir.homogenize import expr_homogenization
from ..ir.stencil import ProgramIR, Statement, StencilInstance
from ..ir.types import DTYPE_CUDA
from .plan import GMEM, KernelPlan, REGISTER, SHMEM
from .tiling import (
    Stage,
    build_stages,
    buffer_requirements,
    intermediate_specs,
    launch_geometry,
    planned_instances,
)


@dataclass(frozen=True)
class GeneratedKernel:
    """Emitted CUDA for one launch."""

    name: str
    source: str
    plan: KernelPlan


def kernel_symbol(plan: KernelPlan) -> str:
    base = "_".join(n.replace(".", "_") for n in plan.kernel_names)
    if plan.time_tile > 1:
        base += f"_tt{plan.time_tile}"
    return f"{base}_kernel"


# ---------------------------------------------------------------------------
# expression rendering
# ---------------------------------------------------------------------------


class _ExprRenderer:
    """Renders IR expressions with plan-aware access substitution."""

    def __init__(
        self,
        ir: ProgramIR,
        plan: KernelPlan,
        buffers,
        stage: Stage,
        locals_seen: set,
        coord_names: Optional[Dict[int, str]] = None,
    ):
        self.ir = ir
        self.plan = plan
        self.buffers = buffers
        self.stage = stage
        self.locals_seen = locals_seen
        #: per-axis coordinate variable (defaults to the iterator name);
        #: unrolled loops shadow the base coordinate with ``j_u`` etc.
        self.coord_names = coord_names or {}

    def coord(self, axis: int) -> str:
        return self.coord_names.get(axis, self.ir.iterators[axis])

    def render(self, expr: Expr) -> str:
        if isinstance(expr, Num):
            if expr.is_int:
                return f"{int(expr.value)}.0"
            return repr(expr.value)
        if isinstance(expr, Name):
            return expr.id
        if isinstance(expr, UnaryOp):
            return f"(-{self.render(expr.operand)})"
        if isinstance(expr, BinOp):
            return (
                f"({self.render(expr.left)} {expr.op} "
                f"{self.render(expr.right)})"
            )
        if isinstance(expr, Call):
            args = []
            for arg in expr.args:  # a loop: one interpreter frame per nested call
                args.append(self.render(arg))
            return f"{expr.func}({', '.join(args)})"
        assert isinstance(expr, ArrayAccess)
        return self.render_access(expr)

    def render_access(self, access: ArrayAccess) -> str:
        ir, plan = self.ir, self.plan
        info = ir.array_map.get(access.name)
        spec = self.buffers.get(access.name)
        if info is None or spec is None or spec.storage == GMEM:
            return self._global_access(access)
        if not plan.uses_streaming:
            if spec.shm_planes > 0:
                return self._shared_tile_access(access)
            return self._global_access(access)
        stream_offset = self._stream_offset(access)
        if spec.storage == REGISTER or (
            spec.reg_planes > 0 and stream_offset != 0
        ):
            return _reg_name(access.name, stream_offset)
        if spec.shm_planes > 1:
            return self._shared_window_access(access, stream_offset)
        return self._shared_plane_access(access)

    def _stream_offset(self, access: ArrayAccess) -> int:
        iterator = self.ir.iterators[self.plan.stream_axis]
        for idx in access.indices:
            if idx.single_iterator() == iterator:
                return idx.const
        return 0

    def _global_access(self, access: ArrayAccess) -> str:
        subs = "".join(f"[{self._render_index(idx)}]" for idx in access.indices)
        return f"{access.name}{subs}"

    def _render_index(self, idx) -> str:
        iterator = idx.single_iterator()
        if iterator is not None and iterator in self.ir.iterators:
            name = self.coord(self.ir.axis_of(iterator))
            if idx.const > 0:
                return f"{name} + {idx.const}"
            if idx.const < 0:
                return f"{name} - {-idx.const}"
            return name
        return str(idx)

    def _local_coord(self, axis: int, offset: int) -> str:
        it = self.ir.iterators[axis]
        base = f"{self.coord(axis)} - {it}0"
        if offset > 0:
            return f"{base} + {offset}"
        if offset < 0:
            return f"{base} - {-offset}"
        return base

    def _plane_coords(self, access: ArrayAccess) -> str:
        parts = []
        for idx in access.indices:
            iterator = idx.single_iterator()
            if iterator is None:
                continue
            axis = self.ir.axis_of(iterator)
            if self.plan.uses_streaming and axis == self.plan.stream_axis:
                continue
            parts.append(f"[{self._local_coord(axis, idx.const)}]")
        return "".join(parts)

    def _shared_plane_access(self, access: ArrayAccess) -> str:
        return f"{access.name}_shm_c0{self._plane_coords(access)}"

    def _shared_window_access(self, access: ArrayAccess, offset: int) -> str:
        spec = self.buffers[access.name]
        window = spec.shm_planes
        return (
            f"{access.name}_shm[(kbuf + {offset % window + window}) % {window}]"
            f"{self._plane_coords(access)}"
        )

    def _shared_tile_access(self, access: ArrayAccess) -> str:
        parts = []
        for idx in access.indices:
            iterator = idx.single_iterator()
            if iterator is None:
                continue
            axis = self.ir.axis_of(iterator)
            parts.append(f"[{self._local_coord(axis, idx.const)}]")
        return f"{access.name}_shm{''.join(parts)}"


def _reg_name(array: str, stream_offset: int) -> str:
    if stream_offset == 0:
        return f"{array}_reg_c0"
    tag = f"p{stream_offset}" if stream_offset > 0 else f"m{-stream_offset}"
    return f"{array}_reg_{tag}"


# ---------------------------------------------------------------------------
# emitter
# ---------------------------------------------------------------------------


class CudaEmitter:
    """Emit CUDA C for one plan over one program."""

    def __init__(self, ir: ProgramIR, plan: KernelPlan):
        self.ir = ir
        self.plan = plan
        self.geometry = launch_geometry(ir, plan)
        self.stages = build_stages(ir, plan)
        self.buffers = buffer_requirements(ir, plan)
        self.lines: List[str] = []
        self.indent = 0

    # -- low-level helpers -----------------------------------------------------

    def emit(self, text: str = "") -> None:
        self.lines.append(("  " * self.indent + text) if text else "")

    def block_open(self, header: str) -> None:
        self.emit(header + " {")
        self.indent += 1

    def block_close(self, footer: str = "}") -> None:
        self.indent -= 1
        self.emit(footer)

    # -- top level ---------------------------------------------------------------

    def generate(self) -> GeneratedKernel:
        self._emit_header()
        self._emit_kernel()
        self._emit_host_wrapper()
        return GeneratedKernel(
            name=kernel_symbol(self.plan),
            source="\n".join(self.lines) + "\n",
            plan=self.plan,
        )

    def _emit_header(self) -> None:
        domain = self.geometry.domain
        self.emit("// Generated by the ARTEMIS-reproduction stencil compiler.")
        self.emit(f"// plan: {self.plan.describe()}")
        self.emit("#include <cuda_runtime.h>")
        self.emit("#include <math.h>")
        for axis, extent in enumerate(domain):
            self.emit(f"#define DIM{axis} {extent}")
        self.emit()

    # -- kernel ------------------------------------------------------------------

    def _emit_kernel(self) -> None:
        params = self._kernel_params()
        self.block_open(
            f"__global__ void {kernel_symbol(self.plan)}({', '.join(params)})"
        )
        self._emit_index_setup()
        self._emit_buffer_decls()
        if self.plan.uses_streaming:
            self._emit_streaming_body()
        else:
            self._emit_tiled_body()
        self.block_close()
        self.emit()

    def _kernel_params(self) -> List[str]:
        seen: List[str] = []
        params: List[str] = []
        for stage in self.stages:
            for array in stage.instance.io_arrays():
                if array in seen or array not in self.ir.array_map:
                    continue
                seen.append(array)
                info = self.ir.array_map[array]
                ctype = DTYPE_CUDA[info.dtype]
                dims = "".join(f"[{e}]" for e in info.shape[1:])
                qualifier = (
                    "const " if array not in self._written_arrays() else ""
                )
                params.append(f"{qualifier}{ctype} {array}[]{dims}" if dims
                              else f"{qualifier}{ctype} *{array}")
        for name, dtype in self.ir.scalars:
            if self._scalar_used(name):
                params.append(f"{DTYPE_CUDA[dtype]} {name}")
        return params

    def _written_arrays(self) -> set:
        written = set()
        for stage in self.stages:
            written.update(stage.instance.arrays_written())
        return written

    def _scalar_used(self, name: str) -> bool:
        from ..dsl.ast import scalar_names

        for stage in self.stages:
            for stmt in stage.instance.statements:
                if name in set(scalar_names(stmt.rhs)):
                    return True
        return False

    def _emit_index_setup(self) -> None:
        ir, plan = self.ir, self.plan
        ndim = ir.ndim
        tiled = plan.tiled_axes(ndim)
        # CUDA x maps to the innermost tiled axis.
        cuda_dims = ["x", "y", "z"]
        for position, axis in enumerate(reversed(tiled)):
            it = ir.iterators[axis]
            dim = cuda_dims[position]
            extent = plan.tile_extent(axis, ndim)
            self.emit(f"int {it}0 = blockIdx.{dim} * {extent};")
            unroll = plan.unroll_factor(axis)
            if unroll > 1 and plan.unroll_blocked:
                self.emit(
                    f"int {it} = {it}0 + threadIdx.{dim} * {unroll};"
                    f"  // blocked distribution"
                )
            else:
                self.emit(f"int {it} = {it}0 + threadIdx.{dim};")
        if plan.uses_streaming:
            it = ir.iterators[plan.stream_axis]
            if plan.streaming == "concurrent":
                self.emit(
                    f"int {it}_chunk = DIM{plan.stream_axis} / "
                    f"{plan.concurrent_chunks};"
                )
                dim = cuda_dims[len(tiled)] if len(tiled) < 3 else "z"
                self.emit(
                    f"int {it}_begin = blockIdx.{dim} * {it}_chunk;"
                    "  // concurrent streaming"
                )
            else:
                self.emit(f"int {it}_begin = 0;")
        self.emit()

    def _emit_buffer_decls(self) -> None:
        plan = self.plan
        for array, spec in sorted(self.buffers.items()):
            ctype = DTYPE_CUDA[spec.dtype]
            if spec.shm_planes > 0:
                plane = self._plane_decl_dims(array)
                if plan.uses_streaming and spec.shm_planes == 1:
                    self.emit(f"__shared__ {ctype} {array}_shm_c0{plane};")
                elif plan.uses_streaming:
                    self.emit(
                        f"__shared__ {ctype} {array}_shm[{spec.shm_planes}]"
                        f"{plane};"
                    )
                else:
                    self.emit(
                        f"__shared__ {ctype} {array}_shm"
                        f"[{spec.shm_planes}]{plane};"
                    )
            for offset in self._register_offsets(array, spec):
                self.emit(f"{ctype} {_reg_name(array, offset)};")
        for inter in intermediate_specs(self.ir, self.plan):
            ctype = DTYPE_CUDA[inter.dtype]
            if inter.shm_planes > 0:
                self.emit(
                    f"__shared__ {ctype} {inter.array}_stage{inter.stage_index}"
                    f"_shm[{inter.shm_planes}][{inter.plane_elements}];"
                )
        if self.plan.retime:
            self._emit_accumulator_decls()
        if self.plan.prefetch:
            for array, spec in sorted(self.buffers.items()):
                if spec.shm_planes > 0 or spec.reg_planes > 0:
                    ctype = DTYPE_CUDA[spec.dtype]
                    self.emit(f"{ctype} {array}_pref;  // prefetch register")
        self.emit("int kbuf = 0;")
        self.emit()

    def _plane_decl_dims(self, array: str) -> str:
        ir, plan = self.ir, self.plan
        halos = {}
        for stage in self.stages:
            stage_halos = read_halos(ir, stage.instance)
            if array in stage_halos:
                halos = stage_halos[array]
                break
        dims = []
        depth_axis = plan.stream_axis if plan.uses_streaming else 0
        for axis in range(ir.ndim):
            if axis == depth_axis:
                continue
            extent = plan.tile_extent(axis, ir.ndim)
            lo, hi = halos[axis] if halos else (0, 0)
            dims.append(f"[{extent + lo + hi}]")
        return "".join(dims)

    def _register_offsets(self, array: str, spec) -> List[int]:
        if spec.reg_planes == 0 or not self.plan.uses_streaming:
            return []
        offsets = set()
        iterator = self.ir.iterators[self.plan.stream_axis]
        for stage in self.stages:
            for stmt in stage.instance.statements:
                from ..dsl.ast import array_accesses

                for access in array_accesses(stmt.rhs):
                    if access.name != array:
                        continue
                    for idx in access.indices:
                        if idx.single_iterator() == iterator and idx.const != 0:
                            offsets.add(idx.const)
                        elif (
                            idx.single_iterator() == iterator
                            and spec.storage == REGISTER
                        ):
                            offsets.add(0)
        if spec.storage == REGISTER:
            offsets.add(0)
        return sorted(offsets)

    def _emit_accumulator_decls(self) -> None:
        for stage in self.stages:
            window = self._retime_window(stage)
            for output in stage.instance.arrays_written():
                ctype = DTYPE_CUDA[
                    self.ir.array_map[output].dtype
                    if output in self.ir.array_map
                    else "double"
                ]
                self.emit(
                    f"{ctype} {output}_acc{stage.index}[{window}] = {{0.0}};"
                    "  // retimed partial sums"
                )

    def _retime_window(self, stage: Stage) -> int:
        lo, hi = stage.halo[self.plan.stream_axis]
        return lo + hi + 1

    # -- streaming body -----------------------------------------------------------

    def _emit_streaming_body(self) -> None:
        ir, plan = self.ir, self.plan
        it = ir.iterators[plan.stream_axis]
        sweep = self.geometry.sweep_length
        self._emit_preload()
        end = (
            f"{it}_begin + {sweep}"
            if plan.streaming == "concurrent"
            else f"DIM{plan.stream_axis}"
        )
        self.block_open(f"for (int {it} = {it}_begin; {it} < {end}; ++{it})")
        self.emit("__syncthreads();")
        if plan.prefetch:
            self._emit_prefetch_loads()
        for stage in self.stages:
            self._emit_stage_compute(stage)
        self.emit("__syncthreads();")
        self._emit_rotation()
        self.emit("kbuf = (kbuf + 1) % 4;")
        self.block_close()

    def _emit_preload(self) -> None:
        self.emit("// preload the initial stream window")
        for array, spec in sorted(self.buffers.items()):
            if spec.shm_planes == 0 and spec.reg_planes == 0:
                continue
            if spec.shm_planes > 0:
                self._emit_cooperative_fill(array, spec)
            for offset in self._register_offsets(array, spec):
                self.emit(
                    f"{_reg_name(array, offset)} = "
                    f"{self._global_plane_read(array, offset)};"
                )
        self.emit()

    def _emit_cooperative_fill(self, array: str, spec) -> None:
        """Strided cooperative fill of a shared plane/window incl. halo."""
        ir, plan = self.ir, self.plan
        halos = {}
        for stage in self.stages:
            stage_halos = read_halos(ir, stage.instance)
            if array in stage_halos:
                halos = stage_halos[array]
                break
        tiled = [
            axis
            for axis in range(ir.ndim)
            if not (plan.uses_streaming and axis == plan.stream_axis)
        ][-2:]
        loops = []
        cuda_dims = {tiled[-1]: "x"}
        if len(tiled) > 1:
            cuda_dims[tiled[0]] = "y"
        planes = range(spec.shm_planes)
        for plane in planes:
            target = (
                f"{array}_shm_c0"
                if spec.shm_planes == 1
                else f"{array}_shm[{plane}]"
            )
            idx_exprs = []
            src_coords = [""] * ir.ndim
            for axis in range(ir.ndim):
                it = ir.iterators[axis]
                if plan.uses_streaming and axis == plan.stream_axis:
                    lo, _hi = halos[axis] if halos else (0, 0)
                    src_coords[axis] = (
                        f"[max(0, {it}_begin + {plane - (halos[axis][0] if halos else 0)})]"
                        if spec.shm_planes > 1
                        else f"[{it}_begin]"
                    )
                    continue
                lo, hi = halos[axis] if halos else (0, 0)
                extent = plan.tile_extent(axis, ir.ndim) + lo + hi
                dim = cuda_dims.get(axis, "x")
                loops.append(
                    f"for (int f{it} = threadIdx.{dim}; f{it} < {extent}; "
                    f"f{it} += blockDim.{dim})"
                )
                idx_exprs.append(f"[f{it}]")
                src_coords[axis] = (
                    f"[min(DIM{axis} - 1, max(0, {it}0 + f{it} - {lo}))]"
                )
            for loop in loops:
                self.block_open(loop)
            self.emit(
                f"{target}{''.join(idx_exprs)} = "
                f"{array}{''.join(src_coords)};"
            )
            for _ in loops:
                self.block_close()
            loops = []

    def _global_plane_read(self, array: str, stream_offset: int) -> str:
        ir, plan = self.ir, self.plan
        coords = []
        for axis in range(ir.ndim):
            it = ir.iterators[axis]
            if axis == plan.stream_axis:
                base = f"{it}_begin"
                if stream_offset:
                    sign = "+" if stream_offset > 0 else "-"
                    coords.append(
                        f"[min(DIM{axis} - 1, max(0, {base} {sign} "
                        f"{abs(stream_offset)}))]"
                    )
                else:
                    coords.append(f"[{base}]")
            else:
                coords.append(f"[{it}]")
        return f"{array}{''.join(coords)}"

    def _emit_prefetch_loads(self) -> None:
        self.emit("// prefetch next plane concurrently with compute")
        it = self.ir.iterators[self.plan.stream_axis]
        for array, spec in sorted(self.buffers.items()):
            if spec.shm_planes == 0 and spec.reg_planes == 0:
                continue
            lo, hi = (0, 0)
            halos = read_halos(self.ir, self.stages[0].instance)
            if array in halos:
                lo, hi = halos[array][self.plan.stream_axis]
            self.emit(
                f"{array}_pref = {array}"
                + self._pref_coords(array, hi + 1)
                + ";"
            )

    def _pref_coords(self, array: str, ahead: int) -> str:
        ir, plan = self.ir, self.plan
        coords = []
        for axis in range(ir.ndim):
            it = ir.iterators[axis]
            if axis == plan.stream_axis:
                coords.append(f"[min(DIM{axis} - 1, {it} + {ahead})]")
            else:
                coords.append(f"[{it}]")
        return "".join(coords)

    def _emit_stage_compute(self, stage: Stage) -> None:
        guard = self._guard_condition(stage)
        self.block_open(f"if ({guard})")
        unroll_axes = [
            axis
            for axis in range(self.ir.ndim)
            if self.plan.unroll_factor(axis) > 1
            and axis != self.plan.stream_axis
        ]
        coord_names: Dict[int, str] = {}
        for axis in unroll_axes:
            it = self.ir.iterators[axis]
            factor = self.plan.unroll_factor(axis)
            self.emit(f"#pragma unroll")
            self.block_open(
                f"for (int {it}u = 0; {it}u < {factor}; ++{it}u)"
            )
            self.emit(f"int {it}_u = {it} + {it}u;")
            coord_names[axis] = f"{it}_u"
        renderer = _ExprRenderer(
            self.ir, self.plan, self.buffers, stage, set(), coord_names
        )
        if self.plan.retime:
            self._emit_retimed_statements(stage, renderer)
        else:
            self._emit_plain_statements(stage, renderer)
        for _ in unroll_axes:
            self.block_close()
        self.block_close()

    def _emit_plain_statements(self, stage: Stage, renderer) -> None:
        for stmt in stage.instance.statements:
            if stmt.is_local:
                ctype = DTYPE_CUDA.get(stmt.dtype, "double")
                self.emit(
                    f"{ctype} {stmt.target} = {renderer.render(stmt.rhs)};"
                )
            else:
                lhs = self._store_target(stage, stmt, renderer)
                op = "+=" if stmt.op == "+=" else "="
                self.emit(f"{lhs} {op} {renderer.render(stmt.rhs)};")

    def _emit_retimed_statements(self, stage: Stage, renderer) -> None:
        it = self.ir.iterators[self.plan.stream_axis]
        window = self._retime_window(stage)
        self.emit(f"// retimed accumulation (window {window})")
        for stmt in stage.instance.statements:
            if stmt.is_local:
                ctype = DTYPE_CUDA.get(stmt.dtype, "double")
                self.emit(
                    f"{ctype} {stmt.target} = {renderer.render(stmt.rhs)};"
                )
                continue
            for sign, term in split_accumulation(stmt.rhs, distribute=True):
                result = expr_homogenization(
                    term, it
                )
                shifted = result.offset
                slot = f"({it} + {window} - {shifted % window}) % {window}"
                rendered = renderer.render(term)
                prefix = "-" if sign < 0 else ""
                self.emit(
                    f"{stmt.target}_acc{stage.index}[{slot}] += "
                    f"{prefix}{rendered};"
                )
            self.emit(
                f"{self._store_target(stage, stmt, renderer)} = "
                f"{stmt.target}_acc{stage.index}[{it} % {window}];"
                "  // completed plane"
            )
            self.emit(
                f"{stmt.target}_acc{stage.index}[{it} % {window}] = 0.0;"
            )

    def _store_target(self, stage: Stage, stmt: Statement, renderer=None) -> str:
        assert not stmt.is_local
        access = stmt.lhs
        assert isinstance(access, ArrayAccess)
        if stage.is_last:
            if renderer is not None:
                subs = "".join(
                    f"[{renderer._render_index(idx)}]" for idx in access.indices
                )
            else:
                subs = "".join(f"[{idx}]" for idx in access.indices)
            return f"{stmt.target}{subs}"
        # Intermediate stage: store into the staging buffer.
        return (
            f"{stmt.target}_stage{stage.index}_shm[kbuf]"
            f"[threadIdx.y * blockDim.x + threadIdx.x]"
        )

    def _guard_condition(self, stage: Stage) -> str:
        ir, plan = self.ir, self.plan
        clauses: List[str] = []
        for axis in range(ir.ndim):
            it = ir.iterators[axis]
            lo, hi = stage.halo[axis]
            exp_lo, exp_hi = stage.expand[axis]
            if plan.uses_streaming and axis == plan.stream_axis:
                if lo:
                    clauses.append(f"{it} >= {lo}")
                if hi:
                    clauses.append(f"{it} <= DIM{axis} - {1 + hi}")
                continue
            low = max(lo, 0)
            clauses.append(
                f"{it} >= {it}0 - {exp_lo} + {low}"
                if exp_lo
                else f"{it} >= {low}"
            )
            tile = plan.tile_extent(axis, ir.ndim)
            clauses.append(
                f"{it} <= min({it}0 + {tile + exp_hi - 1}, DIM{axis} - {1 + hi})"
            )
        return " && ".join(clauses) if clauses else "1"

    def _emit_rotation(self) -> None:
        self.emit("// rotate the stream window (Listing 2 shift phase)")
        for array, spec in sorted(self.buffers.items()):
            if spec.reg_planes == 0 and spec.shm_planes <= 1 and spec.storage != SHMEM:
                continue
            offsets = self._register_offsets(array, spec)
            if spec.shm_planes == 1 and offsets:
                below = [o for o in offsets if o < 0]
                above = [o for o in offsets if o > 0]
                for offset in sorted(below):
                    src = (
                        f"{array}_shm_c0{self._center_coords(array)}"
                        if offset == -1
                        else _reg_name(array, offset + 1)
                    )
                    self.emit(f"{_reg_name(array, offset)} = {src};")
                if above:
                    self.emit(
                        f"{array}_shm_c0{self._center_coords(array)} = "
                        f"{_reg_name(array, min(above))};"
                    )
                    for offset in sorted(above)[:-1]:
                        self.emit(
                            f"{_reg_name(array, offset)} = "
                            f"{_reg_name(array, offset + 1)};"
                        )
                    top = max(above)
                    load = (
                        f"{array}_pref"
                        if self.plan.prefetch
                        else self._next_plane_load(array, top + 1)
                    )
                    self.emit(f"{_reg_name(array, top)} = {load};")
            elif spec.shm_planes > 1:
                self.emit(
                    f"// window of {array} advances via kbuf modular index"
                )
                load = (
                    f"{array}_pref"
                    if self.plan.prefetch
                    else self._next_plane_load(array, spec.shm_planes // 2 + 1)
                )
                self.emit(
                    f"{array}_shm[(kbuf + {spec.shm_planes - 1}) % "
                    f"{spec.shm_planes}]{self._center_coords(array)} = {load};"
                )

    def _center_coords(self, array: str) -> str:
        ir, plan = self.ir, self.plan
        parts = []
        for axis in range(ir.ndim):
            if plan.uses_streaming and axis == plan.stream_axis:
                continue
            it = ir.iterators[axis]
            parts.append(f"[{it} - {it}0]")
        return "".join(parts)

    def _next_plane_load(self, array: str, ahead: int) -> str:
        ir, plan = self.ir, self.plan
        coords = []
        for axis in range(ir.ndim):
            it = ir.iterators[axis]
            if axis == plan.stream_axis:
                coords.append(f"[min(DIM{axis} - 1, {it} + {ahead})]")
            else:
                coords.append(f"[{it}]")
        return f"{array}{''.join(coords)}"

    # -- non-streaming body --------------------------------------------------------

    def _emit_tiled_body(self) -> None:
        self.emit("// 3-D tiled (non-streaming) body")
        for array, spec in sorted(self.buffers.items()):
            if spec.shm_planes > 0:
                self.emit(f"// cooperative fill of {array}_shm tile")
        if any(s.shm_planes for s in self.buffers.values()):
            self.emit("__syncthreads();")
        for stage in self.stages:
            self._emit_stage_compute(stage)

    # -- host wrapper ---------------------------------------------------------------

    def _emit_host_wrapper(self) -> None:
        ir, plan = self.ir, self.plan
        geometry = self.geometry
        params = []
        for info in ir.arrays:
            ctype = DTYPE_CUDA[info.dtype]
            params.append(f"{ctype} *h_{info.name}")
        for name, dtype in ir.scalars:
            params.append(f"{DTYPE_CUDA[dtype]} {name}")
        symbol = kernel_symbol(plan)
        self.block_open(f"void launch_{symbol}({', '.join(params)})")
        for name in ir.copyin:
            if name in ir.array_map:
                info = ir.array_map[name]
                self.emit(
                    f"cudaMemcpy(d_{name}, h_{name}, "
                    f"{info.elements} * sizeof({DTYPE_CUDA[info.dtype]}), "
                    "cudaMemcpyHostToDevice);"
                )
        tiled = plan.tiled_axes(ir.ndim)
        dims = []
        for axis in reversed(tiled):
            dims.append(str(plan.block_on_axis(axis, ir.ndim)))
        self.emit(f"dim3 block({', '.join(dims)});")
        grid = []
        for axis in reversed(tiled):
            grid.append(str(geometry.blocks_per_axis[axis]))
        if plan.streaming == "concurrent":
            grid.append(str(plan.concurrent_chunks))
        self.emit(f"dim3 grid({', '.join(grid)});")
        args = []
        seen: List[str] = []
        for stage in self.stages:
            for array in stage.instance.io_arrays():
                if array in seen or array not in ir.array_map:
                    continue
                seen.append(array)
                args.append(f"d_{array}")
        for name, _dtype in ir.scalars:
            if self._scalar_used(name):
                args.append(name)
        self.emit(f"{symbol}<<<grid, block>>>({', '.join(args)});")
        for name in ir.copyout:
            if name in ir.array_map:
                info = ir.array_map[name]
                self.emit(
                    f"cudaMemcpy(h_{name}, d_{name}, "
                    f"{info.elements} * sizeof({DTYPE_CUDA[info.dtype]}), "
                    "cudaMemcpyDeviceToHost);"
                )
        self.block_close()


def emit_cuda(ir: ProgramIR, plan: KernelPlan) -> GeneratedKernel:
    """Render one plan as CUDA C source."""
    return CudaEmitter(ir, plan).generate()
