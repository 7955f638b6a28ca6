"""Tests for kernel fusion and the three fission candidates (§VI-B)."""

import numpy as np
import pytest

from repro.dsl import parse
from repro.gpu.executor import (
    allocate_inputs,
    default_scalars,
    execute_reference,
)
from repro.ir import build_ir
from repro.suite import BENCHMARK_ORDER, load_ir
from repro.tuning import (
    dedupe_candidates,
    export_dsl,
    fuse_instances,
    generate_fission_candidates,
    maxfuse,
    recompute_fission,
    trivial_fission,
)


class TestFuseInstances:
    def test_fuses_statements(self, sw4_ir):
        fused = fuse_instances([sw4_ir.kernels[0], sw4_ir.kernels[0]], "ff")
        assert len(fused.statements) == 2 * len(sw4_ir.kernels[0].statements)

    def test_locals_uniquified(self, sw4_ir):
        fused = fuse_instances([sw4_ir.kernels[0], sw4_ir.kernels[0]], "ff")
        locals_ = [s.target for s in fused.statements if s.is_local]
        assert len(locals_) == len(set(locals_))
        assert "s0_mux1" in locals_ and "s1_mux1" in locals_

    def test_maxfuse_pipeline(self):
        src = """
        parameter N=32;
        iterator k, j, i;
        double a[N,N,N], b[N,N,N], c[N,N,N];
        stencil f (o, x) { o[k][j][i] = x[k][j][i+1]; }
        stencil g (o, x) { o[k][j][i] = 2.0 * x[k][j][i]; }
        f (b, a);
        g (c, b);
        """
        ir = build_ir(parse(src))
        fused_ir = maxfuse(ir)
        assert len(fused_ir.kernels) == 1
        assert fused_ir.kernels[0].arrays_written() == ("b", "c")


class TestTrivialFission:
    def test_one_kernel_per_output(self, sw4_ir):
        kernels = trivial_fission(sw4_ir, sw4_ir.kernels[0])
        assert len(kernels) == 3
        for kernel in kernels:
            assert len(kernel.arrays_written()) == 1

    def test_shared_temps_replicated(self, sw4_ir):
        """Figure 3b: mux1..muz2 are replicated in all three kernels."""
        kernels = trivial_fission(sw4_ir, sw4_ir.kernels[0])
        for kernel in kernels:
            locals_ = {s.target for s in kernel.statements if s.is_local}
            assert "mux1" in locals_ and "muz2" in locals_

    def test_private_temp_not_replicated(self, sw4_ir):
        kernels = trivial_fission(sw4_ir, sw4_ir.kernels[0])
        first = {s.target for s in kernels[0].statements if s.is_local}
        assert "r1" not in first and "r2" not in first

    def test_single_output_is_identity(self, smoother_ir):
        kernels = trivial_fission(smoother_ir, smoother_ir.kernels[0])
        assert kernels == (smoother_ir.kernels[0],)

    def test_fission_preserves_semantics(self, sw4_ir):
        """Split kernels compute the same values as the monolith."""
        ir = sw4_ir
        inputs = allocate_inputs(ir)
        scalars = default_scalars(ir)
        ref = execute_reference(ir, inputs, scalars)
        split = ir.replace(kernels=trivial_fission(ir, ir.kernels[0]))
        got = execute_reference(split, inputs, scalars)
        for out in ("uacc0", "uacc1", "uacc2"):
            assert np.array_equal(ref[out], got[out])


class TestRecomputeFission:
    def test_bound_respected(self, sw4_ir):
        kernels = recompute_fission(sw4_ir, sw4_ir.kernels[0])
        # Order-2 independent outputs: all fit within max(4, 2) -> no split.
        assert len(kernels) == 1

    def test_chained_outputs_split(self):
        src = """
        parameter N=64;
        iterator k, j, i;
        double a[N,N,N], b[N,N,N], c[N,N,N], d[N,N,N];
        stencil chain (b, c, d, a) {
          b[k][j][i] = a[k][j][i+3] + a[k][j][i-3];
          c[k][j][i] = b[k][j][i+3] + b[k][j][i-3];
          d[k][j][i] = c[k][j][i+3] + c[k][j][i-3];
        }
        chain (b, c, d, a);
        copyout d;
        """
        ir = build_ir(parse(src))
        kernels = recompute_fission(ir, ir.kernels[0])
        # Chained halos 3+3+3=9 > max(4,3): must split.
        assert len(kernels) >= 2

    def test_split_preserves_semantics(self):
        src = """
        parameter N=24;
        iterator k, j, i;
        double a[N,N,N], b[N,N,N], c[N,N,N], d[N,N,N];
        stencil chain (b, c, d, a) {
          b[k][j][i] = a[k][j][i+3] + a[k][j][i-3];
          c[k][j][i] = b[k][j][i+3] + b[k][j][i-3];
          d[k][j][i] = c[k][j][i+3] + c[k][j][i-3];
        }
        chain (b, c, d, a);
        copyout d;
        """
        ir = build_ir(parse(src))
        inputs = allocate_inputs(ir)
        scalars = default_scalars(ir)
        ref = execute_reference(ir, inputs, scalars)
        split = ir.replace(kernels=recompute_fission(ir, ir.kernels[0]))
        got = execute_reference(split, inputs, scalars)
        assert np.array_equal(ref["d"], got["d"])


class TestDslExport:
    def test_export_reparses(self, sw4_ir):
        text = export_dsl(sw4_ir)
        reparsed = build_ir(parse(text))
        assert len(reparsed.kernels) == len(sw4_ir.kernels)
        assert reparsed.kernels[0].arrays_written() == (
            sw4_ir.kernels[0].arrays_written()
        )

    def test_fission_candidates_all_reparse(self, sw4_ir):
        for candidate in generate_fission_candidates(sw4_ir):
            reparsed = build_ir(parse(candidate.dsl))
            assert reparsed.kernels, candidate.label

    def test_three_candidates(self, sw4_ir):
        labels = [c.label for c in generate_fission_candidates(sw4_ir)]
        assert labels == ["maxfuse", "trivial-fission", "recompute-fission"]

    def test_trivial_candidate_has_three_kernels(self, sw4_ir):
        candidates = generate_fission_candidates(sw4_ir)
        trivial = candidates[1]
        assert len(trivial.ir.kernels) == 3
        # Figure 3c: three stencil definitions in the DSL text.
        assert trivial.dsl.count("stencil ") == 3

    def test_exported_semantics_match(self, sw4_ir):
        """Executing the re-parsed export gives identical results."""
        text = export_dsl(sw4_ir)
        reparsed = build_ir(parse(text))
        inputs = allocate_inputs(sw4_ir)
        scalars = default_scalars(sw4_ir)
        ref = execute_reference(sw4_ir, inputs, scalars)
        got = execute_reference(reparsed, inputs, scalars)
        for out in ("uacc0", "uacc1", "uacc2"):
            assert np.array_equal(ref[out], got[out])


class TestDedupe:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_matches_text_dedupe(self, name):
        """Deciding from the IR keeps the labels, in order, that comparing
        the rendered DSL text keeps."""
        candidates = generate_fission_candidates(load_ir(name))
        seen, want = set(), []
        for candidate in candidates:
            text = export_dsl(candidate.ir)
            if text not in seen:
                seen.add(text)
                want.append(candidate.label)
        assert [c.label for c in dedupe_candidates(candidates)] == want

    def test_renders_only_undecided_pairs(self, sw4_ir, monkeypatch):
        import repro.tuning.fission as fission

        rendered = []
        real = fission.export_dsl
        monkeypatch.setattr(
            fission, "export_dsl", lambda ir: rendered.append(ir) or real(ir)
        )
        candidates = generate_fission_candidates(sw4_ir)
        dedupe_candidates(candidates)
        assert rendered == []
        # Same kernel names and statement counts, different IR: only
        # the text can tell.
        twin = fission.FissionCandidate(
            "twin",
            candidates[1].ir.replace(copyout=candidates[1].ir.copyout[:1]),
        )
        kept = dedupe_candidates((candidates[1], twin))
        assert len(rendered) == 2
        assert [c.label for c in kept] == ["trivial-fission", "twin"]
