"""Tests for dependence DAG construction."""

from repro.dsl import parse
from repro.ir import (
    build_ir,
    intermediate_arrays,
    is_pipeline,
    kernel_dag,
    statement_dag,
    statements_for_output,
)
from repro.ir.dag import is_directed_acyclic_graph


class TestKernelDag:
    def test_raw_edge(self, pipeline_ir):
        graph = kernel_dag(pipeline_ir)
        assert graph.has_edge("blur.0", "sharpen.0")
        assert graph["blur.0"]["sharpen.0"]["kind"] == "RAW"
        assert graph["blur.0"]["sharpen.0"]["array"] == "b"

    def test_independent_kernels_no_edge(self):
        src = """
        parameter N=16;
        iterator i;
        double a[N], b[N], c[N], d[N];
        stencil cp (o, x) { o[i] = x[i]; }
        cp (b, a);
        cp (d, c);
        """
        ir = build_ir(parse(src))
        graph = kernel_dag(ir)
        assert graph.number_of_edges() == 0

    def test_waw_edge(self):
        src = """
        parameter N=16;
        iterator i;
        double a[N], b[N];
        stencil cp (o, x) { o[i] = x[i]; }
        stencil dbl (o, x) { o[i] = 2.0 * x[i]; }
        cp (b, a);
        dbl (b, a);
        """
        ir = build_ir(parse(src))
        graph = kernel_dag(ir)
        assert graph["cp.0"]["dbl.0"]["kind"] == "WAW"

    def test_war_edge(self):
        src = """
        parameter N=16;
        iterator i;
        double a[N], b[N], c[N];
        stencil cp (o, x) { o[i] = x[i]; }
        cp (b, a);
        cp (a, c);
        """
        ir = build_ir(parse(src))
        graph = kernel_dag(ir)
        assert graph.has_edge("cp.0", "cp.1")
        assert graph["cp.0"]["cp.1"]["kind"] == "WAR"

    def test_is_dag(self, pipeline_ir):
        assert is_directed_acyclic_graph(kernel_dag(pipeline_ir))

    def test_pipeline_detection(self, pipeline_ir):
        assert is_pipeline(pipeline_ir)

    def test_intermediates(self, pipeline_ir):
        assert intermediate_arrays(pipeline_ir) == ("b",)


class TestStatementDag:
    def test_scalar_raw_chain(self, sw4_ir):
        kernel = sw4_ir.kernels[0]
        graph = statement_dag(kernel)
        # mux1 (0) feeds r0 (2) and r1 (3).
        assert graph.has_edge(0, 2)
        assert graph.has_edge(0, 3)
        # r0 (2) feeds uacc0 store (4).
        assert graph.has_edge(2, 4)

    def test_no_false_edges(self, sw4_ir):
        graph = statement_dag(sw4_ir.kernels[0])
        # mux1 does not feed mux2.
        assert not graph.has_edge(0, 1)

    def test_accumulation_edge(self):
        src = """
        parameter N=16;
        iterator i;
        double a[N], b[N];
        stencil s (b, a) {
          r = a[i];
          r += a[i+1];
          b[i] = r;
        }
        s (b, a);
        """
        ir = build_ir(parse(src))
        graph = statement_dag(ir.kernels[0])
        assert graph.has_edge(0, 1)  # '+=' reads prior value
        assert graph.has_edge(1, 2)


class TestBackwardSlice:
    def test_slice_replicates_shared_temps(self, sw4_ir):
        kernel = sw4_ir.kernels[0]
        slice0 = statements_for_output(kernel, "uacc0")
        slice1 = statements_for_output(kernel, "uacc1")
        # Both slices contain the shared temporaries mux1 (0) and mux2 (1).
        assert 0 in slice0 and 1 in slice0
        assert 0 in slice1 and 1 in slice1
        # r1 (3) belongs only to uacc1's slice.
        assert 3 not in slice0 and 3 in slice1

    def test_slice_is_sorted(self, sw4_ir):
        indices = statements_for_output(sw4_ir.kernels[0], "uacc1")
        assert list(indices) == sorted(indices)
