"""Tests for the polyhedral-lite dependence engine.

The certifier's legality arguments rest entirely on the distance
vectors computed here, so each kind (flow/anti/output), the ``None``
unknown-distance convention, and the derived graphs get direct
adversarial coverage — plus agreement with the fusion DAG
(:func:`repro.ir.dag.kernel_dag`), which the engine's sweep mirrors.
"""

from repro.dsl import parse
from repro.ir import build_ir
from repro.ir.dag import find_cycle, kernel_dag
from repro.lint import (
    array_flow_graph,
    dependence_graph,
    edges_between,
    kernel_dependences,
)
from repro.lint.dependence import ANTI, FLOW, OUTPUT


def ir_of(src):
    return build_ir(parse(src))


PRODUCER_CONSUMER = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
copyin A;
stencil produce (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
stencil consume (Y, X) { Y[k][j][i] = X[k+1][j][i] + X[k][j][i]; }
produce (T, A);
consume (B, T);
copyout B;
"""


class TestEdgeKinds:
    def test_flow_distances(self):
        ir = ir_of(PRODUCER_CONSUMER)
        flows = [
            e
            for e in kernel_dependences(ir)
            if e.kind == FLOW and e.array == "T"
        ]
        assert len(flows) == 1
        edge = flows[0]
        assert edge.source == "produce.0" and edge.sink == "consume.0"
        # Writer offset (0,0,0); reads at (1,0,0) and (0,0,0):
        # distances w - r are (-1,0,0) and (0,0,0).
        assert set(edge.distances) == {(-1, 0, 0), (0, 0, 0)}
        assert edge.axis_distances(0) == (-1, 0)
        assert edge.max_known(0) == 0
        assert not edge.has_unknown(0)

    def test_anti_distances(self):
        # read reads A at i+1/i-1, then clobber rewrites A: WAR with
        # distances r - w = (0,0,1) and (0,0,-1).
        ir = ir_of(
            """
            parameter N=64;
            iterator k, j, i;
            double A[N,N,N], B[N,N,N];
            copyin A;
            stencil read (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
            stencil clobber (Y, X) { Y[k][j][i] = X[k][j][i] * 2.0; }
            read (B, A);
            clobber (A, B);
            copyout A;
            """
        )
        antis = [e for e in kernel_dependences(ir) if e.kind == ANTI]
        assert len(antis) == 1
        edge = antis[0]
        assert (edge.source, edge.sink) == ("read.0", "clobber.0")
        assert edge.array == "A"
        assert set(edge.distances) == {(0, 0, 1), (0, 0, -1)}

    def test_output_distance(self):
        # Two kernels write B at the centre: WAW distance (0,0,0).
        ir = ir_of(
            """
            parameter N=64;
            iterator k, j, i;
            double A[N,N,N], B[N,N,N];
            copyin A;
            stencil first (Y, X) { Y[k][j][i] = X[k][j][i]; }
            stencil second (Y, X) { Y[k][j][i] = X[k][j][i] + 1.0; }
            first (B, A);
            second (B, A);
            copyout B;
            """
        )
        outputs = [e for e in kernel_dependences(ir) if e.kind == OUTPUT]
        assert len(outputs) == 1
        edge = outputs[0]
        assert (edge.source, edge.sink) == ("first.0", "second.0")
        assert edge.distances == ((0, 0, 0),)

    def test_skewed_read_is_unknown(self):
        # A skewed subscript (k+j) is not iterator-plus-constant along
        # axis 0: the distance component there must come back None while
        # the uniform axes stay exact.
        ir = ir_of(
            """
            parameter N=64;
            iterator k, j, i;
            double A[N,N,N], T[N,N,N], B[N,N,N];
            copyin A;
            stencil fill (Y, X) { Y[k][j][i] = X[k][j][i]; }
            stencil skew (Y, X) { Y[k][j][i] = X[k+j][j][i]; }
            fill (T, A);
            skew (B, T);
            copyout B;
            """
        )
        flows = [
            e
            for e in kernel_dependences(ir)
            if e.kind == FLOW and e.array == "T"
        ]
        assert len(flows) == 1
        edge = flows[0]
        assert edge.distances == ((None, 0, 0),)
        assert edge.has_unknown(0)
        assert edge.max_known(0) is None
        assert not edge.has_unknown(1)


class TestGraphs:
    def test_matches_kernel_dag_structure(self):
        ir = ir_of(PRODUCER_CONSUMER)
        dep = dependence_graph(ir)
        dag = kernel_dag(ir)
        assert set(dep.nodes) == set(dag.nodes)
        assert set(dep.edges()) == set(dag.edges())

    def test_matches_kernel_dag_on_suite(self, smoother_ir, hypterm_ir):
        for ir in (smoother_ir, hypterm_ir):
            dep = dependence_graph(ir)
            dag = kernel_dag(ir)
            assert set(dep.nodes) == set(dag.nodes)
            assert set(dep.edges()) == set(dag.edges())

    def test_edge_data_carries_edges(self):
        ir = ir_of(PRODUCER_CONSUMER)
        graph = dependence_graph(ir)
        edges = graph["produce.0"]["consume.0"]["edges"]
        assert all(e.source == "produce.0" for e in edges)
        assert any(e.kind == FLOW for e in edges)

    def test_edges_between_filters(self):
        ir = ir_of(PRODUCER_CONSUMER)
        both = edges_between(ir, ("produce.0", "consume.0"))
        assert both and all(
            e.source in ("produce.0", "consume.0")
            and e.sink in ("produce.0", "consume.0")
            for e in both
        )
        assert edges_between(ir, ("produce.0",)) == ()

    def test_deterministic_and_memoized(self):
        ir = ir_of(PRODUCER_CONSUMER)
        first = kernel_dependences(ir)
        assert kernel_dependences(ir) is first
        rebuilt = kernel_dependences(ir_of(PRODUCER_CONSUMER))
        assert rebuilt == first


THREE_KERNEL_CHAIN = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], T[N,N,N], U[N,N,N], B[N,N,N];
copyin A;
stencil step (Y, X) { Y[k][j][i] = X[k][j][i] + 1.0; }
step (T, A);
step (U, T);
step (B, U);
copyout B;
"""


class TestInterposedKernels:
    def test_excluded_middle_kernel_is_reported(self):
        from repro.lint.dependence import interposed_kernels

        ir = ir_of(THREE_KERNEL_CHAIN)
        chains = interposed_kernels(ir, ("step.0", "step.2"))
        assert chains == (("step.0", "step.1", "step.2"),)

    def test_adjacent_pair_is_clean(self):
        from repro.lint.dependence import interposed_kernels

        ir = ir_of(THREE_KERNEL_CHAIN)
        assert interposed_kernels(ir, ("step.0", "step.1")) == ()
        assert interposed_kernels(ir, ("step.1", "step.2")) == ()


class TestArrayFlowGraph:
    def test_exclusive_in_place_writer_adds_no_cycle(self):
        # up += ... (SW4 idiom): the accumulator's self-read must not
        # produce a cycle when no other kernel writes it.
        ir = ir_of(
            """
            parameter N=64;
            iterator k, j, i;
            double A[N,N,N], U[N,N,N];
            copyin A, U;
            stencil acc (Y, X) { Y[k][j][i] += X[k][j][i]; }
            acc (U, A);
            copyout U;
            """
        )
        graph = array_flow_graph(ir)
        assert find_cycle(graph) is None

    def test_shared_writer_read_edge_is_kept(self):
        # RL104 regression: k1 reads X and writes {X, Y}; k2 reads Y and
        # writes X.  X is *not* exclusively k1's, so the X -> Y edge must
        # survive and close the cycle X -> Y -> X.
        ir = ir_of(
            """
            parameter N=64;
            iterator k, j, i;
            double X[N,N,N], Y[N,N,N];
            copyin X;
            stencil fwd (P, Q, S) { P[k][j][i] = S[k][j][i] + 1.0;
                                    Q[k][j][i] = S[k][j][i] * 2.0; }
            stencil back (P, S) { P[k][j][i] = S[k][j][i] - 1.0; }
            fwd (X, Y, X);
            back (X, Y);
            copyout X;
            """
        )
        graph = array_flow_graph(ir)
        cycle = find_cycle(graph)
        nodes = {edge[0] for edge in cycle}
        assert nodes == {"X", "Y"}

    def test_no_self_edges(self, smoother_ir):
        graph = array_flow_graph(smoother_ir)
        assert not any(u == v for u, v in graph.edges())
