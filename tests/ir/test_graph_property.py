"""Property tests for the digraph helpers in :mod:`repro.ir.dag`.

Random digraphs of up to 8 nodes are checked against a brute-force
transitive closure: ``has_path`` must agree with it, and ``find_cycle``
must return a closed walk over real edges exactly when some node
reaches itself.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.ir.dag import (
    DiGraph,
    find_cycle,
    has_path,
    is_directed_acyclic_graph,
)


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    if n:
        pairs = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        for u, v in draw(st.lists(pairs, max_size=3 * n)):
            graph.add_edge(u, v)
    return graph


def closure(graph):
    """node -> nodes reachable over one or more edges (Warshall)."""
    reach = {u: set(graph.successors(u)) for u in graph}
    for k in graph:
        for u in graph:
            if k in reach[u]:
                reach[u] |= reach[k]
    return reach


SETTINGS = settings(max_examples=200, deadline=None)


@seed(1515)
@SETTINGS
@given(digraphs())
def test_has_path_matches_closure(graph):
    reach = closure(graph)
    for u in graph:
        for v in graph:
            assert has_path(graph, u, v) == (u == v or v in reach[u])


@seed(1515)
@SETTINGS
@given(digraphs())
def test_find_cycle_matches_closure(graph):
    cyclic = any(u in reach for u, reach in closure(graph).items())
    cycle = find_cycle(graph)
    assert (cycle is None) == (not cyclic)
    assert is_directed_acyclic_graph(graph) == (not cyclic)
    if cycle is not None:
        assert cycle
        assert all(graph.has_edge(u, v) for u, v in cycle)
        for (_, head), (tail, _) in zip(cycle, cycle[1:]):
            assert head == tail
        assert cycle[-1][1] == cycle[0][0]


@seed(1515)
@SETTINGS
@given(digraphs())
def test_predecessors_mirror_successors(graph):
    edges = set(graph.edges())
    assert len(edges) == graph.number_of_edges()
    for v in graph:
        assert set(graph.predecessors(v)) == {
            u for u, w in edges if w == v
        }
