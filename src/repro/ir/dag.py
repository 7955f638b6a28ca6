"""Dependence graphs over stencil statements and kernels.

Two granularities are used by the optimizer:

* the **kernel DAG** (one node per :class:`StencilInstance`) drives
  fusion and fission decisions (Section VI);
* the **statement DAG** within a kernel (one node per statement) drives
  statement decomposition, retiming and the trivial/recompute fission
  splits of Section VI-B (the paper's Figure 3a).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..dsl.ast import array_accesses, scalar_names
from .stencil import ProgramIR, StencilInstance


class DiGraph:
    """A small directed graph over adjacency dicts.

    Nodes and edges keep insertion order, and every edge has one data
    dict that ``graph[u][v]`` returns.  Adding an edge that exists
    updates its data; adding an edge adds its missing endpoints.
    """

    def __init__(self) -> None:
        #: node -> attribute dict
        self.nodes: Dict[Hashable, Dict[str, Any]] = {}
        self._succ: Dict[Hashable, Dict[Hashable, Dict[str, Any]]] = {}
        self._pred: Dict[Hashable, Dict[Hashable, Dict[str, Any]]] = {}

    def add_node(self, node: Hashable, **attr: Any) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self._succ[node] = {}
            self._pred[node] = {}
        self.nodes[node].update(attr)

    def add_edge(self, u: Hashable, v: Hashable, **attr: Any) -> None:
        self.add_node(u)
        self.add_node(v)
        data = self._succ[u].setdefault(v, {})
        data.update(attr)
        self._pred[v][u] = data

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self._succ.get(u, ())

    def successors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._succ[node])

    def predecessors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._pred[node])

    def edges(self, data: Any = False) -> Iterator[tuple]:
        """``(u, v)`` pairs; ``(u, v, d)`` with ``data=True``, or
        ``(u, v, d.get(data))`` when ``data`` names an attribute."""
        for u, targets in self._succ.items():
            for v, attrs in targets.items():
                if data is False:
                    yield u, v
                elif data is True:
                    yield u, v, attrs
                else:
                    yield u, v, attrs.get(data)

    def number_of_edges(self) -> int:
        return sum(len(targets) for targets in self._succ.values())

    def __getitem__(self, node: Hashable) -> Dict[Hashable, Dict[str, Any]]:
        return self._succ[node]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.nodes)


def has_path(graph: DiGraph, source: Hashable, target: Hashable) -> bool:
    """True when ``target`` is reachable from ``source`` (a node always
    reaches itself)."""
    seen = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        for succ in graph.successors(node):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


def find_cycle(graph: DiGraph) -> Optional[List[Tuple[Hashable, Hashable]]]:
    """The edges of one directed cycle, or ``None`` when there is none.

    Depth-first from each unvisited node in insertion order, following
    successors in insertion order; the first edge back onto the current
    path closes the cycle, which is returned starting at that edge's
    head.  RL104's message names this cycle, so the order is part of
    the output.
    """
    visited: Set[Hashable] = set()
    for start in graph:
        if start in visited:
            continue
        visited.add(start)
        path: List[Hashable] = [start]
        on_path = {start}
        stack = [graph.successors(start)]
        while stack:
            for succ in stack[-1]:
                if succ in on_path:
                    cycle = path[path.index(succ):] + [succ]
                    return list(zip(cycle, cycle[1:]))
                if succ not in visited:
                    visited.add(succ)
                    path.append(succ)
                    on_path.add(succ)
                    stack.append(graph.successors(succ))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return None


def is_directed_acyclic_graph(graph: DiGraph) -> bool:
    return find_cycle(graph) is None


def kernel_dag(ir: ProgramIR) -> DiGraph:
    """Build the kernel-level dependence DAG.

    Nodes are kernel instance names; an edge u -> v means v reads an
    array that u wrote (RAW), or overwrites data u produced (WAW/WAR),
    so u must execute first.
    """
    graph = DiGraph()
    for kernel in ir.kernels:
        graph.add_node(kernel.name, instance=kernel)
    last_writer: Dict[str, str] = {}
    readers_since_write: Dict[str, List[str]] = {}
    for kernel in ir.kernels:
        for array in kernel.arrays_read():
            if array in last_writer:
                graph.add_edge(last_writer[array], kernel.name, kind="RAW",
                               array=array)
            readers_since_write.setdefault(array, []).append(kernel.name)
        for array in kernel.arrays_written():
            if array in last_writer and last_writer[array] != kernel.name:
                graph.add_edge(last_writer[array], kernel.name, kind="WAW",
                               array=array)
            for reader in readers_since_write.get(array, []):
                if reader != kernel.name:
                    graph.add_edge(reader, kernel.name, kind="WAR", array=array)
            readers_since_write[array] = []
            last_writer[array] = kernel.name
    return graph


def statement_dag(instance: StencilInstance) -> DiGraph:
    """Build the statement-level dependence DAG within one kernel.

    Nodes are statement indices.  Edges capture RAW dependences through
    local scalars and through arrays (any offset — within a kernel a
    producing statement must run before a consumer at the same point).
    """
    graph = DiGraph()
    for index, stmt in enumerate(instance.statements):
        graph.add_node(index, statement=stmt)
    scalar_writer: Dict[str, int] = {}
    array_writers: Dict[str, List[int]] = {}
    for index, stmt in enumerate(instance.statements):
        for name in scalar_names(stmt.rhs):
            if name in scalar_writer:
                graph.add_edge(scalar_writer[name], index, kind="RAW", via=name)
        for access in array_accesses(stmt.rhs):
            for writer in array_writers.get(access.name, []):
                graph.add_edge(writer, index, kind="RAW", via=access.name)
        if stmt.is_local:
            if stmt.op == "+=" and stmt.target in scalar_writer:
                graph.add_edge(scalar_writer[stmt.target], index, kind="ACC",
                               via=stmt.target)
            scalar_writer[stmt.target] = index
        else:
            if stmt.op == "+=":
                for writer in array_writers.get(stmt.target, []):
                    graph.add_edge(writer, index, kind="ACC", via=stmt.target)
            array_writers.setdefault(stmt.target, []).append(index)
    return graph


def producers_of(instance: StencilInstance, target: str) -> Tuple[int, ...]:
    """Indices of statements writing scalar or array ``target``."""
    return tuple(
        index
        for index, stmt in enumerate(instance.statements)
        if stmt.target == target
    )


def statements_for_output(
    instance: StencilInstance, output: str
) -> Tuple[int, ...]:
    """Backward slice: statement indices needed to compute ``output``.

    Used by trivial fission (Section VI-B): each distinct output array is
    placed in its own kernel along with every statement its value
    transitively depends on (which replicates shared temporaries, as in
    the paper's Figure 3b).  The fission passes ask for each output's
    slice several times, so the instance (frozen) keeps its statement
    DAG and every slice computed from it.
    """
    memo = instance.__dict__.get("_slices")
    if memo is None:
        memo = (statement_dag(instance), {})
        object.__setattr__(instance, "_slices", memo)
    graph, slices = memo
    cached = slices.get(output)
    if cached is not None:
        return cached
    roots = [i for i in producers_of(instance, output)]
    needed: Set[int] = set(roots)
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for pred in graph.predecessors(node):
            if pred not in needed:
                needed.add(pred)
                frontier.append(pred)
    result = slices[output] = tuple(sorted(needed))
    return result


def intermediate_arrays(ir: ProgramIR) -> Tuple[str, ...]:
    """Arrays produced by one kernel and consumed by a later one."""
    produced: Set[str] = set()
    intermediates: List[str] = []
    for kernel in ir.kernels:
        for array in kernel.arrays_read():
            if array in produced and array not in intermediates:
                intermediates.append(array)
        produced.update(kernel.arrays_written())
    return tuple(intermediates)


def is_pipeline(ir: ProgramIR) -> bool:
    """True when the kernel DAG is a simple chain (image-pipeline shape)."""
    graph = kernel_dag(ir)
    raw_edges = [
        (u, v) for u, v, d in graph.edges(data=True) if d.get("kind") == "RAW"
    ]
    return len(raw_edges) >= len(ir.kernels) - 1 and is_directed_acyclic_graph(
        graph
    )
