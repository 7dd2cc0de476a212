"""Labeled digraphs, strong connectivity, cycles, auxiliary trees.

Vertex ids are opaque strings mapped to dense indices in declaration order;
all matrices produced here and downstream use that dense order.  Strongly
connected components are computed once at construction and kept in a
canonical order (ascending minimal vertex id) so that block layouts are
reproducible.  Products with an edge list's incidence matrix are gathers on
its tail and head indices (`edge_ends`); no incidence matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadOrderError,
    DimensionTooLargeError,
    DuplicateEdgeError,
    DuplicateVertexError,
    InvalidAuxTreeError,
    NonPositiveLabelError,
    RootOutsideComponentError,
    SelfLoopError,
    UnknownEndpointError,
)

Edge = tuple[str, str]

MAX_CYCLES = 20_000


def _coerce_label(value) -> Fraction | float:
    """Rational labels stay exact; floats switch the graph to float mode."""
    if isinstance(value, bool):
        raise NonPositiveLabelError(f"label {value!r} is not a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise NonPositiveLabelError(f"label {value!r} is not a number")


class LabeledDigraph:
    """Simple directed graph with positive edge labels (rate constants).

    Immutable after construction.  The SCC partition is computed eagerly;
    `exact` is True when every label is rational (int or Fraction), in which
    case downstream matrix computations run in exact arithmetic.
    """

    def __init__(self, vertices: Sequence, edges: Iterable[tuple]):
        ids = [str(v) for v in vertices]
        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(v for v in ids if v in seen or seen.add(v))
            raise DuplicateVertexError(f"duplicate vertex id {dup!r}")
        self.vertex_ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = {v: i for i, v in enumerate(ids)}

        edge_list: list[Edge] = []
        labels: dict[Edge, Fraction | float] = {}
        for src, dst, label in edges:
            s, d = str(src), str(dst)
            if s not in self.index:
                raise UnknownEndpointError(f"edge source {s!r} is not a vertex")
            if d not in self.index:
                raise UnknownEndpointError(f"edge target {d!r} is not a vertex")
            if s == d:
                raise SelfLoopError(f"self-loop at vertex {s!r}")
            if (s, d) in labels:
                raise DuplicateEdgeError(f"duplicate edge {s!r} -> {d!r}")
            k = _coerce_label(label)
            if k <= 0:
                raise NonPositiveLabelError(f"label of edge {s}->{d} must be > 0")
            edge_list.append((s, d))
            labels[(s, d)] = k
        self.edges: tuple[Edge, ...] = tuple(edge_list)
        self.exact: bool = all(isinstance(k, Fraction) for k in labels.values())
        if not self.exact:
            labels = {e: float(k) for e, k in labels.items()}
        self.labels: dict[Edge, Fraction | float] = labels

        self._out: list[list[int]] = [[] for _ in ids]
        for s, d in self.edges:
            self._out[self.index[s]].append(self.index[d])
        self.scc_partition: tuple[frozenset[str], ...] = self._compute_sccs()
        self.component_index: dict[str, int] = {}
        for ci, comp in enumerate(self.scc_partition):
            for v in comp:
                self.component_index[v] = ci

    # -- structure -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_components(self) -> int:
        return len(self.scc_partition)

    def component_vertices(self, ci: int) -> list[str]:
        """Vertices of component `ci` in declaration order."""
        comp = self.scc_partition[ci]
        return [v for v in self.vertex_ids if v in comp]

    def component_edges(self, ci: int) -> list[Edge]:
        comp = self.scc_partition[ci]
        return [(s, d) for (s, d) in self.edges if s in comp and d in comp]

    def has_strongly_connected_components(self) -> bool:
        """True when no edge leaves its SCC (weak reversibility of networks)."""
        return all(
            self.component_index[s] == self.component_index[d] for s, d in self.edges
        )

    def _compute_sccs(self) -> tuple[frozenset[str], ...]:
        n = self.n_vertices
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        comps: list[frozenset[str]] = []
        counter = 0
        for start in range(n):
            if index[start] != -1:
                continue
            work: list[list[int]] = [[start, 0]]
            while work:
                v, ei = work[-1]
                if ei == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                advanced = False
                while ei < len(self._out[v]):
                    w = self._out[v][ei]
                    ei += 1
                    if index[w] == -1:
                        work[-1][1] = ei
                        work.append([w, 0])
                        advanced = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(frozenset(self.vertex_ids[i] for i in comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
        comps.sort(key=lambda c: min(c))
        return tuple(comps)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LabeledDigraph({self.n_vertices} vertices, {self.n_edges} edges)"


def build_digraph(vertices: Sequence, edges: Iterable[tuple]) -> LabeledDigraph:
    """Construct a labeled digraph from (source, target, label) triples."""
    return LabeledDigraph(vertices, edges)


def scc_partition(g: LabeledDigraph) -> list[set[str]]:
    """Strongly connected components, ascending by minimal vertex id."""
    return [set(c) for c in g.scc_partition]


# -- cycles ----------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """Directed simple cycle; its smallest vertex leads."""

    edges: tuple[Edge, ...]
    vertices: frozenset[str]

    @property
    def vertex_seq(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.edges)


def enumerate_cycles(g: LabeledDigraph) -> list[Cycle]:
    """All directed simple cycles, sorted lexicographically by vertex sequence.

    Each cycle is found once by only exploring vertices >= the start vertex,
    so the start is the cycle's minimum.  The starts and each out-list are
    taken in sorted order, and the start precedes every other vertex the
    walk may enter, so each path is closed before it is extended and the
    cycles come out already in lexicographic order.
    The number of cycles grows exponentially with density (a complete
    8-vertex graph has 16 064, a complete 9-vertex graph 125 664), so the
    walk stops with DimensionTooLargeError as soon as it has found more
    than MAX_CYCLES.
    """
    order = sorted(g.vertex_ids)
    pos = {v: i for i, v in enumerate(order)}
    out: dict[str, list[str]] = {v: [] for v in order}
    for s, d in sorted(g.edges):
        out[s].append(d)
    cycles: list[Cycle] = []

    def walk(start: str, v: str, path: list[str], visited: set[str]) -> None:
        for d in out[v]:
            if d == start:
                edges = tuple(zip(path, path[1:] + [start]))
                cycles.append(Cycle(edges=edges, vertices=frozenset(path)))
                if len(cycles) > MAX_CYCLES:
                    raise DimensionTooLargeError(
                        f"more than MAX_CYCLES={MAX_CYCLES} simple cycles"
                    )
            elif pos[d] > pos[start] and d not in visited:
                visited.add(d)
                path.append(d)
                walk(start, d, path, visited)
                path.pop()
                visited.remove(d)

    for start in order:
        walk(start, start, [start], {start})
    return cycles


# -- incidence matrices ----------------------------------------------------


def edge_ends(g: LabeledDigraph, edges: Sequence[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """Dense vertex indices (tails, heads) of an edge list, as np.intp arrays.

    They apply the incidence matrix I_E (column (a, b) is e_b - e_a) as
    gathers: I_E.T v = v[heads] - v[tails] and Y I_E = Y[:, heads] - Y[:, tails].
    Fancy indexing keeps each operand's number type: Fractions stay Fractions.
    """
    tails = np.array([g.index[a] for a, _ in edges], dtype=np.intp)
    heads = np.array([g.index[b] for _, b in edges], dtype=np.intp)
    return tails, heads


# -- auxiliary trees --------------------------------------------------------


@dataclass(frozen=True)
class AuxTree:
    """Spanning tree per component encoding a partial order on vertices.

    `kind` is "chain" (total order), "star" (common maximum) or "general".
    Edges need not belong to the host graph.  Each edge's component is its
    tail's in the host graph (`component_index`); the constructors list the
    edges grouped by component, in canonical order.
    """

    edges: tuple[Edge, ...]
    kind: str


@dataclass(frozen=True)
class AuxTreeReport:
    ok: bool
    violation: str | None = None


def make_aux_tree(g: LabeledDigraph, kind: str, spec) -> AuxTree:
    """Build a chain or star auxiliary tree from per-component specs.

    For kind="chain", `spec` is a sequence of vertex orders (one per
    component, in any order); for kind="star", a sequence of roots.  Every
    component must be covered exactly once.
    """
    if kind not in ("chain", "star"):
        raise BadOrderError(f"unknown aux tree kind {kind!r}")
    edges: list[Edge] = []
    covered: set[int] = set()
    if kind == "chain":
        for order in spec:
            order = [str(v) for v in order]
            if not order:
                raise BadOrderError("empty chain order")
            for v in order:
                if v not in g.index:
                    raise BadOrderError(f"unknown vertex {v!r} in chain order")
            ci = g.component_index[order[0]]
            comp = g.scc_partition[ci]
            if set(order) != set(comp) or len(order) != len(comp):
                raise BadOrderError(
                    f"chain order {order} is not a permutation of component {sorted(comp)}"
                )
            if ci in covered:
                raise BadOrderError(f"component {sorted(comp)} specified twice")
            covered.add(ci)
            for a, b in zip(order, order[1:]):
                edges.append((a, b))
    else:
        for root in spec:
            root = str(root)
            if root not in g.index:
                raise RootOutsideComponentError(f"unknown star root {root!r}")
            ci = g.component_index[root]
            if ci in covered:
                comp = g.scc_partition[ci]
                raise BadOrderError(f"component {sorted(comp)} specified twice")
            covered.add(ci)
            for v in g.component_vertices(ci):
                if v != root:
                    edges.append((v, root))
    if covered != set(range(g.n_components)):
        missing = sorted(set(range(g.n_components)) - covered)
        names = [sorted(g.scc_partition[ci]) for ci in missing]
        raise BadOrderError(f"spec does not cover components {names}")
    return _grouped(g, AuxTree(edges=tuple(edges), kind=kind))


def general_aux_tree(g: LabeledDigraph, edges: Iterable[Edge]) -> AuxTree:
    """Wrap arbitrary edges as a general auxiliary tree (validated)."""
    aux = AuxTree(edges=tuple((str(a), str(b)) for a, b in edges), kind="general")
    report = validate_aux_tree(g, aux)
    if not report.ok:
        raise InvalidAuxTreeError(report.violation)
    return _grouped(g, aux)


def _grouped(g: LabeledDigraph, aux: AuxTree) -> AuxTree:
    """`aux` with its edges stably sorted by component, so that core
    matrices come out block-diagonal."""
    edges = sorted(aux.edges, key=lambda e: g.component_index[e[0]])
    return AuxTree(edges=tuple(edges), kind=aux.kind)


def validate_aux_tree(g: LabeledDigraph, aux: AuxTree) -> AuxTreeReport:
    """Check all auxiliary-tree invariants against g's SCC partition.

    Returns the first violated invariant as a report instead of raising.
    """
    if aux.kind not in ("chain", "star", "general"):
        return AuxTreeReport(False, f"unknown aux tree kind {aux.kind!r}")
    for (a, b) in aux.edges:
        if a not in g.index or b not in g.index:
            return AuxTreeReport(False, f"edge {a}->{b} has an unknown endpoint")
        if a == b:
            return AuxTreeReport(False, f"self-loop {a}->{b}")
    if len(set(aux.edges)) != len(aux.edges):
        return AuxTreeReport(False, "duplicate aux edge")
    for (a, b) in aux.edges:
        if g.component_index[a] != g.component_index[b]:
            return AuxTreeReport(False, f"edge {a}->{b} crosses components")
    for ci in range(g.n_components):
        comp = g.scc_partition[ci]
        comp_edges = [(a, b) for (a, b) in aux.edges if a in comp]
        if len(comp_edges) != len(comp) - 1:
            return AuxTreeReport(
                False,
                f"component {sorted(comp)} has {len(comp_edges)} aux edges, "
                f"expected {len(comp) - 1}",
            )
        # undirected acyclicity via union-find; count + acyclic => spanning tree
        parent = {v: v for v in comp}

        def find(v: str) -> str:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for (a, b) in comp_edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return AuxTreeReport(
                    False, f"aux edges contain an undirected cycle in {sorted(comp)}"
                )
            parent[ra] = rb
        if aux.kind == "chain" and comp_edges:
            out_deg: dict[str, int] = {}
            in_deg: dict[str, int] = {}
            for (a, b) in comp_edges:
                out_deg[a] = out_deg.get(a, 0) + 1
                in_deg[b] = in_deg.get(b, 0) + 1
            if max(out_deg.values()) > 1 or max(in_deg.values()) > 1:
                return AuxTreeReport(
                    False, f"chain edges in {sorted(comp)} do not form a path"
                )
        if aux.kind == "star" and comp_edges:
            targets = {b for (_, b) in comp_edges}
            sources = [a for (a, _) in comp_edges]
            if len(targets) != 1 or len(set(sources)) != len(sources):
                return AuxTreeReport(
                    False, f"star edges in {sorted(comp)} do not share a single root"
                )
            root = next(iter(targets))
            if root in sources:
                return AuxTreeReport(False, f"star root {root} is also a source")
    return AuxTreeReport(True)


def default_chain_aux(g: LabeledDigraph) -> AuxTree:
    """Chain aux tree using declaration order within each component."""
    return make_aux_tree(
        g, "chain", [g.component_vertices(ci) for ci in range(g.n_components)]
    )
