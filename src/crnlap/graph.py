"""Labeled digraphs, strong connectivity, cycles, auxiliary trees.

Vertex ids are opaque strings mapped to dense indices in declaration order;
all matrices produced here and downstream use that dense order.  Strongly
connected components are computed once at construction, each as the
vertices that one vertex both reaches and is reached from, and kept in a
canonical order (ascending minimal vertex id) so that block layouts are
reproducible.  Products with an edge list's incidence matrix are gathers on
its tail and head indices (`edge_ends`); no incidence matrix is formed.
A cycle is stored once, as its vertex sequence, and its edges are derived
from it.  An auxiliary tree is an edge list and a kind; `validate_aux_tree`
is the one place that refuses an invalid one, and every function that
takes a tree calls it, directly or through `core_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import exact
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
    if isinstance(value, float):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise NonPositiveLabelError(f"label {value!r} is not a number")


class LabeledDigraph:
    """Simple directed graph with positive edge labels (rate constants).

    Immutable after construction.  The SCC partition is computed eagerly;
    `exact` is True when every label is rational (int or Fraction), in which
    case downstream matrix computations run in exact arithmetic; otherwise
    every label is taken as float64, and one that float64 cannot hold
    (beyond its range, NaN or infinite) is refused (FloatRangeError).
    """

    def __init__(self, vertices: Sequence, edges: Iterable[tuple]):
        self.vertex_ids: tuple[str, ...] = tuple(str(v) for v in vertices)
        self.index: dict[str, int] = {}
        for i, v in enumerate(self.vertex_ids):
            if v in self.index:
                raise DuplicateVertexError(f"duplicate vertex id {v!r}")
            self.index[v] = i

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
        if not self.exact:  # one float label makes every label a float, checked
            labels = {
                (s, d): exact.to_float(k, f"label {s}->{d}") for (s, d), k in labels.items()
            }
        self.labels: dict[Edge, Fraction | float] = labels

        self.scc_partition: tuple[frozenset[str], ...] = self._compute_sccs()
        self.component_index: dict[str, int] = {
            v: ci for ci, comp in enumerate(self.scc_partition) for v in comp
        }

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
        """Per component: what the first unplaced vertex reaches among those reaching it."""
        out: dict[str, list[str]] = {v: [] for v in self.vertex_ids}
        ins: dict[str, list[str]] = {v: [] for v in self.vertex_ids}
        for s, d in self.edges:
            out[s].append(d)
            ins[d].append(s)
        unplaced = set(self.vertex_ids)
        comps: list[frozenset[str]] = []
        for v in self.vertex_ids:
            if v in unplaced:
                comp = frozenset(_reach(out, v, _reach(ins, v, unplaced)))
                unplaced -= comp
                comps.append(comp)
        comps.sort(key=min)
        return tuple(comps)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LabeledDigraph({self.n_vertices} vertices, {self.n_edges} edges)"


def _reach(adj: dict[str, list[str]], start: str, within: set[str]) -> set[str]:
    """The vertices that `start` reaches along `adj` inside `within`.  A path
    from start to a vertex that reaches it back stays in start's component,
    so kept to the unplaced vertices, or to those reaching start, it misses none."""
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in within and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def build_digraph(vertices: Sequence, edges: Iterable[tuple]) -> LabeledDigraph:
    """Construct a labeled digraph from (source, target, label) triples."""
    return LabeledDigraph(vertices, edges)


# -- cycles ----------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """Directed simple cycle, stored as its vertex sequence with the
    smallest vertex first; its edges join each vertex to the next and the
    last to the first."""

    vertex_seq: tuple[str, ...]

    @property
    def edges(self) -> tuple[Edge, ...]:
        seq = self.vertex_seq
        return tuple(zip(seq, seq[1:] + seq[:1]))


def enumerate_cycles(g: LabeledDigraph) -> list[Cycle]:
    """All directed simple cycles in the walk's lexicographic order (`_walk_cycles`)."""
    cycles: list[Cycle] = []
    _walk_cycles(g, dict.fromkeys(g.edges, 1), lambda p, _, __: cycles.append(Cycle(tuple(p))))
    return cycles


def _walk_cycles(g: LabeledDigraph, labels: dict, close: Callable[[list, list, int], None]) -> None:
    """Call close(path, labs, mask) on each directed simple cycle as it
    closes: its vertex sequence (read only during the call), the labels of
    its edges in that order, and the sum of 1 << g.index[v] over its vertices.

    Each cycle is found once by only exploring vertices >= the start vertex,
    so the start is the cycle's minimum.  The starts and each out-list are
    taken in sorted order, and the start precedes every other vertex the
    walk may enter, so each path is closed before it is extended and the
    cycles close in lexicographic order.  The mask also holds the vertices
    before the start, so one bit test refuses both.  The cycles grow
    exponentially with density (K8 has 16 064, K9 125 664), so the walk
    raises DimensionTooLargeError when it meets one past MAX_CYCLES.
    """
    out: dict[str, list] = {v: [] for v in g.vertex_ids}
    for s, d in sorted(g.edges):
        out[s].append((d, labels[(s, d)], 1 << g.index[d]))
    count = below = 0  # below: the mask of the vertices before the start

    def walk(start: str, v: str, path: list[str], labs: list, mask: int) -> None:
        nonlocal count
        for d, k, bit in out[v]:
            if d == start:
                if (count := count + 1) > MAX_CYCLES:
                    raise DimensionTooLargeError(f"more than MAX_CYCLES={MAX_CYCLES} simple cycles")
                close(path, labs + [k], mask - below)
            elif not mask & bit:
                path.append(d)
                labs.append(k)
                walk(start, d, path, labs, mask | bit)
                del path[-1], labs[-1]

    for start in sorted(g.vertex_ids):
        walk(start, start, [start], [], below | 1 << g.index[start])
        below |= 1 << g.index[start]
    del walk  # it refers to itself: free what it holds now, not at the next collection


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
    """Wrap arbitrary edges as a general auxiliary tree, grouped by
    component; `validate_aux_tree` refuses edges that are not one."""
    aux = AuxTree(edges=tuple((str(a), str(b)) for a, b in edges), kind="general")
    validate_aux_tree(g, aux)
    return _grouped(g, aux)


def _grouped(g: LabeledDigraph, aux: AuxTree) -> AuxTree:
    """`aux` with its edges stably sorted by component, so that core
    matrices come out block-diagonal."""
    edges = sorted(aux.edges, key=lambda e: g.component_index[e[0]])
    return AuxTree(edges=tuple(edges), kind=aux.kind)


def validate_aux_tree(g: LabeledDigraph, aux: AuxTree) -> None:
    """Check all auxiliary-tree invariants against g's SCC partition.

    Raises InvalidAuxTreeError naming the first violated invariant: the
    kind, then each edge's endpoints, duplicate edges, components crossed,
    and per component the edge count, acyclicity and the chain or star
    shape.
    """
    if aux.kind not in ("chain", "star", "general"):
        raise InvalidAuxTreeError(f"unknown aux tree kind {aux.kind!r}")
    for (a, b) in aux.edges:
        if a not in g.index or b not in g.index:
            raise InvalidAuxTreeError(f"edge {a}->{b} has an unknown endpoint")
        if a == b:
            raise InvalidAuxTreeError(f"self-loop {a}->{b}")
    if len(set(aux.edges)) != len(aux.edges):
        raise InvalidAuxTreeError("duplicate aux edge")
    for (a, b) in aux.edges:
        if g.component_index[a] != g.component_index[b]:
            raise InvalidAuxTreeError(f"edge {a}->{b} crosses components")
    for ci in range(g.n_components):
        comp = g.scc_partition[ci]
        comp_edges = [(a, b) for (a, b) in aux.edges if a in comp]
        if len(comp_edges) != len(comp) - 1:
            raise InvalidAuxTreeError(
                f"component {sorted(comp)} has {len(comp_edges)} aux edges, "
                f"expected {len(comp) - 1}"
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
                raise InvalidAuxTreeError(
                    f"aux edges contain an undirected cycle in {sorted(comp)}"
                )
            parent[ra] = rb
        # the tree is a directed path iff no two edges share a tail or a
        # head, and (with no self-loop) a star iff every edge has one head
        tails, heads = {a for a, _ in comp_edges}, {b for _, b in comp_edges}
        if aux.kind == "chain" and len(comp_edges) > min(len(tails), len(heads)):
            raise InvalidAuxTreeError(
                f"chain edges in {sorted(comp)} do not form a path"
            )
        if aux.kind == "star" and len(heads) > 1:
            raise InvalidAuxTreeError(
                f"star edges in {sorted(comp)} do not share a single root"
            )


def default_chain_aux(g: LabeledDigraph) -> AuxTree:
    """Chain aux tree using declaration order within each component."""
    return make_aux_tree(
        g, "chain", [g.component_vertices(ci) for ci in range(g.n_components)]
    )
