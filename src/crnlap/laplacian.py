"""Laplacian matrix, tree constants, core-matrix and cycle decompositions.

All identities here are exact in rational mode; float mode carries a
relative residual tolerance of 1e-12.  The core matrix of a labeled digraph
G_k for an auxiliary tree with incidence matrix I_aux is the unique
invertible matrix A_core with

    A_k diag(K_k) = -I_aux @ A_core @ I_aux.T

One rule computes it for every spanning tree, chain, star or general: row
(a->b) of the left inverse J is the 0/1 indicator of a's side of the tree
with that edge removed, so J @ I_aux = -Identity, and A_core =
-J (A_k diag K_k) J.T.  Any other J' with J' @ I_aux = +-Identity differs
from +-J by rows that are constant on each component, and A_k diag K_k
annihilates each component's all-ones vector on both sides (columns of A_k
sum to zero, and K_k spans its kernel), so the core does not depend on the
choice of J nor, as J enters twice, on its sign.  The product is never
formed: the cut-flow J A_k is sparse, since a graph edge v->d moves flux
across exactly the tree edges on the tree path from v to d, so the core is
assembled edge by edge.  In rational mode this runs on Python ints: each
component's labels are scaled once by the lcm of their denominators and
its tree constants by the lcm of theirs, and each core entry is divided by
the product of the two scales once, at the end.

`verify_core_decomposition` re-checks the identity for the core it is
given, scattering each core entry onto the four entries of I_aux core
I_aux.T it touches; in rational mode, on ints, where an exactly zero
residual proves the core invertible, and Bareiss elimination, one block
per component, runs only on a core with a nonzero residual.

Tree constants come from Grassmann-Taksar-Heyman state reduction on a
component's rate matrix (matrix-tree theorem).  The reduction only adds,
multiplies and divides positive numbers, so it is exact on Fractions and,
with no cancellation to lose digits to, accurate entry by entry on floats.
Each cycle coefficient is the cycle's label product times the principal
minor of -A_k on the vertices off the cycle (all-minors matrix-tree
theorem), taken once per vertex set: on floats as the product of the same
reduction's pivots, and in rational mode as the Bareiss determinant of the
component's labels scaled to ints, as for the core.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import inf, lcm
from operator import mul

import numpy as np

from . import exact
from .errors import FloatRangeError, InvalidAuxTreeError, NotStronglyConnectedError
from .graph import (
    AuxTree,
    Cycle,
    Edge,
    LabeledDigraph,
    enumerate_cycles,
    validate_aux_tree,
)

FLOAT_RESIDUAL_RTOL = 1e-12
CHAIN_SIGN_RTOL = 1e-12


def _require_scc(g: LabeledDigraph) -> None:
    if not g.has_strongly_connected_components():
        raise NotStronglyConnectedError(
            "graph has edges between strongly connected components"
        )


def laplacian_matrix(g: LabeledDigraph) -> np.ndarray:
    """A_k from the edge list: A[d, s] = k(s->d), A[s, s] = -sum of k out of s.

    Columns sum to zero; entries are Fractions in exact mode.
    """
    n = g.n_vertices
    a = exact.zeros(n, n) if g.exact else np.zeros((n, n))
    for e in g.edges:
        s, d = g.index[e[0]], g.index[e[1]]
        a[d, s] += g.labels[e]
        a[s, s] -= g.labels[e]
    return a


@dataclass(frozen=True)
class TreeConstants:
    """Per-vertex sums, over spanning in-trees rooted there, of label products.

    Spans the kernel of the Laplacian on each strongly connected component.
    """

    values: np.ndarray  # dense vertex order; Fractions in exact mode

    def as_float(self) -> np.ndarray:
        """The constants as float64, refused (FloatRangeError) unless each is
        a positive finite float64 value."""
        return exact.positive_floats(self.values, "tree constants")


def _reduce(w: list[list]) -> list | None:
    """Pivots of Grassmann-Taksar-Heyman state reduction on one block.

    w[i][j] is the rate i->j (zero for no edge; the diagonal is never read)
    and every vertex must reach vertex 0.  Vertices are censored from last
    to first: the pivot s_k is k's remaining out-rate, and each path
    i->k->j adds w[i][k] w[k][j] / s_k to w[i][j] (w is overwritten).
    Returns [1, s_1, ..., s_{n-1}], whose product is the principal minor of
    -A_k without vertex 0.  Only sums, products and quotients of positive
    numbers occur, so the result is exact on Fractions, and on floats each
    pivot's relative error grows with n but not with the spread of rates,
    provided no step leaves the normal float64 range.  On floats that is
    checked on every quotient w[i][k] / s_k and its product with the least
    rate it scales (which bounds the terms it adds); None where one fails.
    """
    n, tiny = len(w), sys.float_info.min
    guard = any(isinstance(x, float) for x in w[-1])  # False for one vertex
    pivots = [Fraction(1)] * n  # pivots[0] stays the unit
    for k in range(n - 1, 0, -1):
        row_k = w[k][:k]
        s = pivots[k] = sum(row_k)
        low = min(filter(None, row_k)) if guard else 0
        for i in range(k):
            if w[i][k]:
                f = w[i][k] / s
                if guard and not (tiny <= f < inf and tiny <= f * low):
                    return None
                for j in range(k):
                    w[i][j] += f * w[k][j]
    return pivots


def _kirchhoff(w: list[list]) -> list:
    """Tree constants of one block: `_reduce`, then back substitution.

    The product of the pivots is K of vertex 0 (matrix-tree theorem), and
    K_k = sum_{i<k} K_i w[i][k] / s_k gives the others.  On floats every
    partial product of the pivots, back-substitution sum and K is checked
    to lie in the normal float64 range; where one of these or a check of
    `_reduce` fails, the block is reduced on the exact values of its rates
    instead (`_exactly`).
    """
    n, tiny = len(w), sys.float_info.min
    guard = any(isinstance(x, float) for x in w[-1])
    rates = [row[:] for row in w]
    pivots = _reduce(w)
    if pivots is None:
        return _exactly(rates)
    steps = list(accumulate(pivots, mul))
    consts = [steps[-1]]
    for k in range(1, n):
        steps.append(sum(consts[i] * w[i][k] for i in range(k)))
        consts.append(steps[-1] / pivots[k])
    checked = steps[1:] + consts  # positive: their sum is inf or NaN if one is
    if guard and not (tiny <= min(checked) and sum(checked) < inf):
        return _exactly(rates)
    return consts


def _exactly(w: list[list]) -> list:
    """Float tree constants of a float block from the exact values of its
    rates, each rounded once: inf where it overflows or a rate is not finite."""
    if not all(x < inf for row in w for x in row):
        return [inf] * len(w)
    exact_w = [[Fraction(x) for x in row] for row in w]
    return [float(k) if k < sys.float_info.max else inf for k in _kirchhoff(exact_w)]


def tree_constants(g: LabeledDigraph) -> TreeConstants:
    """Tree constants by GTH state reduction, one pass per component.

    The reduction (Grassmann, Taksar and Heyman 1985) is Gaussian
    elimination on the component's Laplacian with each pivot taken as the
    sum of the remaining off-diagonal rates instead of the diagonal entry,
    so it never subtracts.  On Fractions it is exact; on floats every
    tree constant keeps a small relative error however widely the labels
    spread (O'Cinneide 1993), where cofactor determinants lose digits to
    cancellation; they are refused (FloatRangeError) only when they leave
    the float64 range themselves.  The cost is cubic in the component size,
    where the number of spanning trees is exponential.
    """
    _require_scc(g)
    values = np.empty(g.n_vertices, dtype=object)
    for ci in range(g.n_components):
        verts = g.component_vertices(ci)
        pos = {v: i for i, v in enumerate(verts)}
        w = [[0] * len(verts) for _ in verts]
        for (s, d) in g.component_edges(ci):
            w[pos[s]][pos[d]] = g.labels[(s, d)]
        for v, k in zip(verts, _kirchhoff(w)):
            values[g.index[v]] = k
    values = values.astype(object if g.exact else float)
    if not g.exact and not np.all(np.isfinite(values) & (values > 0)):
        raise FloatRangeError("float tree constants leave the float64 range")
    return TreeConstants(values=values)


# -- core matrix -----------------------------------------------------------


@dataclass(frozen=True)
class CoreDecomposition:
    """Core matrix with its ingredients; `verify_core_decomposition` checks
    the identity that ties them together.

    The graph gives the core's blocks: aux edges r and t share a block when
    their tails share a component, and the core is zero off the blocks.
    """

    aux: AuxTree
    core: np.ndarray  # |aux.edges| x |aux.edges|
    graph: LabeledDigraph
    tree_constants: TreeConstants

    @property
    def exact(self) -> bool:
        return exact.is_exact(self.core)


def _tree_cuts(g: LabeledDigraph, aux: AuxTree) -> dict[str, set[int]]:
    """cuts[v]: the aux edges r = (a->b) with v on side_r, a's side of the
    tree once r is removed."""
    neighbours: dict[str, list[tuple[str, int]]] = {v: [] for v in g.vertex_ids}
    for r, (a, b) in enumerate(aux.edges):
        neighbours[a].append((b, r))
        neighbours[b].append((a, r))
    cuts: dict[str, set[int]] = {v: set() for v in g.vertex_ids}
    for r, (a, _) in enumerate(aux.edges):
        side, stack = {a}, [a]
        while stack:
            v = stack.pop()
            cuts[v].add(r)
            for w, e in neighbours[v]:
                if e != r and w not in side:
                    side.add(w)
                    stack.append(w)
    return cuts


def _component_ints(g: LabeledDigraph, comps: list[int], values: list) -> tuple[list, list]:
    """Exact `values` (value i in component comps[i]) as ints: those of
    component c times the lcm of their denominators; and the list of lcms."""
    dens = [1] * g.n_components
    for c, k in zip(comps, values):
        dens[c] = lcm(dens[c], k.denominator)
    return [k.numerator * (dens[c] // k.denominator) for c, k in zip(comps, values)], dens


def _integer_labels(g: LabeledDigraph) -> tuple[dict[Edge, int], list[int]]:
    """Exact labels as ints: those of component c times D_c, the lcm of
    their denominators, with the list of the D_c."""
    comps = [g.component_index[v] for v, _ in g.labels]
    ints, dens = _component_ints(g, comps, list(g.labels.values()))
    return dict(zip(g.labels, ints)), dens


def _integer_scaling(g: LabeledDigraph, consts: TreeConstants) -> tuple[dict, list, list]:
    """Exact labels and tree constants as ints: component c's labels times
    D_c and its constants times L_c, the lcm of their own denominators, with
    the scale D_c L_c of each vertex."""
    comps = [g.component_index[v] for v in g.vertex_ids]
    labels, dens = _integer_labels(g)
    k_vals, lens = _component_ints(g, comps, consts.values.tolist())
    return labels, k_vals, [dens[c] * lens[c] for c in comps]


def _require_aux(g: LabeledDigraph, aux: AuxTree) -> None:
    report = validate_aux_tree(g, aux)
    if not report.ok:
        raise InvalidAuxTreeError(report.violation)


def core_matrix(
    g: LabeledDigraph, aux: AuxTree, consts: TreeConstants | None = None
) -> CoreDecomposition:
    """Decompose A_k diag(K_k) = -I_aux @ core @ I_aux.T for the given tree.

    The core is -J (A_k diag K) J.T, where row r = (a->b) of J is the
    indicator of side_r, a's side of the tree with r removed (J @ I_aux =
    -Identity); the same rule serves chain, star and general trees.  It is
    assembled from edge cut-flows without forming J: F = J A_k has
    F[r, v] = sum over graph edges e = (v->d) whose tree path crosses r of
    +k_e when d is on side_r and -k_e when v is, so each edge touches only
    the rows on its tree path, and core[r, t] = -sum over v in side_t of
    F[r, v] K_v.  Labels are summed per vertex before the one product with
    K_v, so float star cores (single-leaf sides) are -A_k[i, j] K_j to the
    bit.  The identity is not checked here: `verify_core_decomposition`
    checks it for the core it is given.  Precomputed tree constants may be
    passed to avoid computing them again; any positive kernel vector serves.

    In rational mode every sum is one of ints (`_integer_scaling`): the
    component's block of S = -core is D_c L_c times the true values, and
    each nonzero core entry is then built once as Fraction(-s, D_c L_c);
    zeros are `exact.ZERO`.
    """
    _require_scc(g)
    _require_aux(g, aux)
    if consts is None:
        consts = tree_constants(g)
    labels, k_vals = g.labels, consts.values.tolist()
    if g.exact:
        labels, k_vals, scales = _integer_scaling(g, consts)
    zero = 0 if g.exact else 0.0
    cuts = _tree_cuts(g, aux)
    m = len(aux.edges)

    # F = J A_k, one dict per row: the edges r separating v from d are
    # those with exactly one of them on side_r
    flow: list[dict[str, int | float]] = [{} for _ in range(m)]
    for (v, d) in g.edges:
        k = labels[(v, d)]
        into = cuts[d]
        for r in cuts[v] ^ into:
            row = flow[r]
            row[v] = row.get(v, zero) + (k if r in into else -k)
    # S = J (A_k diag K) J.T = -core
    s = [[zero] * m for _ in range(m)]
    for srow, row in zip(s, flow):
        for v, f in row.items():
            f *= k_vals[g.index[v]]
            for t in cuts[v]:
                srow[t] += f

    if g.exact:
        # rows of S in component c carry the scale D_c L_c
        core = np.array(
            [[Fraction(-c, scales[g.index[a]]) if c else exact.ZERO for c in srow]
             for (a, _), srow in zip(aux.edges, s)],
            dtype=object,
        ).reshape(m, m)
    else:
        core = -np.array(s, dtype=float).reshape(m, m)
        if not np.all(np.isfinite(core)):
            raise FloatRangeError("float core matrix leaves the float64 range")
    return CoreDecomposition(aux=aux, core=core, graph=g, tree_constants=consts)


@dataclass(frozen=True)
class DecompositionReport:
    residual_ok: bool
    invertible: bool
    chain_signs_ok: bool | None
    star_signs_ok: bool | None
    residual: float  # max |A_k diag(K) + I_aux core I_aux.T|

    @property
    def passed(self) -> bool:
        return (
            self.residual_ok
            and self.invertible
            and self.chain_signs_ok is not False
            and self.star_signs_ok is not False
        )


def verify_core_decomposition(
    d: CoreDecomposition, tol: float | None = None
) -> DecompositionReport:
    """Check the residual, invertibility and kind-specific sign structure
    of the core `d` holds, against its graph, aux tree (refused, as by
    `core_matrix`, when invalid) and tree constants.

    The residual max |A_k diag K + I_aux core I_aux.T| scatters each core
    entry onto the four entries of I_aux core I_aux.T it touches, on top of
    the edge fluxes k_e K_v; a float one must be finite (FloatRangeError).
    It is compared with `tol` (default FLOAT_RESIDUAL_RTOL) times
    max |A_k diag K| = max_v |A_k[v, v]| K_v (each diagonal entry dominates
    its column, in floats too), and exactly with 0 in rational mode, where
    every check runs on the core and the fluxes times one positive integer.

    The core is invertible iff each block is, one per component.  In
    rational mode a zero residual with every K_v > 0 proves it: A_k diag K
    then has rank n - l = m, and I_aux, a forest's incidence matrix, has
    full column rank, so the core has rank m and is zero off the blocks.
    Only otherwise is each block decided by its Bareiss determinant; on
    floats always by its numerical rank.
    """
    core, g = d.core, d.graph
    _require_aux(g, d.aux)

    def scale():  # max |A_k diag K|: K_v times the sum of v's out-labels
        out = [0] * g.n_vertices
        for e in g.edges:
            out[g.index[e[0]]] += g.labels[e]
        return np.max(np.array(out) * d.tree_constants.values, initial=0)

    if d.exact:
        # one common scale q for the core and the fluxes of every component
        labels, k_vals, scales = _integer_scaling(g, d.tree_constants)
        rows, mult = exact.integer_rows(core)
        q = lcm(mult, *scales)
        rows = [[c * (q // mult) for c in row] for row in rows]
        k_vals = [k * (q // sc) for k, sc in zip(k_vals, scales)]
        core = np.array(rows, dtype=object).reshape(core.shape)
    else:
        labels, k_vals, rows = g.labels, d.tree_constants.values.tolist(), core.tolist()
    res = [[0] * g.n_vertices for _ in range(g.n_vertices)]
    for (v, w) in g.edges:
        i, j = g.index[v], g.index[w]
        f = labels[(v, w)] * k_vals[i]
        res[j][i] += f
        res[i][i] -= f
    ends = [(g.index[a], g.index[b]) for a, b in d.aux.edges]
    for (ar, br), row in zip(ends, rows, strict=True):  # the core is m x m
        for (at, bt), c in zip(ends, row, strict=True):
            if c:
                res[ar][at] += c
                res[ar][bt] -= c
                res[br][at] -= c
                res[br][bt] += c
    if d.exact:
        residual = Fraction(max((max(map(abs, line)) for line in res), default=0), q)
    else:
        residual = np.max(np.abs(res), initial=0.0)  # a NaN anywhere gives NaN
        if not np.isfinite(residual):
            raise FloatRangeError("float core or residual leaves the float64 range")
    residual_ok = residual <= exact.tolerance(core, FLOAT_RESIDUAL_RTOL, scale, tol)

    blocks: dict[int, list[int]] = {}
    for r, (a, _) in enumerate(d.aux.edges):
        blocks.setdefault(g.component_index[a], []).append(r)
    proved = d.exact and residual == 0 and all(k > 0 for k in k_vals)
    invertible = proved or all(
        exact.bareiss(block.tolist()) != 0 if d.exact
        else np.linalg.matrix_rank(block) == len(block)
        for block in (core[np.ix_(idx, idx)] for idx in blocks.values())
    )

    chain_ok: bool | None = None
    star_ok: bool | None = None
    m_e = len(d.aux.edges)
    if d.aux.kind == "chain":
        floor = -exact.tolerance(
            core, CHAIN_SIGN_RTOL, lambda: np.max(np.abs(core), initial=0)
        )
        chain_ok = bool(np.all(core >= floor)) and all(core[i, i] > 0 for i in range(m_e))
    elif d.aux.kind == "star":  # on `rows`: the core's entries, in rational mode times q
        star_ok = all(line[i] > 0 for i, line in enumerate(rows)) and all(
            c <= 0 for i, line in enumerate(rows) for j, c in enumerate(line) if i != j
        )
        if star_ok:
            for i, (line, column) in enumerate(zip(rows, zip(*rows))):
                row = sum(abs(c) for j, c in enumerate(line) if j != i)
                col = sum(abs(c) for j, c in enumerate(column) if j != i)
                if abs(line[i]) < row or abs(line[i]) < col:
                    star_ok = False
                    break
    return DecompositionReport(
        residual_ok=bool(residual_ok),
        invertible=bool(invertible),
        chain_signs_ok=chain_ok,
        star_signs_ok=star_ok,
        residual=float(residual) if residual <= sys.float_info.max else inf,
    )


# -- cycle decomposition ----------------------------------------------------


@dataclass(frozen=True)
class CycleDecomposition:
    """A_k diag(K_k) as the unique positive sum of unit-label cycle Laplacians."""

    terms: tuple[tuple[Cycle, Fraction | float], ...]


def _off_cycle_minor(
    out: dict[str, dict[str, int | float]], free: list[str], exact_mode: bool
) -> int | float:
    """Principal minor of -A_k on `free`, the vertices of a component off a
    cycle C; out[v][d] is the label of v->d.

    It is K of index 0 in the block where index 0 stands for all of C and
    free vertex i sits at index i with its out-edges (those into C summed
    into w[i][0]): on floats the product of the block's GTH pivots, taken
    from the exact rates (`_exactly`) where a pivot or partial product
    leaves the normal float64 range; on ints the Bareiss determinant, with
    no row swap as the rows are diagonally dominant.
    """
    pos = {v: i for i, v in enumerate(free, start=1)}
    w = [[0] * (len(free) + 1) for _ in range(len(free) + 1)]
    for v, i in pos.items():
        for d, k in out[v].items():
            w[i][pos.get(d, 0)] += k
    if exact_mode:
        idx = range(1, len(w))
        rows = [[sum(w[i]) if i == j else -w[i][j] for j in idx] for i in idx]
        return exact.bareiss(rows)
    rates = [row[:] for row in w]
    pivots = _reduce(w)
    if pivots is not None:
        steps = list(accumulate(pivots, mul))
        if sys.float_info.min <= min(steps) and steps[-1] < inf:
            return steps[-1]
    return _exactly(rates)[0]


def cycle_decomposition(g: LabeledDigraph) -> CycleDecomposition:
    """One positive coefficient per simple cycle; the weighted unit-label
    cycle Laplacians sum exactly to A_k diag(K_k).

    By the all-minors matrix-tree theorem (Chaiken 1982) the coefficient of
    C is prod_{e in C} k_e times the principal minor of -A_k on the vertices
    of its component off C, which sums the label products of the forests in
    which each of them has one out-edge and a path into C; the minor is
    taken once per vertex set.  In rational mode component c's labels are
    scaled to ints by D_c, the lcm of their denominators, so the label
    product and the minor carry D_c^n_c together and each coefficient is
    one Fraction.  Float coefficients are accurate to a few ulps and refused
    (FloatRangeError) outside the normal float64 range.  The cycles are
    enumerated, so `enumerate_cycles`'s size limit applies.
    """
    _require_scc(g)
    labels, dens = _integer_labels(g) if g.exact else (g.labels, None)
    out: dict[str, dict[str, int | float]] = {v: {} for v in g.vertex_ids}
    for (v, d), k in labels.items():
        out[v][d] = k
    minors: dict[frozenset[str], int | float] = {}
    terms = []
    for cycle in enumerate_cycles(g):
        ci = g.component_index[cycle.edges[0][0]]
        minor = minors.get(cycle.vertices)
        if minor is None:
            free = [v for v in g.component_vertices(ci) if v not in cycle.vertices]
            minor = minors[cycle.vertices] = _off_cycle_minor(out, free, g.exact)
        coeff = minor
        for e in cycle.edges:
            coeff *= labels[e]
        if g.exact:
            coeff = Fraction(coeff, dens[ci] ** len(g.scc_partition[ci]))
        terms.append((cycle, coeff))
    if not g.exact and not all(sys.float_info.min <= c < inf for _, c in terms):
        raise FloatRangeError("float cycle coefficients leave the float64 range")
    return CycleDecomposition(terms=tuple(terms))
