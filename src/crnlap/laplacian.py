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

Exact tree constants come from fraction-free (Bareiss) elimination on
a component's labels scaled to ints by D_c, the lcm of their denominators:
by Sylvester's identity every entry it forms is a minor of the out-rate
matrix, so each of its divisions is exact, and each constant is then one
Fraction over D_c^(n_c - 1).  Float tree constants, and only they, come
from Grassmann-Taksar-Heyman state reduction on the component's rate matrix
(matrix-tree theorem), which only adds, multiplies and divides positive
numbers, so with no cancellation to lose digits to it is accurate entry by
entry on floats.  Each cycle coefficient is the cycle's label product
times the principal minor of -A_k on the vertices off the cycle
(all-minors matrix-tree theorem), formed as one walk closes the cycle.
The minor is memoized by vertex mask, and for every graph it is the
Bareiss determinant of the out-rate matrix on the labels scaled to ints
as for the core, float labels at their exact values, so a float
coefficient is the exact coefficient of its labels rounded once.  A
graph's int labels are formed once and kept with it, as are a tree
constant vector's, once per graph.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import inf, lcm, prod
from operator import mul

import numpy as np

from . import exact
from .errors import FloatRangeError, NotStronglyConnectedError
from .graph import (
    AuxTree,
    Cycle,
    Edge,
    LabeledDigraph,
    _walk_cycles,
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
    Their float and int forms are formed on first use and kept, so the
    values `tree_constants` returns are read-only.
    """

    values: np.ndarray  # dense vertex order; Fractions in exact mode

    def as_float(self) -> np.ndarray:
        """The constants as float64, refused (FloatRangeError) unless each is
        a positive finite float64 value; converted on the first call and
        kept, read-only."""
        out = self.__dict__.get("_floats")
        if out is None:
            out = exact.positive_floats(self.values, "tree constants")
            out.flags.writeable = False
            object.__setattr__(self, "_floats", out)  # a cache, not a field
        return out


def _kirchhoff(w: list[list[float]]) -> list[float]:
    """Float tree constants of one block by Grassmann-Taksar-Heyman state
    reduction, then back substitution.

    w[i][j] is the rate i->j (zero for no edge; the diagonal is never read)
    and every vertex must reach vertex 0.  Vertices are censored from last
    to first: the pivot s_k is k's remaining out-rate, and each path
    i->k->j adds w[i][k] w[k][j] / s_k to w[i][j] (w is overwritten).  The
    product of the pivots is K of vertex 0 (matrix-tree theorem), and
    K_k = sum_{i<k} K_i w[i][k] / s_k gives the others.  Only sums,
    products and quotients of positive numbers occur, so each constant's
    relative error grows with n but not with the spread of rates, provided
    no step leaves the normal float64 range.  That is checked on every
    quotient w[i][k] / s_k and its product with the least rate it scales
    (which bounds the terms it adds), and on every partial product of the
    pivots, back-substitution sum and K; where one fails, the block's tree
    constants are taken from the exact values of its rates instead
    (`_exactly`).
    """
    n, tiny = len(w), sys.float_info.min
    rates = [row[:] for row in w]
    pivots = [1.0] * n  # pivots[0] stays the unit
    for k in range(n - 1, 0, -1):
        row_k = w[k][:k]
        s = pivots[k] = sum(row_k)
        low = min(filter(None, row_k))
        for i in range(k):
            if w[i][k]:
                f = w[i][k] / s
                if not (tiny <= f < inf and tiny <= f * low):
                    return _exactly(rates)
                for j in range(k):
                    w[i][j] += f * w[k][j]
    steps = list(accumulate(pivots, mul))
    consts = [steps[-1]]
    for k in range(1, n):
        steps.append(sum(consts[i] * w[i][k] for i in range(k)))
        consts.append(steps[-1] / pivots[k])
    checked = steps[1:] + consts  # positive: their sum is inf or NaN if one is
    if not (tiny <= min(checked) and sum(checked) < inf):
        return _exactly(rates)
    return consts


def _fraction_free(w: list[list[int]]) -> list[int]:
    """Tree constants of one block of integer rates w[i][j] (i->j; zero for
    no edge and on the diagonal), every vertex reaching vertex 0.

    K_v is the principal minor without v of the out-rate matrix M:
    M[i][i] is the out-rate sum of i and M[i][j] = -w[i][j].  Vertices are
    eliminated from last to first, Bareiss-style: for i < k, row i becomes
    (P_k row_i - M[i][k] row_k) / P_{k+1} on the columns below k, where P_k
    is the pivot M[k][k] and P_n = 1.  By Sylvester's identity every entry
    formed is a minor of M, so each division is exact, and P_k is the
    principal minor on {k, ..., n-1}, positive as each of those vertices
    reaches vertex 0; the last, P_1, is K_0.  Before step k the rows on
    {0, ..., k} are P_{k+1} times the out-rate matrix of the chain censored
    to those vertices, which K annihilates from the left, so back
    substitution gives K_k = -sum_{i<k} K_i M[i][k] / P_k, exact as the
    quotient is an integer minor.
    """
    n = len(w)
    m = [[-x for x in row] for row in w]
    for i, row in enumerate(m):
        row[i] = sum(w[i])
    cols, pivots, prev = [[]] * n, [1] * n, 1
    for k in range(n - 1, 0, -1):
        top, p = m[k][:k], m[k][k]
        cols[k] = [row[k] for row in m[:k]]
        for row, f in zip(m, cols[k]):
            if f:
                row[:k] = [(p * v - f * u) // prev for v, u in zip(row, top)]
            else:  # only rescaled; its zeros, most of a sparse block, stay 0
                row[:k] = [p * v // prev if v else 0 for v in row[:k]]
        pivots[k] = prev = p
    consts = [prev]
    for k in range(1, n):
        consts.append(-sum(map(mul, consts, cols[k])) // pivots[k])
    return consts


def _exactly(w: list[list[float]]) -> list[float]:
    """Float tree constants of a float block from the exact values of its
    rates, each rounded once: inf where it overflows.  The rates are scaled
    to ints by d, the lcm of their denominators, so each constant is an int
    of `_fraction_free` over d^(n-1)."""
    n = len(w)
    flat, d = exact.integer_row([x for row in w for x in row])
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    consts = (Fraction(k, d ** (n - 1)) for k in _fraction_free(rows))
    return [float(k) if k < sys.float_info.max else inf for k in consts]


def tree_constants(g: LabeledDigraph) -> TreeConstants:
    """Tree constants, one elimination per component, cubic in its size
    where the number of spanning trees is exponential.

    Exact labels are scaled to ints by D_c, the lcm of the component's
    denominators, and eliminated fraction-free (`_fraction_free`), so
    each constant is an int, a sum of products of n_c - 1 scaled labels,
    until it is divided once by D_c^(n_c - 1).  Float labels, and only
    they, go through GTH state reduction (Grassmann, Taksar and Heyman
    1985): Gaussian elimination on the component's Laplacian with each
    pivot taken as the sum of the remaining off-diagonal rates instead of
    the diagonal entry, so it never subtracts, and every tree constant
    keeps a small relative error however widely the labels spread
    (O'Cinneide 1993), where cofactor determinants lose digits to
    cancellation; float constants are refused (FloatRangeError) only when
    they leave the float64 range themselves.
    """
    _require_scc(g)
    labels, dens = _integer_labels(g) if g.exact else (g.labels, None)
    values = np.empty(g.n_vertices, dtype=object)
    for ci in range(g.n_components):
        verts = g.component_vertices(ci)
        pos = {v: i for i, v in enumerate(verts)}
        w = [[0] * len(verts) for _ in verts]
        for (s, d) in g.component_edges(ci):
            w[pos[s]][pos[d]] = labels[(s, d)]
        if g.exact:
            scale = dens[ci] ** (len(verts) - 1)
            consts = [Fraction(k, scale) for k in _fraction_free(w)]
        else:
            consts = _kirchhoff(w)
        for v, k in zip(verts, consts):
            values[g.index[v]] = k
    if not g.exact:
        values = values.astype(float)
        if not np.all(np.isfinite(values) & (values > 0)):
            raise FloatRangeError("float tree constants leave the float64 range")
    values.flags.writeable = False
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
    """`values` (value i in component comps[i]), Fractions or floats, at
    their exact values as ints: those of component c times the lcm of their
    denominators; and the list of lcms."""
    ratios = [k.as_integer_ratio() for k in values]
    dens = [1] * g.n_components
    for c, (_, d) in zip(comps, ratios):
        dens[c] = lcm(dens[c], d)
    return [n * (dens[c] // d) for c, (n, d) in zip(comps, ratios)], dens


def _integer_labels(g: LabeledDigraph) -> tuple[dict[Edge, int], list[int]]:
    """Labels, exact or float, at their exact values as ints: those of
    component c times D_c, the lcm of their denominators, with the list of
    the D_c; formed once per graph, which is immutable, and kept with it."""
    kept = g.__dict__.get("_int_labels")
    if kept is None:
        comps = [g.component_index[v] for v, _ in g.labels]
        ints, dens = _component_ints(g, comps, list(g.labels.values()))
        kept = g._int_labels = (dict(zip(g.labels, ints)), dens)
    return kept


def _integer_scaling(g: LabeledDigraph, consts: TreeConstants) -> tuple[dict, list, list]:
    """Exact labels and tree constants as ints: component c's labels times
    D_c and its constants times L_c, the lcm of their own denominators, with
    the scale D_c L_c of each vertex.  The constants' part is formed once
    for the graph and kept with `consts`."""
    labels, dens = _integer_labels(g)
    kept = consts.__dict__.get("_ints")
    if kept is None or kept[0] is not g:
        comps = [g.component_index[v] for v in g.vertex_ids]
        k_vals, lens = _component_ints(g, comps, consts.values.tolist())
        kept = (g, k_vals, [dens[c] * lens[c] for c in comps])
        object.__setattr__(consts, "_ints", kept)  # a cache, not a field
    return labels, kept[1], kept[2]


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
    validate_aux_tree(g, aux)  # recorded on the result, so `verify` skips it
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
        core = 0.0 - np.array(s, dtype=float).reshape(m, m)  # zeros are +0.0
        if not np.all(np.isfinite(core)):
            raise FloatRangeError("float core matrix leaves the float64 range")
    dec = CoreDecomposition(aux=aux, core=core, graph=g, tree_constants=consts)
    object.__setattr__(dec, "_tree_valid", True)  # not a field: a copy is checked again
    return dec


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
    `core_matrix`, when invalid) and tree constants.  The tree is validated
    again unless `d` is the very result of `core_matrix`, which validated
    it: a decomposition built by hand or by `dataclasses.replace` is not.

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
    if not d.__dict__.get("_tree_valid"):
        validate_aux_tree(g, d.aux)

    def scale():  # max |A_k diag K|: K_v times the sum of v's out-labels
        out = [0] * g.n_vertices
        for e in g.edges:
            out[g.index[e[0]]] += g.labels[e]
        return np.max(np.array(out) * d.tree_constants.values, initial=0)

    if d.exact:
        # one common scale q for the core and the fluxes of every component
        labels, k_vals, scales = _integer_scaling(g, d.tree_constants)
        flat, mult = exact.integer_row(core.flat)
        q = lcm(mult, *scales)
        k_vals = [k * (q // sc) for k, sc in zip(k_vals, scales)]
        core = np.array([c * (q // mult) for c in flat], dtype=object).reshape(core.shape)
        rows = core.tolist()
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


def cycle_decomposition(g: LabeledDigraph) -> CycleDecomposition:
    """One positive coefficient per simple cycle; the weighted unit-label
    cycle Laplacians sum exactly to A_k diag(K_k).

    By the all-minors matrix-tree theorem (Chaiken 1982) the coefficient of
    C is prod_{e in C} k_e times the principal minor of -A_k on the vertices
    of its component off C, which sums the label products of the forests in
    which each of them has one out-edge and a path into C.  One walk
    (`graph._walk_cycles`) forms each coefficient as it closes the cycle,
    the minor times the labels along the path, the minor memoized by the
    cycle's vertex mask.  Every graph's labels, float ones at their exact
    values, are scaled to ints per component, by D_c, the lcm of their
    denominators; the minor is the Bareiss determinant of the out-rate
    matrix off the cycle, diagonally dominant, so with no row swap; and the
    label product and the minor carry D_c^n_c together, so each coefficient
    is one Fraction.  A float graph's coefficients are those Fractions each
    rounded once, and refused (FloatRangeError) when one lies outside the
    normal float64 range.  Past MAX_CYCLES the walk raises
    DimensionTooLargeError, after forming that many.
    """
    _require_scc(g)
    labels, dens = _integer_labels(g)
    out: dict[str, dict[str, int]] = {v: {} for v in g.vertex_ids}
    for (v, d), k in labels.items():
        out[v][d] = k
    sums = {v: sum(row.values()) for v, row in out.items()}
    scales = [d ** len(comp) for d, comp in zip(dens, g.scc_partition)]
    minors, terms = {}, []  # minors: vertex mask -> (the minor off it, its scale)

    def close(path: list[str], labs: list, mask: int) -> None:
        if (entry := minors.get(mask)) is None:
            ci = g.component_index[path[0]]
            free = [v for v in g.component_vertices(ci) if not mask >> g.index[v] & 1]
            minor = exact.bareiss([[sums[a] if a == b else -out[a].get(b, 0) for b in free]
                                   for a in free])
            entry = minors[mask] = (minor, scales[ci])
        terms.append((Cycle(tuple(path)), Fraction(prod(labs, start=entry[0]), entry[1])))

    _walk_cycles(g, labels, close)
    if not g.exact:
        if not all(sys.float_info.min <= lam <= sys.float_info.max for _, lam in terms):
            raise FloatRangeError("float cycle coefficients leave the float64 range")
        terms = [(c, float(lam)) for c, lam in terms]
    return CycleDecomposition(terms=tuple(terms))
