"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's own algorithmic paths:
transitive closure instead of per-component reachability searches, subset
enumeration instead of backtracking, cofactor determinants and forest
backtracking instead of state reduction, edge sums instead of matrix
products, facet-subset ray search instead of a Farkas linear program,
Gaussian elimination instead of tree cuts, a dense triple product instead of
edge cut-flows, one polar check per tie-breaking chain order instead of one
on the union of their cones, dense incidence matrices instead of edge-end
gathers, and the dense Laplacian applied to x^Y instead of edge flows
(`dense_rhs`, `dense_balance`).

It also holds the exact linear algebra only tests use: `solve` (one
particular solution of a x = b), `rank` and `column_space` (a basis of the
image, such as S = im N) on top of `fraction_rref`, `det` (Gaussian
elimination on Fractions, where the library decides invertibility by
Bareiss elimination on integers), and `cycle_laplacian` and
`cycle_reconstruction`, which sum the weighted cycle Laplacians of a cycle
decomposition back into A_k diag K_k.

`gth_tree_constants` is Grassmann-Taksar-Heyman state reduction on
Fractions, the reduction the library runs on floats only; exact tree
constants in the library come from fraction-free elimination on ints.

`reference_simulate` is the integrator loop as it was before stage 0 was
taken as x itself: it evaluates every stage, stage 0 included, on each
attempt, converts Y, k and N on each call, and records the Lyapunov value
step by step.  A trajectory of `simulate` must equal its trajectory exactly.

`reference_certificate`, `reference_bdi_report`, `reference_is_cbe` and
`reference_birch` are the certificate, BDI report, balance test and Birch
step as they were before a state was evaluated once per call: every
function re-checks x and forms x^Y again (`reference_monomials`), and x* is
checked again on each call (`reference_require_cbe`).  Since then the
certificate forms a and b on the scaled monomials, which the reference does
edge by edge, and an exact v stays exact in the BDI report.  Their results
must equal the library's bit for bit.

`reference_cycle_decomposition` is the cycle decomposition as a second
pass over the cycles `reference_enumerate_cycles` lists (the walk with a
visited set), as it was before one walk formed each coefficient as it
closed the cycle.  Its terms must equal the library's in order, value and
type, and its float coefficients and refusals bit for bit: those of a
float graph are the exact terms of its labels' values, each rounded once.

The Farkas LP and reduced row echelon form have Fraction oracles too, where
the library pivots rows of ints over one denominator: `fraction_rref`,
`fraction_max_margin` (the same two-phase Bland's-rule tableau, on
Fractions) and `fraction_polar_report`, the polar report with its LP solved
by `fraction_max_margin`.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction
from math import gcd, lcm, prod
from unittest import mock

import numpy as np

from crnlap import equilibria, exact, geometry
from crnlap.crn import check_state, evaluate
from crnlap.equilibria import CBE_RTOL, CbeCheck, solve_cbe
from crnlap.errors import (
    DimensionTooLargeError,
    FloatRangeError,
    NotACbeError,
    NotStronglyConnectedError,
    SemanticError,
    ShapeMismatchError,
    StepSizeUnderflowError,
)
from crnlap.geometry import (
    POLAR_LINEALITY_RTOL,
    POLAR_STRICT_RTOL,
    PolarReport,
    evaluation_order,
    polar_interior_contains,
    region_constraints,
)
from crnlap.graph import MAX_CYCLES, Cycle, LabeledDigraph, edge_ends, make_aux_tree
from crnlap.laplacian import CycleDecomposition, core_matrix, laplacian_matrix
from crnlap.stability import (
    _CK_A,
    _CK_B5,
    _CK_E,
    MANIFOLD_V_TOL,
    SIGN_RTOL,
    BdiReport,
    StabilityCertificate,
    Trajectory,
    _lyapunov,
)


def rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    return len(fraction_rref(m)[1])


def column_space(m: np.ndarray) -> np.ndarray:
    """Basis of im(m): the pivot columns of m."""
    return m[:, fraction_rref(m)[1]].astype(object, copy=True)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One particular solution of a x = b, or None if inconsistent."""
    nrows, ncols = a.shape
    aug = exact.zeros(nrows, ncols + 1)
    aug[:, :ncols] = a
    aug[:, ncols] = [Fraction(v) for v in b]
    r, pivots = fraction_rref(aug)
    if ncols in pivots:
        return None
    x = exact.vector([0] * ncols)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols]
    return x


def fraction_pivot(rows: list[list[Fraction]], i: int, k: int) -> None:
    """Scale row i to a unit entry in column k and clear column k elsewhere."""
    pivot_row = rows[i]
    p = pivot_row[k]
    pivot_row[:] = [v / p for v in pivot_row]
    for row in rows:
        if row is not pivot_row and row[k] != 0:
            f = row[k]
            row[:] = [v - f * u for v, u in zip(row, pivot_row)]


def fraction_rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form by Gauss-Jordan on Fractions; returns
    (rref matrix, pivot column list)."""
    rows = [[Fraction(v) for v in row] for row in m.tolist()]
    pivots: list[int] = []
    for col in range(m.shape[1]):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if i is not None:
            rows[r], rows[i] = rows[i], rows[r]
            fraction_pivot(rows, r, col)
            pivots.append(col)
    return np.array(rows, dtype=object).reshape(m.shape), pivots


def fraction_max_margin(
    normals: np.ndarray, v: np.ndarray, trace: list | None = None
) -> tuple[list[Fraction], Fraction, int]:
    """(lambda, s*, rank N) for max s s.t. N lambda = -v, lambda >= s 1,
    s <= 1, posed on the rows `fraction_rref` selects and solved on a
    tableau of Fractions: `geometry._max_margin`'s LP.  `trace` is passed
    to `fraction_simplex`."""
    n = np.frompyfunc(Fraction, 1, 1)(normals)
    m = n.shape[1]
    _, rows = fraction_rref(n.T)
    a, b = [], []
    for r in rows:
        row_sum = sum(n[r], Fraction(0))
        a.append(list(n[r]) + [-row_sum])
        b.append(-Fraction(v[r]) - row_sum)
    x = fraction_simplex(a, b, [Fraction(0)] * m + [Fraction(1)], trace)
    s = 1 - x[m]
    return [mu + s for mu in x[:m]], s, len(rows)


def fraction_simplex(a: list[list], b: list, c: list, trace: list | None = None) -> list[Fraction]:
    """A minimiser of c.x subject to a x = b, x >= 0 (rows of a independent,
    the LP feasible and bounded): two-phase tableau method on Fractions with
    Bland's rule (lowest index enters, ratio ties leave by lowest basic
    index).  Each pivot's (row, entering column) is appended to `trace`
    when one is given."""
    if trace is None:
        trace = []
    zero, one = Fraction(0), Fraction(1)
    n_rows, n_cols = len(a), len(c)
    tab = []
    for i, (row, bi) in enumerate(zip(a, b)):
        sign = -1 if bi < 0 else 1
        unit = [one if k == i else zero for k in range(n_rows)]
        tab.append([sign * Fraction(v) for v in row] + unit + [sign * Fraction(bi)])
    basis = list(range(n_cols, n_cols + n_rows))
    _fraction_optimise(tab, basis, [zero] * n_cols + [one] * n_rows, trace)
    for i, j in enumerate(basis):
        if j < n_cols:
            continue
        assert tab[i][-1] == 0, "phase 1 found no feasible point"
        basis[i] = next(k for k in range(n_cols) if tab[i][k] != 0)
        trace.append((i, basis[i]))
        fraction_pivot(tab, i, basis[i])
    for row in tab:
        del row[n_cols:n_cols + n_rows]
    _fraction_optimise(tab, basis, [Fraction(v) for v in c], trace)
    x = [zero] * n_cols
    for i, j in enumerate(basis):
        x[j] = tab[i][-1]
    return x


def _fraction_optimise(tab: list[list], basis: list[int], cost: list, trace: list) -> None:
    """Pivot a feasible tableau to a minimum of cost.x by Bland's rule,
    appending each pivot's (row, entering column) to `trace`."""
    reduced = cost + [Fraction(0)]
    for i, j in enumerate(basis):
        if reduced[j] != 0:
            f = reduced[j]
            reduced = [r - f * t for r, t in zip(reduced, tab[i])]
    rows = tab + [reduced]
    while True:
        k = next((k for k in range(len(cost)) if reduced[k] < 0), None)
        if k is None:
            return
        ratios = [
            (row[-1] / row[k], basis[i], i) for i, row in enumerate(tab) if row[k] > 0
        ]
        assert ratios, "LP is unbounded"
        i = min(ratios)[2]
        basis[i] = k
        trace.append((i, k))
        fraction_pivot(rows, i, k)


def fraction_polar_report(desc, f, trace: list | None = None) -> PolarReport:
    """`polar_interior_contains` with its LP solved by `fraction_max_margin`,
    which appends its pivots to `trace`."""
    solve = functools.partial(fraction_max_margin, trace=trace)
    with mock.patch.object(geometry, "_max_margin", solve):
        return geometry.polar_interior_contains(desc, f)


def cycle_laplacian(g: LabeledDigraph, cycle: Cycle) -> np.ndarray:
    """Unit-label Laplacian of a cycle, embedded in the full vertex space."""
    n = g.n_vertices
    a = np.zeros((n, n), dtype=object)
    for (s, d) in cycle.edges:
        a[g.index[d], g.index[s]] = 1
        a[g.index[s], g.index[s]] = -1
    return a


def cycle_reconstruction(g: LabeledDigraph, dec: CycleDecomposition) -> np.ndarray:
    """Sum of the weighted cycle Laplacians (should equal A_k diag K_k)."""
    n = g.n_vertices
    total = np.zeros((n, n), dtype=object)
    for cycle, coeff in dec.terms:
        total = total + coeff * cycle_laplacian(g, cycle)
    if not g.exact:
        total = np.asarray(total, dtype=float)
    return total


def brute_sccs(vertex_ids, edges):
    """SCCs via transitive closure (Floyd-Warshall on booleans)."""
    ids = list(vertex_ids)
    n = len(ids)
    idx = {v: i for i, v in enumerate(ids)}
    reach = [[i == j for j in range(n)] for i in range(n)]
    for (s, d) in edges:
        reach[idx[s]][idx[d]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    comps = []
    assigned = set()
    for i in range(n):
        if i in assigned:
            continue
        comp = {ids[j] for j in range(n) if reach[i][j] and reach[j][i]}
        comps.append(comp)
        assigned |= {idx[v] for v in comp}
    comps.sort(key=min)
    return comps


def brute_arborescences(g, root):
    """All spanning in-trees rooted at `root` by subset enumeration."""
    root = str(root)
    comp = g.scc_partition[g.component_index[root]]
    comp_edges = [(s, d) for (s, d) in g.edges if s in comp and d in comp]
    m = len(comp)
    found = set()
    for subset in itertools.combinations(comp_edges, m - 1):
        sources = [s for (s, _) in subset]
        if sorted(sources) != sorted(v for v in comp if v != root):
            continue
        succ = dict(subset)
        ok = True
        for v in succ:
            seen = set()
            w = v
            while w in succ:
                if w in seen:
                    ok = False
                    break
                seen.add(w)
                w = succ[w]
            if not ok:
                break
        if ok:
            found.add(frozenset(subset))
    return found


def gth_tree_constants(g) -> np.ndarray:
    """Exact tree constants by Grassmann-Taksar-Heyman state reduction on
    Fractions, one block per component: censor vertices from last to first
    (pivot s_k, k's remaining out-rate; each path i->k->j adds
    w[i][k] w[k][j] / s_k to w[i][j]), then K_0 = prod s_k and
    K_k = sum_{i<k} K_i w[i][k] / s_k."""
    values = np.empty(g.n_vertices, dtype=object)
    for ci in range(g.n_components):
        verts = g.component_vertices(ci)
        n = len(verts)
        pos = {v: i for i, v in enumerate(verts)}
        w = [[Fraction(0)] * n for _ in verts]
        for (s, d) in g.component_edges(ci):
            w[pos[s]][pos[d]] = Fraction(g.labels[(s, d)])
        pivots = [Fraction(1)] * n
        for k in range(n - 1, 0, -1):
            pivots[k] = sum(w[k][:k])
            for i in range(k):
                if w[i][k]:
                    f = w[i][k] / pivots[k]
                    for j in range(k):
                        w[i][j] += f * w[k][j]
        consts = [prod(pivots)]
        for k in range(1, n):
            consts.append(sum(consts[i] * w[i][k] for i in range(k)) / pivots[k])
        for v, k in zip(verts, consts):
            values[g.index[v]] = k
    return values


def det(m: np.ndarray) -> Fraction:
    """Determinant by Gaussian elimination on Fractions with row swaps."""
    n = m.shape[0]
    if n != m.shape[1]:
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return exact.ONE
    a = m.astype(object, copy=True)
    sign = 1
    result = exact.ONE
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if a[i, col] != 0:
                pivot = i
                break
        if pivot is None:
            return exact.ZERO
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            sign = -sign
        p = Fraction(a[col, col])
        result *= p
        for i in range(col + 1, n):
            if a[i, col] != 0:
                a[i, col:] = a[i, col:] - (a[i, col] / p) * a[col, col:]
    return sign * result


def kirchhoff_minors(g):
    """Exact tree constants as principal minors of -A_k, one cofactor
    determinant per vertex (matrix-tree theorem)."""
    from crnlap.laplacian import laplacian_matrix

    neg_a = -laplacian_matrix(g)
    values = np.empty(g.n_vertices, dtype=object)
    for ci in range(g.n_components):
        idx = [g.index[v] for v in g.component_vertices(ci)]
        for i in idx:
            keep = [j for j in idx if j != i]
            values[i] = det(neg_a[np.ix_(keep, keep)])
    return values


def forest_cycle_coefficient(g, cycle):
    """Cycle coefficient by backtracking: the sum, over the subgraphs in
    which the cycle is the only cycle and every vertex of its component has
    out-degree one, of edge-label products."""
    on_cycle = set(cycle.vertex_seq)
    ci = g.component_index[cycle.vertex_seq[0]]
    comp = g.scc_partition[ci]
    free = [v for v in g.component_vertices(ci) if v not in on_cycle]
    choices = {
        v: [(v, d) for (s, d) in g.edges if s == v and d in comp] for v in free
    }
    base = Fraction(1)
    for e in cycle.edges:
        base *= g.labels[e]
    total = Fraction(0)

    def reaches_cycle(succ, start):
        seen = set()
        v = start
        while v in succ:
            if v in seen:
                return False
            seen.add(v)
            v = succ[v]
        return v in on_cycle

    def extend(i, succ, prod):
        nonlocal total
        if i == len(free):
            if all(reaches_cycle(succ, v) for v in free):
                total += prod
            return
        v = free[i]
        for (s, d) in choices[v]:
            succ[v] = d
            extend(i + 1, succ, prod * g.labels[(s, d)])
            del succ[v]

    extend(0, {}, base)
    return total


def brute_cycles(g):
    """All directed simple cycles as frozensets of edges, via path DFS."""
    out = {v: [d for (s, d) in g.edges if s == v] for v in g.vertex_ids}
    found = set()

    def walk(start, v, path):
        for d in out[v]:
            if d == start:
                found.add(frozenset(zip(path, path[1:] + [start])))
            elif d not in path:
                walk(start, d, path + [d])

    for v in g.vertex_ids:
        walk(v, v, [v])
    return found


def reference_enumerate_cycles(g) -> list[Cycle]:
    """The simple cycles by the walk as it was before it carried labels and
    a vertex mask: a visited set, and a position test against the start."""
    order = sorted(g.vertex_ids)
    pos = {v: i for i, v in enumerate(order)}
    out = {v: [] for v in order}
    for s, d in sorted(g.edges):
        out[s].append(d)
    cycles = []

    def walk(start, v, path, visited):
        for d in out[v]:
            if d == start:
                cycles.append(Cycle(tuple(path)))
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


def reference_cycle_decomposition(g) -> CycleDecomposition:
    """The cycle decomposition as a second pass over the listed cycles, as
    it was before one walk formed each coefficient: per cycle, the minor
    off it (keyed on its vertex set) of the block in which one index stands
    for the whole cycle, then the label product in vertex-sequence order.
    The minor is `det` on that block, with the labels scaled to ints per
    component.  A float graph's terms are those of its copy with each label
    a Fraction of the same value, each rounded once, and refused unless
    every one lies in the normal float64 range."""
    if not g.exact:
        exact_copy = LabeledDigraph(
            g.vertex_ids, [(s, d, Fraction(k)) for (s, d), k in g.labels.items()]
        )
        terms = reference_cycle_decomposition(exact_copy).terms
        if not all(sys.float_info.min <= lam <= sys.float_info.max for _, lam in terms):
            raise FloatRangeError("float cycle coefficients leave the float64 range")
        return CycleDecomposition(terms=tuple((c, float(lam)) for c, lam in terms))
    if not g.has_strongly_connected_components():
        raise NotStronglyConnectedError("graph has edges between strongly connected components")
    dens = [1] * g.n_components
    for (v, _), k in g.labels.items():
        ci = g.component_index[v]
        dens[ci] = lcm(dens[ci], k.denominator)
    labels = {e: int(k * dens[g.component_index[e[0]]]) for e, k in g.labels.items()}
    out = {v: {} for v in g.vertex_ids}
    for (v, d), k in labels.items():
        out[v][d] = k
    minors, terms = {}, []
    for cycle in reference_enumerate_cycles(g):
        seq = cycle.vertex_seq
        ci = g.component_index[seq[0]]
        on_cycle = frozenset(seq)
        minor = minors.get(on_cycle)
        if minor is None:
            free = [v for v in g.component_vertices(ci) if v not in on_cycle]
            pos = {v: i for i, v in enumerate(free, start=1)}
            w = [[0] * (len(free) + 1) for _ in range(len(free) + 1)]
            for v, i in pos.items():
                for d, k in out[v].items():
                    w[i][pos.get(d, 0)] += k
            idx = range(1, len(w))
            block = [[sum(w[i]) if i == j else -w[i][j] for j in idx] for i in idx]
            minor = int(det(np.array(block, dtype=object).reshape(len(free), len(free))))
            minors[on_cycle] = minor
        coeff = minor
        for a, b in zip(seq, seq[1:] + seq[:1]):
            coeff *= out[a][b]
        terms.append((cycle, Fraction(coeff, dens[ci] ** len(g.scc_partition[ci]))))
    return CycleDecomposition(terms=tuple(terms))


def incidence_matrices(g) -> tuple[np.ndarray, np.ndarray]:
    """(incidence, source) matrices, V x E, columns in edge declaration order.

    Entries are exact integers in object arrays so they compose with both
    rational and float arithmetic downstream.
    """
    n, m = g.n_vertices, g.n_edges
    inc = np.zeros((n, m), dtype=object)
    src = np.zeros((n, m), dtype=object)
    for j, (s, d) in enumerate(g.edges):
        inc[g.index[s], j] = -1
        inc[g.index[d], j] = 1
        src[g.index[s], j] = 1
    return inc, src


def aux_incidence(g, aux) -> np.ndarray:
    """Incidence matrix of an auxiliary tree, V x |aux.edges|."""
    n = g.n_vertices
    inc = np.zeros((n, len(aux.edges)), dtype=object)
    for j, (s, d) in enumerate(aux.edges):
        inc[g.index[s], j] = -1
        inc[g.index[d], j] = 1
    return inc


def elimination_left_inverse(g, aux):
    """Exact L with L @ I_aux = -Identity, one Gaussian elimination per
    aux edge; rows are `solve`'s particular solutions, which are in
    general not the 0/1 tree cuts the library uses."""
    inc = aux_incidence(g, aux)
    m = len(aux.edges)
    left = np.zeros((m, g.n_vertices), dtype=object)
    for r in range(m):
        rhs = np.zeros(m, dtype=object)
        rhs[r] = Fraction(-1)
        row = solve(inc.T.astype(object), rhs)
        assert row is not None, "aux incidence matrix is rank deficient"
        left[r, :] = row
    return left


def tree_cut_core(g, aux, consts):
    """The core as the dense triple product -J (A_k diag K) J.T, where row
    (a->b) of J is the 0/1 indicator of a's side of the aux tree with that
    edge removed (J @ I_aux = -Identity); object dtype in exact mode."""
    from crnlap.laplacian import laplacian_matrix

    dtype = object if g.exact else float
    neighbours = {v: [] for v in g.vertex_ids}
    for r, (a, b) in enumerate(aux.edges):
        neighbours[a].append((b, r))
        neighbours[b].append((a, r))
    j = np.zeros((len(aux.edges), g.n_vertices), dtype=dtype)
    for r, (a, _) in enumerate(aux.edges):
        side, stack = {a}, [a]
        while stack:
            v = stack.pop()
            j[r, g.index[v]] = 1
            for w, e in neighbours[v]:
                if e != r and w not in side:
                    side.add(w)
                    stack.append(w)
    m = laplacian_matrix(g) * np.asarray(consts.values, dtype=dtype)[np.newaxis, :]
    return -(j @ m @ j.T)


def edge_sum_rhs(net, x, exact_mode: bool):
    """f_k(x) as the plain sum over reactions k x^{y(src)} (y(dst)-y(src))."""
    g = net.graph
    y = net.complexes
    n = net.n_species
    if exact_mode:
        total = np.array([Fraction(0)] * n, dtype=object)
        xv = [Fraction(v) for v in x]
        for (s, d) in g.edges:
            js, jd = g.index[s], g.index[d]
            mono = Fraction(1)
            for i in range(n):
                e = int(y[i, js])
                if e:
                    mono *= xv[i] ** e
            rate = Fraction(g.labels[(s, d)]) * mono
            for i in range(n):
                total[i] += rate * (Fraction(y[i, jd]) - Fraction(y[i, js]))
        return total
    total = np.zeros(n)
    xf = np.asarray([float(v) for v in x])
    yf = np.asarray(y, dtype=float)
    for (s, d) in g.edges:
        js, jd = g.index[s], g.index[d]
        mono = float(np.prod(xf ** yf[:, js]))
        total += float(g.labels[(s, d)]) * mono * (yf[:, jd] - yf[:, js])
    return total


def dense_rhs(net, x) -> np.ndarray:
    """f_k(x) = Y (A_k x^Y) with the dense n x n Laplacian."""
    mono = evaluate(net, x).monomials
    y, a, mono = exact.common(net.complexes, laplacian_matrix(net.graph), mono)
    return y @ (a @ mono)


def dense_balance(net, x):
    """(max |A_k x^Y|, max off-diagonal A_k[d, s] x^{y(s)}): the complex-balance
    residual and the largest edge flow, read off the dense Laplacian."""
    a, mono = exact.common(laplacian_matrix(net.graph), evaluate(net, x).monomials)
    n = len(mono)
    flows = [a[d, s] * mono[s] for d in range(n) for s in range(n) if d != s and a[d, s]]
    return max(np.abs(a @ mono), default=0), max(flows, default=0)


def primitive(vec: np.ndarray) -> np.ndarray:
    """Scale a rational vector to coprime integers, preserving direction."""
    fracs = [Fraction(v) for v in vec]
    denom = 1
    for f in fracs:
        denom = lcm(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return np.array([Fraction(v) for v in ints], dtype=object)


def rays_by_facet_subsets(normals):
    """Extreme rays of {z : normals.T z >= 0} modulo lineality.

    Enumerates (r-1)-subsets of normals, solves for the one-dimensional
    direction inside span(normals), and sign-checks; exact arithmetic.
    """
    n, m = normals.shape
    if m == 0:
        return set()
    r = rank(normals)
    if r == 0:
        return set()
    basis = column_space(normals)
    a = normals.T @ basis  # m x r
    rays = set()
    for subset in itertools.combinations(range(m), r - 1):
        sub = a[list(subset), :] if subset else np.zeros((0, r), dtype=object)
        if rank(sub) != r - 1:
            continue
        null = exact.nullspace(sub)
        if null.shape[1] != 1:
            continue
        for sign in (1, -1):
            c = sign * null[:, 0]
            prods = a @ c
            if all(v >= 0 for v in prods) and any(v > 0 for v in prods):
                tight = [i for i in range(m) if prods[i] == 0]
                sub_t = a[tight, :] if tight else np.zeros((0, r), dtype=object)
                if rank(sub_t) == r - 1:
                    z = primitive(basis @ c)
                    rays.add(tuple(z))
    return rays


def polar_interior_by_rays(desc, f) -> bool:
    """Polar-cone interior by sign checks: f . w = 0 on the lineality space
    and f . r < 0 on every extreme ray, both at the library's relative
    tolerances, with the rays from `rays_by_facet_subsets`."""
    fv = np.asarray(f, dtype=float)
    f_scale = float(np.max(np.abs(fv))) if fv.size else 0.0
    lin = np.asarray(desc.lineality_basis, dtype=float)
    for j in range(lin.shape[1]):
        w = lin[:, j]
        if abs(float(fv @ w)) > POLAR_LINEALITY_RTOL * f_scale * float(np.max(np.abs(w))):
            return False
    normals = np.frompyfunc(Fraction, 1, 1)(desc.facet_normals)
    for ray in rays_by_facet_subsets(normals):
        r = np.asarray(ray, dtype=float)
        if not float(fv @ r) < -POLAR_STRICT_RTOL * f_scale * float(np.max(np.abs(r))):
            return False
    return True


def tie_chain_orders(net, x) -> list:
    """Every chain tree whose stratum contains x: all permutations of each
    tie group of `evaluation_order`, in every component, with no cap."""
    per_component = [
        [
            list(itertools.chain.from_iterable(perms))
            for perms in itertools.product(*(itertools.permutations(grp) for grp in groups))
        ]
        for groups in evaluation_order(net, x)
    ]
    return [
        make_aux_tree(net.graph, "chain", list(combo))
        for combo in itertools.product(*per_component)
    ]


def bdi_member_by_orders(net, x, v) -> bool:
    """Inclusion membership off the equilibrium manifold, order by order:
    v lies in the polar-cone interior of every chain order at x."""
    vv = np.asarray(v, dtype=float)
    return all(
        polar_interior_contains(region_constraints(net, aux, "cone"), vv).contains
        for aux in tie_chain_orders(net, x)
    )


def cbe_feasible_multistart(net, tries: int = 24, seed: int = 0) -> bool:
    """Decide CBE existence by multi-start minimization of the squared
    binomial residual in log coordinates (scipy, Nelder-Mead + BFGS)."""
    from scipy.optimize import minimize

    from crnlap.graph import default_chain_aux

    g = net.graph
    aux = default_chain_aux(g)
    inc = np.asarray(aux_incidence(g, aux), dtype=float)
    if inc.shape[1] == 0:
        return True
    yf = np.asarray(net.complexes, dtype=float)
    k_ln = np.log(net.tree_constants().as_float())

    def objective(z):
        w = yf.T @ z - k_ln  # log of x^Y / K per vertex
        return float(np.sum((inc.T @ w) ** 2))

    rng = np.random.default_rng(seed)
    best = np.inf
    for t in range(tries):
        z0 = np.zeros(net.n_species) if t == 0 else rng.normal(scale=2.0, size=net.n_species)
        res = minimize(objective, z0, method="BFGS")
        res2 = minimize(objective, res.x, method="Nelder-Mead")
        best = min(best, float(res.fun), float(res2.fun))
        if best < 1e-18:
            return True
    return best < 1e-14


def fd_gradient(fn, x, h: float = 1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return grad


def reference_simulate(
    net, x0, t_end: float, rtol: float = 1e-8, atol: float = 1e-10, x_star=None,
    max_steps: int = 200_000,
) -> Trajectory:
    """Cash-Karp 5(4) with every stage evaluated on every attempt: the same
    pair, controller and positivity guard as `simulate`."""
    if not 0 < t_end < np.inf:
        raise SemanticError(f"t_end must be finite and positive, got {t_end!r}")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0 <= tol < np.inf:
            raise SemanticError(f"{name} must be finite and >= 0, got {tol!r}")
    if rtol == atol == 0:
        raise SemanticError("rtol and atol must not both be 0")
    x = np.asarray(check_state(x0, net.n_species), dtype=float)
    nf = np.asarray(net.reactions, dtype=float)
    kf = np.asarray(net.rates, dtype=float)
    yt = np.asarray(net.complexes, dtype=float)[:, net.tails].T

    def rhs(state: np.ndarray) -> np.ndarray:
        return nf @ (kf * np.exp(yt @ np.log(state)))

    xs = None
    if x_star is not None:
        xs = np.asarray(check_state(x_star, net.n_species), dtype=float)
    elif net.is_weakly_reversible():
        sol = solve_cbe(net)
        if sol.status == "found":
            xs = sol.witness

    times = [0.0]
    states = [x.copy()]
    lyapunov = [float(_lyapunov(x, xs))] if xs is not None else None
    t = 0.0
    h = min(t_end, max(1e-6, t_end * 1e-3))
    h_min = 1e-14 * max(t_end, 1.0)
    accepted = rejected = 0
    k = np.zeros((6, x.size))
    for _ in range(max_steps):
        if t >= t_end:
            break
        h = min(h, t_end - t)
        if h < h_min:
            raise StepSizeUnderflowError(f"step size underflow at t={t:.6g}")
        for i in range(6):
            xi = x + h * (_CK_A[i, :i] @ k[:i])
            if np.any(xi <= 0.0):
                x5 = xi
                break
            k[i] = rhs(xi)
        else:
            x5 = x + h * (_CK_B5 @ k)
        if not np.all(x5 > 0.0):
            rejected += 1
            h /= 2
            continue
        err = float(np.max(np.abs(h * (_CK_E @ k)) / (atol + rtol * np.maximum(x, x5))))
        if err <= 1.0:
            t += h
            x = x5
            accepted += 1
            times.append(t)
            states.append(x.copy())
            if lyapunov is not None:
                lyapunov.append(float(_lyapunov(x, xs)))
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            rejected += 1
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
    else:
        raise StepSizeUnderflowError(f"max_steps={max_steps} exhausted at t={t:.6g}")
    return Trajectory(
        times=times, states=states, lyapunov=lyapunov, accepted=accepted, rejected=rejected
    )


# -- the evaluation path with each state evaluated on every call ---------------


def reference_monomials(net, x) -> np.ndarray:
    """x^Y, exact for rational x and integer Y, checked and formed anew."""
    xv = check_state(x, net.n_species)
    yf = net.floats.complexes
    if exact.is_exact(xv) and net.integer_y:
        out = np.empty(net.graph.n_vertices, dtype=object)
        for i in range(net.graph.n_vertices):
            p = Fraction(1)
            for j in range(net.n_species):
                e = int(net.complexes[j, i])
                if e:
                    p *= Fraction(xv[j]) ** e
            out[i] = p
        if max(out, default=0) > sys.float_info.max:
            raise FloatRangeError("an exact monomial exceeds the float64 range")
        return out
    return np.exp(yf.T @ np.log(np.asarray(xv, dtype=float)))


def reference_flows(net, x) -> np.ndarray:
    mono = reference_monomials(net, x)
    if exact.is_exact(mono) and net.graph.exact:
        return net.rates * mono[net.tails]
    return net.floats.rates * np.asarray(mono, dtype=float)[net.tails]


def reference_scaled(net, x) -> np.ndarray:
    consts = net.tree_constants()
    mono = reference_monomials(net, x)
    if exact.is_exact(mono) and net.graph.exact:
        return mono / consts.values
    return np.asarray(mono, dtype=float) / consts.as_float()


def reference_is_cbe(net, x, tol=None) -> CbeCheck:
    with np.errstate(over="ignore", invalid="ignore"):
        flows = reference_flows(net, x)
        balance = np.zeros(net.graph.n_vertices, dtype=flows.dtype)
        np.add.at(balance, net.heads, flows)
        np.subtract.at(balance, net.tails, flows)
        residual = np.max(np.abs(balance), initial=0)
        scale = np.max(flows, initial=0)
    residual_f = exact.to_float(residual, "the complex-balance residual")
    scale_f = exact.to_float(scale, "the largest edge flow")
    balanced = residual <= exact.tolerance(flows, CBE_RTOL, lambda: scale, tol)
    return CbeCheck(bool(balanced), residual_f, scale_f)


def reference_require_cbe(net, x_star) -> np.ndarray:
    xs = check_state(x_star, net.n_species)
    if not reference_is_cbe(net, x_star).balanced:
        raise NotACbeError("x_star is not a complex-balanced equilibrium")
    return np.asarray(xs, dtype=float)


def reference_evaluation_order(net, x) -> list:
    net.require_weakly_reversible()
    values = reference_scaled(net, x)
    g = net.graph
    orders = []
    for ci in range(g.n_components):
        groups: list[list[str]] = []
        for v in sorted(g.component_vertices(ci), key=lambda v: (values[g.index[v]], v)):
            if groups and geometry._tied(values, g.index[groups[-1][-1]], g.index[v]):
                groups[-1].append(v)
            else:
                groups.append([v])
        orders.append(groups)
    return orders


def reference_certificate(net, x, x_star) -> StabilityCertificate:
    """The certificate edge by edge: b_j = s_b - s_a on the scaled monomials
    (exact for an exact state), a_j = log1p(b_j / s_a), or the aux edge's row
    of (Y I_aux).T (ln x - ln x*) where that ratio is not a finite float, and
    the first edge with b_j beyond the limit (0 on exact s) as witness."""
    xs = reference_require_cbe(net, x_star)
    xv = np.asarray(check_state(x, net.n_species), dtype=float)
    chains = [[v for grp in groups for v in grp] for groups in reference_evaluation_order(net, x)]
    aux = make_aux_tree(net.graph, "chain", chains)
    dec = core_matrix(net.graph, aux, consts=net.tree_constants())
    core = np.asarray(dec.core, dtype=float)
    scaled = reference_scaled(net, x)
    limit = 0 if exact.is_exact(scaled) else SIGN_RTOL * max(scaled)
    yf = net.floats.complexes
    a, b, far, witness = [], [], [], None
    for j, (t, h) in enumerate(aux.edges):
        s_a, s_b = scaled[net.graph.index[t]], scaled[net.graph.index[h]]
        if witness is None and s_b - s_a > limit:
            witness = (t, h)
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = float((s_b - s_a) / s_a)
        except OverflowError:  # an exact ratio beyond float64
            ratio = math.inf
        a.append(np.log1p(ratio) if math.isfinite(ratio) else math.nan)
        b.append(float(s_b - s_a))
        if not math.isfinite(ratio):
            far.append(j)
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    if far:
        tails, heads = edge_ends(net.graph, aux.edges)
        z = np.log(xv) - np.log(xs)
        a[far] = ((yf[:, heads] - yf[:, tails]).T @ z)[far]
    value = float(-(a @ core @ b)) if a.size else 0.0
    if witness is None:
        verdict = "equilibrium"
    else:
        verdict = "strict_decrease" if value < 0 else "failure"
    return StabilityCertificate(
        aux=aux, a=a, b=b, core=core, value=value, verdict=verdict, witness_edge=witness
    )


def reference_bdi_report(net, x, v, tol=None) -> BdiReport:
    exact_v = not any(isinstance(t, float) for t in v)
    vv = np.array([Fraction(t) for t in v], dtype=object) if exact_v else np.asarray(v, dtype=float)
    if vv.shape != (net.n_species,) or not np.all(np.isfinite(vv.astype(float))):
        raise ShapeMismatchError(f"v must have {net.n_species} finite entries")
    if reference_is_cbe(net, x, tol=tol).balanced:
        largest = max((abs(t) for t in vv), default=0)
        member = largest == 0 if exact_v else bool(largest <= MANIFOLD_V_TOL)
        return BdiReport(on_manifold=True, member=member, cone=None)
    edges = tuple(
        (i, j) for groups in reference_evaluation_order(net, x)
        for lower, upper in zip(groups, groups[1:]) for i in lower for j in upper
    )
    desc = geometry._edge_cone(net, edges)
    polar = polar_interior_contains(desc, vv)
    return BdiReport(on_manifold=False, member=polar.contains, cone=(desc.edges, polar))


def reference_birch(net, x_star, x_prime) -> np.ndarray:
    """`birch_intersect` with x* checked by `reference_require_cbe`."""
    with mock.patch.object(equilibria, "require_cbe", reference_require_cbe):
        return equilibria.birch_intersect(net, x_star, x_prime)
