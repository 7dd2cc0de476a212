"""Monomial evaluation orders, strata, cones, polar membership.

For a weakly reversible network, a chain auxiliary tree encodes an order on
the scaled monomials x^{y(i)}/K_i within each component.  The positive
states realizing that order form a stratum; in log coordinates the stratum
is a polyhedron offset by ln(K_b / K_a) (`ReactionNetwork._log_ratios`),
and a cone C = {z : N.T z >= 0} (N = Y I_E for the tree's edges E, gathered
as Y[:, heads] - Y[:, tails] by `graph.edge_ends`) when a complex-balanced
equilibrium exists.  By Farkas' lemma the polar cone of C is {-N lambda :
lambda >= 0}, so polar-interior membership is a sign check against the
lineality space, a rank check and one exact linear program.

A state whose scaled monomials tie lies in every stratum that breaks the
ties.  Their cones' union is one cone (`evaluation_cone`), whose polar is
the intersection of theirs, so one linear program decides for all of them.
The evaluation order is the one place where two scaled monomials of a state
are compared (`_tied`, per component); strata, cones and certificates read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .exact import ONE, ZERO
from .crn import ReactionNetwork, State, evaluate, mass_action_rhs
from .errors import FloatRangeError, InvalidAuxTreeError, PointNotInStratumError
from .graph import AuxTree, Edge, edge_ends, validate_aux_tree

TIE_RTOL = 1e-12
POLAR_LINEALITY_RTOL = 1e-10
POLAR_STRICT_RTOL = 1e-12


def evaluation_order(net: ReactionNetwork, x) -> list[list[list[str]]]:
    """Per component, the tie groups of x^{y(i)}/K_i in ascending order.

    Vertices are sorted by value; a vertex joins the previous group when its
    value ties with that group's last one, and each group is sorted by id.
    """
    return [[list(grp) for grp in groups] for groups in _order(evaluate(net, x))]


def _order(state: State) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """`evaluation_order` as tuples, formed once per State and kept on it."""
    return state.kept("_evaluation_order", _form_order)


def _form_order(state: State) -> tuple[tuple[tuple[str, ...], ...], ...]:
    values, g = state.scaled, state.net.graph
    keys = dict(zip(g.vertex_ids, values.tolist()))  # Python numbers sort faster
    orders = []
    for ci in range(g.n_components):
        groups: list[list[str]] = []
        for v in sorted(g.component_vertices(ci), key=lambda v: (keys[v], v)):
            if groups and _tied(values, g.index[groups[-1][-1]], g.index[v]):
                groups[-1].append(v)
            else:
                groups.append([v])
        orders.append(tuple(tuple(sorted(grp)) for grp in groups))
    return tuple(orders)


def monomial_order(net: ReactionNetwork, x) -> AuxTree:
    """Chain tree sorting each component by x^{y(i)}/K_i, ties by vertex id.
    Each chain orders one component, in component order, so the tree is
    the one `make_aux_tree` builds from them, with no check to repeat."""
    chains = [[v for grp in groups for v in grp] for groups in _order(evaluate(net, x))]
    return AuxTree(tuple(e for c in chains for e in zip(c, c[1:])), "chain")


def stratum_contains(net: ReactionNetwork, aux: AuxTree, x) -> bool:
    """True when no aux edge a -> b has a in a higher tie group than b at x."""
    validate_aux_tree(net.graph, aux)
    rank = {v: i for grps in _order(evaluate(net, x)) for i, grp in enumerate(grps) for v in grp}
    return all(rank[a] <= rank[b] for a, b in aux.edges)


@dataclass
class ConeDescription:
    """H-description of a stratum's cone (or polyhedron) in log coordinates.

    `facet_normals` holds the columns of Y I_E for the edges (a, b) in
    `edges` (inequalities normals.T z >= offset); the lineality space
    contains the orthogonal complement of the stoichiometric subspace, and
    equals it when the normals span that subspace.
    """

    edges: tuple[Edge, ...]
    mode: str  # "cone" | "polyhedron"
    facet_normals: np.ndarray  # n x |edges|
    offset: np.ndarray
    lineality_basis: np.ndarray


def region_constraints(net: ReactionNetwork, aux: AuxTree, mode: str) -> ConeDescription:
    """Cone (homogeneous) or polyhedron (offset by ln(K_b / K_a) on the
    aux edges a -> b, each exact ratio rounded once) for an aux tree.

    Cones are rate-constant free: x is in the stratum iff ln(x/x_star) is
    in the cone, for any complex-balanced equilibrium x_star.
    """
    if mode not in ("cone", "polyhedron"):
        raise ValueError(f"unknown mode {mode!r}")
    net.require_weakly_reversible()
    validate_aux_tree(net.graph, aux)
    desc = _edge_cone(net, aux.edges)
    if mode == "polyhedron":
        desc.mode, desc.offset = mode, net._log_ratios(*edge_ends(net.graph, aux.edges))
    return desc


def evaluation_cone(net: ReactionNetwork, x) -> ConeDescription:
    """The union of the cones of every chain order that breaks x's ties: an
    edge from each vertex of a tie group (`evaluation_order`) to each vertex
    of the next.  With no ties it is the cone of `monomial_order(net, x)`."""
    edges = tuple(
        (i, j) for groups in _order(evaluate(net, x))
        for lower, upper in zip(groups, groups[1:]) for i in lower for j in upper
    )
    return _edge_cone(net, edges)


def _edge_cone(net: ReactionNetwork, edges: tuple[Edge, ...]) -> ConeDescription:
    """The cone N.T z >= 0 with N = Y I_E: column (a, b) is y(b) - y(a)."""
    tails, heads = edge_ends(net.graph, edges)
    normals = net.complexes[:, heads] - net.complexes[:, tails]
    return ConeDescription(edges, "cone", normals, np.zeros(len(edges)), net.sperp_basis)


@dataclass(frozen=True)
class PolarReport:
    """Polar-interior verdict with its Farkas certificate.

    `multipliers` is a lambda with -N lambda = f (N the facet normals), in
    `edges` order, and `margin` is min(lambda) for f scaled to max-norm 1,
    capped at 1.  `polar_interior_contains` reports the lambda of the
    largest margin, the LP optimum; for f = +-f_k(x) `stability.bdi_report`
    may report the paper's cut flows instead (see there).
    """

    contains: bool
    lineality_products: tuple[float, ...]
    multipliers: tuple[float, ...]
    margin: float


def polar_interior_contains(desc: ConeDescription, f) -> PolarReport:
    """Interior, relative to the stoichiometric subspace S, of the polar
    cone {-N lambda : lambda >= 0}.

    f . w = 0 on S-perp; N spans S, without which the interior is empty;
    and f = -N lambda for some lambda > 0: with v = f / |f|_inf, the exact
    LP max s s.t. N lambda = -v, lambda >= s 1, s <= 1 has s* > 0.  An f
    and S-perp basis that are both exact are compared with tolerance 0,
    otherwise with POLAR_LINEALITY_RTOL (relative to |f|_inf |w|_inf) and
    POLAR_STRICT_RTOL.  A lineality product or a multiplier scaled back to
    f that float64 cannot hold is refused (FloatRangeError).
    """
    fv, lin = exact.common(np.asarray(f), desc.lineality_basis)
    products, lineal, scale = _lineality(fv, lin)
    lam, margin, rank = _max_margin(desc.facet_normals, fv / scale)
    # in exact arithmetic rank N <= dim S; ">=" keeps a float Y whose
    # rounded differences are exactly independent from failing the check
    spans_s = rank >= desc.facet_normals.shape[0] - lin.shape[1]
    strict = margin > exact.tolerance(fv, POLAR_STRICT_RTOL, lambda: 1)
    return _report(lineal and spans_s and strict, products, [mu * scale for mu in lam], margin)


def _cut_flow_cone(
    net: ReactionNetwork, state: State, v: np.ndarray
) -> tuple[tuple[Edge, ...], PolarReport] | None:
    """`stability.bdi_report`'s cone and verdict from the cut flows
    (`_cut_flows`) where its docstring says they decide, else None."""
    try:
        f = mass_action_rhs(net, state)
    except FloatRangeError:  # a float f that overflows equals no finite v
        return None
    v_scale = max(map(abs, v.tolist()), default=0)
    sign = 0
    if v.dtype == f.dtype and v_scale:
        sign = 1 if np.array_equal(v, f) else -1 if np.array_equal(v, -f) else 0
    cut = _cut_flows(net, state) if sign else None
    if cut is None:
        return None
    edges, lam = cut
    if sign < 0 and not net.cbe_exists:
        return None
    if not min(lam) / v_scale > exact.tolerance(v, POLAR_STRICT_RTOL, lambda: 1):
        return None
    products = np.matmul(*exact.common(v, net.sperp_basis))  # f = N flows lies in S
    if sign > 0:
        return edges, _report(True, products, lam, min(min(lam) / v_scale, 1))
    return edges, _report(False, products, [-mu for mu in lam], -max(lam) / v_scale)


def _cut_flows(net: ReactionNetwork, state: State) -> tuple[tuple[Edge, ...], list] | None:
    """(edges, lambda) for the chains of x's evaluation order, None at a
    tie: lambda_i = sum of `State.balance` (A_k x^Y) over a_1, ..., a_i for
    the edge a_i -> a_(i+1), so I_aux lambda = -A_k x^Y (I_aux's column for
    a -> b is e_b - e_a) and Y I_aux lambda = -f_k(x).  Exact when the
    flows are.  Formed once per State and kept on it (`State.kept`)."""
    return state.kept("_cut_flows", _form_cut_flows)


def _form_cut_flows(state: State) -> tuple[tuple[Edge, ...], list] | None:
    g, index = state.balance.tolist(), state.net.graph.index
    edges, lam = [], []
    for groups in _order(state):
        if any(len(grp) > 1 for grp in groups):
            return None
        flow = 0
        for (a,), (b,) in zip(groups, groups[1:]):
            flow += g[index[a]]
            edges.append((a, b))
            lam.append(flow)
    return tuple(edges), lam


def _lineality(fv: np.ndarray, lin: np.ndarray) -> tuple[np.ndarray, bool, object]:
    """(products, lineal, scale): f . w over the S-perp basis, whether each
    vanishes (within POLAR_LINEALITY_RTOL times |f|_inf |w|_inf on floats),
    and |f|_inf, or 1 for f = 0."""
    f_scale = max(map(abs, fv.tolist()), default=0)  # a Python number: cheap products below
    products = fv @ lin
    lineal = all(
        abs(p) <= exact.tolerance(products, POLAR_LINEALITY_RTOL, lambda: f_scale * max(abs(w)))
        for p, w in zip(products, lin.T)
    )
    return products, lineal, f_scale if f_scale > 0 else 1


def _report(contains: bool, products, multipliers, margin) -> PolarReport:
    """The PolarReport as floats; a lineality product or multiplier that
    float64 cannot hold is refused (FloatRangeError)."""
    what = "a lineality product or Farkas multiplier scaled back to f"
    return PolarReport(
        contains=contains,
        lineality_products=tuple(exact.to_float(p, what) for p in products),
        multipliers=tuple(exact.to_float(mu, what) for mu in multipliers),
        margin=float(margin),
    )


def _max_margin(normals: np.ndarray, v: np.ndarray) -> tuple[list[Fraction], Fraction, int]:
    """(lambda, s*, rank N) for max s s.t. N lambda = -v, lambda >= s 1, s <= 1.

    The equations are posed on a maximal independent set of rows of N, so a
    float v that lies in im N only up to rounding keeps the LP feasible.
    With lambda = mu + (1 - t) 1 and mu, t >= 0 it is min t in standard form.
    """
    m = normals.shape[1]
    selected = exact.rref(normals.T)[2]
    values = normals.tolist()
    rows, dens = [], []
    for r in selected:
        ints, den = exact.integer_row(values[r] + [v[r]])
        row_sum = sum(ints[:-1])
        rows.append(ints[:-1] + [-row_sum, -ints[-1] - row_sum])
        dens.append(den)
    x = _simplex(rows, dens, [0] * m + [1])
    s = ONE - x[m]
    return [mu + s for mu in x[:m]], s, len(selected)


def _simplex(rows: list[list[int]], dens: list[int], c: list[int]) -> list[Fraction]:
    """A minimiser of c.x subject to a x = b, x >= 0, row i of (a | b) being
    the ints rows[i] over the positive denominator dens[i].

    The rows of a must be independent and the LP feasible and bounded.
    Two-phase tableau method with Bland's rule (lowest index enters, ratio
    ties leave by lowest basic index), which cannot cycle.  Each equation is
    posed on its ints, and `exact.pivot` steps a tableau of ints over one
    denominator whose last two rows are the reduced costs of c and of phase
    1.  Phase 1 costs the artificial of row i lcm(dens) / dens[i], as in the
    unscaled equations, so Bland's choices, which read only signs and
    ratios, are those of the Fraction tableau.
    """
    n_rows, n_cols = len(rows), len(c)
    tab = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1
        unit = [int(k == i) for k in range(n_rows)]
        tab.append([sign * v for v in row[:-1]] + unit + [sign * row[-1]])
    lcm = math.lcm(*dens)
    phase_1 = [-sum(lcm // den * v for den, v in zip(dens, col)) for col in zip(*tab)]
    phase_1[n_cols:-1] = [0] * n_rows  # the artificials are basic
    tab += [list(c) + [0] * (n_rows + 1), phase_1]
    basis = list(range(n_cols, n_cols + n_rows))
    d = _optimise(tab, 1, basis)
    for i, j in enumerate(basis):
        if j < n_cols:
            continue
        if tab[i][-1] != 0:
            raise AssertionError("phase 1 found no feasible point")
        # an artificial basic at zero leaves by a degenerate pivot; the
        # row has a nonzero original entry because the rows are independent
        basis[i] = next(k for k in range(n_cols) if tab[i][k] != 0)
        d = exact.pivot(tab, d, i, basis[i])
    del tab[-1]
    for row in tab:
        del row[n_cols:n_cols + n_rows]
    d = _optimise(tab, d, basis)
    x = [ZERO] * n_cols
    for i, j in enumerate(basis):
        x[j] = Fraction(tab[i][-1], d)
    return x


def _optimise(tab: list[list[int]], d: int, basis: list[int]) -> int:
    """Pivot a feasible tableau over the denominator d to a minimum of the
    cost whose reduced costs are its last row, by Bland's rule; returns the
    new denominator.  Ratios are compared by cross-multiplying, d cancels."""
    reduced = tab[-1]
    while True:
        k = next((k for k in range(len(reduced) - 1) if reduced[k] < 0), None)
        if k is None:
            return d
        i = None  # the least ratio tab[r][-1] / a over a > 0, ties by basic index
        for r, j in enumerate(basis):
            a = tab[r][k]
            if a > 0 and (i is None or (tab[r][-1] * tab[i][k], j) < (tab[i][-1] * a, basis[i])):
                i = r
        if i is None:
            raise AssertionError("LP is unbounded")
        basis[i] = k
        d = exact.pivot(tab, d, i, k)


def recession_polar_check(net: ReactionNetwork, aux: AuxTree, x) -> bool:
    """Polar-interior test against the recession cone of the stratum's
    polyhedron; valid without any complex-balanced equilibrium."""
    net.require_weakly_reversible()
    if aux.kind != "chain":
        raise InvalidAuxTreeError("recession check requires a chain aux tree")
    x = evaluate(net, x)
    if not stratum_contains(net, aux, x):
        raise PointNotInStratumError("x does not satisfy the stratum inequalities")
    desc = region_constraints(net, aux, "cone")
    return polar_interior_contains(desc, mass_action_rhs(net, x)).contains


def _tied(values: np.ndarray, i: int, j: int) -> bool:
    a, b = values[i], values[j]  # relative to the smaller: inf ties no finite value
    return abs(b - a) <= exact.tolerance(values, TIE_RTOL, lambda: min(abs(a), abs(b)))
