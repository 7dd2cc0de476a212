"""Monomial evaluation orders, strata, cones, polar membership.

For a weakly reversible network, a chain auxiliary tree encodes an order on
the scaled monomials x^{y(i)}/K_i within each component.  The positive
states realizing that order form a stratum; in log coordinates the stratum
is a polyhedron, and a cone C = {z : N.T z >= 0} (N = Y I_E for the tree's
edges E, gathered as Y[:, heads] - Y[:, tails] by `graph.edge_ends`) when a
complex-balanced equilibrium exists.  By Farkas' lemma the
polar cone of C is {-N lambda : lambda >= 0}, so polar-interior membership
is a sign check against the lineality space, a rank check and one exact
linear program.

A state whose scaled monomials tie lies in every stratum that breaks the
ties.  Their cones' union is one cone (`evaluation_cone`), whose polar is
the intersection of theirs, so one linear program decides for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .exact import ONE, ZERO
from .crn import ReactionNetwork, mass_action_rhs, scaled_monomials
from .errors import InvalidAuxTreeError, PointNotInStratumError
from .graph import AuxTree, Edge, edge_ends, make_aux_tree, validate_aux_tree

STRATUM_RTOL = 1e-12
TIE_RTOL = 1e-12
POLAR_LINEALITY_RTOL = 1e-10
POLAR_STRICT_RTOL = 1e-12


def evaluation_order(net: ReactionNetwork, x) -> list[list[list[str]]]:
    """Per component, the tie groups of x^{y(i)}/K_i in ascending order.

    Vertices are sorted by value, ties by vertex id; a vertex joins the
    previous group when its value ties with that group's last one.
    """
    net.require_weakly_reversible()
    values = scaled_monomials(net, x)
    g = net.graph
    orders = []
    for ci in range(g.n_components):
        groups: list[list[str]] = []
        for v in sorted(g.component_vertices(ci), key=lambda v: (values[g.index[v]], v)):
            if groups and _tied(values, g.index[groups[-1][-1]], g.index[v]):
                groups[-1].append(v)
            else:
                groups.append([v])
        orders.append(groups)
    return orders


def monomial_order(net: ReactionNetwork, x) -> AuxTree:
    """Chain tree sorting each component by x^{y(i)}/K_i, ties by vertex id."""
    chains = [[v for grp in groups for v in grp] for groups in evaluation_order(net, x)]
    return make_aux_tree(net.graph, "chain", chains)


def stratum_contains(net: ReactionNetwork, aux: AuxTree, x) -> bool:
    """True when all binomial inequalities of the stratum hold at x."""
    report = validate_aux_tree(net.graph, aux)
    if not report.ok:
        raise InvalidAuxTreeError(report.violation)
    values = scaled_monomials(net, x)
    tails, heads = edge_ends(net.graph, aux.edges)
    floor = -exact.tolerance(values, STRATUM_RTOL, lambda: np.max(values, initial=0))
    return bool(np.all(values[heads] - values[tails] >= floor))


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
    """Cone (homogeneous) or polyhedron (offset by ln K) for an aux tree.

    Cones are rate-constant free: x is in the stratum iff ln(x/x_star) is
    in the cone, for any complex-balanced equilibrium x_star.
    """
    if mode not in ("cone", "polyhedron"):
        raise ValueError(f"unknown mode {mode!r}")
    net.require_weakly_reversible()
    report = validate_aux_tree(net.graph, aux)
    if not report.ok:
        raise InvalidAuxTreeError(report.violation)
    desc = _edge_cone(net, aux.edges)
    if mode == "polyhedron":
        ln_k = np.log(net.tree_constants().as_float())
        tails, heads = edge_ends(net.graph, aux.edges)
        desc.mode = mode
        desc.offset = ln_k[heads] - ln_k[tails]
    return desc


def evaluation_cone(net: ReactionNetwork, x) -> ConeDescription:
    """The union of the cones of every chain order that breaks x's ties: an
    edge from each vertex of a tie group (`evaluation_order`) to each vertex
    of the next.  With no ties it is the cone of `monomial_order(net, x)`."""
    edges = tuple(
        (i, j) for groups in evaluation_order(net, x)
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

    `margin` is the largest min(lambda) over lambda with -N lambda = f
    (N the facet normals), for f scaled to max-norm 1 and capped at 1;
    `multipliers` is a lambda attaining it, scaled back to f, in `edges`
    order.
    """

    contains: bool
    lineality_products: tuple[float, ...]
    multipliers: tuple[float, ...]
    margin: float


def polar_interior_contains(desc: ConeDescription, f) -> PolarReport:
    """Interior, relative to the stoichiometric subspace S, of the polar
    cone {-N lambda : lambda >= 0}.

    f . w = 0 on S-perp (relative tolerance); N spans S, without which the
    interior is empty; and f = -N lambda for some lambda > 0: with
    v = f / |f|_inf, the exact LP max s s.t. N lambda = -v, lambda >= s 1,
    s <= 1 has s* > POLAR_STRICT_RTOL.
    """
    fv = np.asarray(f, dtype=float)
    lin = np.asarray(desc.lineality_basis, dtype=float)
    f_scale = float(np.max(np.abs(fv))) if fv.size else 0.0
    lin_products = []
    ok = True
    for j in range(lin.shape[1]):
        w = lin[:, j]
        prod = float(fv @ w)
        lin_products.append(prod)
        pair_scale = f_scale * float(np.max(np.abs(w)))
        if abs(prod) > POLAR_LINEALITY_RTOL * pair_scale:
            ok = False
    scale = f_scale if f_scale > 0 else 1.0
    lam, margin, rank = _max_margin(desc.facet_normals, fv / scale)
    # in exact arithmetic rank N <= dim S; ">=" keeps a float Y whose
    # rounded differences are exactly independent from failing the check
    spans_s = rank >= desc.facet_normals.shape[0] - lin.shape[1]
    return PolarReport(
        contains=ok and spans_s and margin > POLAR_STRICT_RTOL,
        lineality_products=tuple(lin_products),
        multipliers=tuple(float(v) * scale for v in lam),
        margin=float(margin),
    )


def _max_margin(normals: np.ndarray, v: np.ndarray) -> tuple[list[Fraction], Fraction, int]:
    """(lambda, s*, rank N) for max s s.t. N lambda = -v, lambda >= s 1, s <= 1.

    The equations are posed on a maximal independent set of rows of N, so a
    float v that lies in im N only up to rounding keeps the LP feasible.
    With lambda = mu + (1 - t) 1 and mu, t >= 0 it is min t in standard form.
    """
    m = normals.shape[1]
    _, selected = exact.rref(normals.T)
    values = normals.tolist()
    rows, dens = [], []
    for r in selected:
        ints, den = exact.integer_row(values[r] + [float(v[r])])
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
    ties leave by lowest basic index), which cannot cycle.  The tableau is
    rational, each row ints over one denominator, and `exact.pivot` steps it;
    its last row holds the reduced costs.
    """
    n_rows, n_cols = len(rows), len(c)
    tab = []
    for i, (row, d) in enumerate(zip(rows, dens)):
        sign = -1 if row[-1] < 0 else 1
        unit = [d if k == i else 0 for k in range(n_rows)]
        tab.append([sign * v for v in row[:-1]] + unit + [sign * row[-1]])
    tab.append([])
    dens = list(dens) + [1]
    basis = list(range(n_cols, n_cols + n_rows))
    _optimise(tab, dens, basis, [0] * n_cols + [1] * n_rows)
    for i, j in enumerate(basis):
        if j < n_cols:
            continue
        if tab[i][-1] != 0:
            raise AssertionError("phase 1 found no feasible point")
        # an artificial basic at zero leaves by a degenerate pivot; the
        # row has a nonzero original entry because the rows are independent
        basis[i] = next(k for k in range(n_cols) if tab[i][k] != 0)
        exact.pivot(tab, dens, i, basis[i])
    for row in tab:
        del row[n_cols:n_cols + n_rows]
    _optimise(tab, dens, basis, list(c))
    x = [ZERO] * n_cols
    for i, j in enumerate(basis):
        x[j] = Fraction(tab[i][-1], dens[i])
    return x


def _optimise(tab: list[list[int]], dens: list[int], basis: list[int], cost: list[int]) -> None:
    """Pivot a feasible tableau to a minimum of cost.x by Bland's rule; the
    tableau's last row is set to the reduced costs."""
    tab[-1][:], dens[-1] = cost + [0], 1
    for i, j in enumerate(basis):  # row i is a unit in column j: price it out
        exact.pivot(tab, dens, i, j)
    reduced = tab[-1]
    while True:
        k = next((k for k in range(len(cost)) if reduced[k] < 0), None)
        if k is None:
            return
        ratios = [
            (Fraction(row[-1], row[k]), basis[i], i)
            for i, row in enumerate(tab[:-1]) if row[k] > 0
        ]
        if not ratios:
            raise AssertionError("LP is unbounded")
        i = min(ratios)[2]
        basis[i] = k
        exact.pivot(tab, dens, i, k)


def recession_polar_check(net: ReactionNetwork, aux: AuxTree, x) -> bool:
    """Polar-interior test against the recession cone of the stratum's
    polyhedron; valid without any complex-balanced equilibrium."""
    net.require_weakly_reversible()
    if aux.kind != "chain":
        raise InvalidAuxTreeError("recession check requires a chain aux tree")
    if not stratum_contains(net, aux, x):
        raise PointNotInStratumError("x does not satisfy the stratum inequalities")
    desc = region_constraints(net, aux, "cone")
    f = np.asarray(mass_action_rhs(net, x), dtype=float)
    return polar_interior_contains(desc, f).contains


def _tied(values: np.ndarray, i: int, j: int) -> bool:
    a, b = values[i], values[j]
    return abs(b - a) <= exact.tolerance(values, TIE_RTOL, lambda: max(abs(a), abs(b)))
