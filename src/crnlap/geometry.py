"""Monomial evaluation orders, strata, cones, extreme rays, polar membership.

For a weakly reversible network, a chain auxiliary tree encodes an order on
the scaled monomials x^{y(i)}/K_i within each component.  The positive
states realizing that order form a stratum; in log coordinates the stratum
is a polyhedron, and a cone when a complex-balanced equilibrium exists.
Polar-cone interior membership is decided by sign checks against the
lineality space and the extreme rays.
"""

from __future__ import annotations

import itertools
import logging
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exact
from .crn import ReactionNetwork, mass_action_rhs, scaled_monomials
from .errors import (
    DimensionTooLargeError,
    IndeterminateOrderError,
    InvalidAuxTreeError,
    PointNotInStratumError,
)
from .graph import AuxTree, aux_incidence, make_aux_tree, validate_aux_tree

logger = logging.getLogger(__name__)

MAX_RAY_DIMENSION = 10
STRATUM_RTOL = 1e-12
TIE_RTOL = 1e-12
POLAR_LINEALITY_RTOL = 1e-10
POLAR_STRICT_RTOL = 1e-12


def monomial_order(net: ReactionNetwork, x) -> AuxTree:
    """Chain tree sorting each component by x^{y(i)}/K_i, ties by vertex id."""
    net.require_weakly_reversible()
    values = scaled_monomials(net, x)
    g = net.graph
    orders = []
    for ci in range(g.n_components):
        verts = g.component_vertices(ci)
        orders.append(sorted(verts, key=lambda v: (values[g.index[v]], v)))
    return make_aux_tree(g, "chain", orders)


def stratum_contains(net: ReactionNetwork, aux: AuxTree, x) -> bool:
    """True when all binomial inequalities of the stratum hold at x."""
    report = validate_aux_tree(net.graph, aux)
    if not report.ok:
        raise InvalidAuxTreeError(report.violation)
    values = scaled_monomials(net, x)
    g = net.graph
    if exact.is_exact(values):
        return all(values[g.index[ip]] - values[g.index[i]] >= 0 for (i, ip) in aux.edges)
    scale = float(np.max(values)) if values.size else 0.0
    tol = STRATUM_RTOL * scale
    return all(
        values[g.index[ip]] - values[g.index[i]] >= -tol for (i, ip) in aux.edges
    )


@dataclass
class ConeDescription:
    """H-description of a stratum's cone (or polyhedron) in log coordinates.

    `facet_normals` holds the columns of Y I_aux (inequalities
    normals.T z >= offset); the lineality space equals the orthogonal
    complement of the stoichiometric subspace.  Extreme rays are enumerated
    on demand and cached.
    """

    aux: AuxTree
    mode: str  # "cone" | "polyhedron"
    facet_normals: np.ndarray  # n x |aux.edges|
    offset: np.ndarray
    lineality_basis: np.ndarray
    _rays: list[np.ndarray] | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def ambient_dim(self) -> int:
        return self.facet_normals.shape[0]


def region_constraints(
    net: ReactionNetwork, aux: AuxTree, mode: str, x_star=None
) -> ConeDescription:
    """Cone (homogeneous) or polyhedron (offset by ln K) for an aux tree.

    Cones are rate-constant free and must not be given an x_star; the
    equivalence x in stratum <=> ln(x/x_star) in cone holds whenever x_star
    is a complex-balanced equilibrium.
    """
    if mode not in ("cone", "polyhedron"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "cone" and x_star is not None:
        raise ValueError("cone mode takes no x_star (cones do not depend on k)")
    net.require_weakly_reversible()
    report = validate_aux_tree(net.graph, aux)
    if not report.ok:
        raise InvalidAuxTreeError(report.violation)
    inc = aux_incidence(net.graph, aux)
    if net.exact_y:
        normals = net.complexes @ inc
    else:
        normals = np.asarray(net.complexes, dtype=float) @ exact.to_float(inc)
    if mode == "cone":
        offset = np.zeros(len(aux.edges))
    else:
        ln_k = np.log(net.tree_constants().as_float())
        offset = exact.to_float(inc).T @ ln_k
    return ConeDescription(
        aux=aux,
        mode=mode,
        facet_normals=normals,
        offset=offset,
        lineality_basis=net.sperp_basis,
    )


# -- extreme rays by double description -------------------------------------


def _exact_normals(desc: ConeDescription) -> np.ndarray:
    m = desc.facet_normals
    if exact.is_exact(m):
        return m
    return np.array([[Fraction(v) for v in row] for row in m], dtype=object)


def _dd_pointed(a: np.ndarray) -> list[np.ndarray]:
    """Extreme rays of the pointed cone {c : a c >= 0}, rank(a) = dim.

    Classic double description: start from an invertible row subset (a
    simplicial superset) and clip with the remaining inequalities; adjacency
    is tested algebraically via the rank of the common tight set.
    """
    n_rows, dim = a.shape
    base: list[int] = []
    for i in range(n_rows):
        if len(base) == dim:
            break
        trial = base + [i]
        if exact.rank(a[trial, :]) == len(trial):
            base.append(i)
    rays = [exact.primitive(col) for col in exact.inverse(a[base, :]).T]
    processed = list(base)

    def tight_rows(ray: np.ndarray) -> list[int]:
        return [i for i in processed if (a[i, :] @ ray) == 0]

    for t in range(n_rows):
        if t in base:
            continue
        s = [a[t, :] @ r for r in rays]
        plus = [j for j, v in enumerate(s) if v > 0]
        zero = [j for j, v in enumerate(s) if v == 0]
        minus = [j for j, v in enumerate(s) if v < 0]
        new_rays = [rays[j] for j in plus + zero]
        for p in plus:
            zp = set(tight_rows(rays[p]))
            for m in minus:
                common = sorted(zp & set(tight_rows(rays[m])))
                if len(common) < dim - 2:
                    continue
                if common and exact.rank(a[common, :]) != dim - 2:
                    continue
                if not common and dim != 2:
                    continue
                w = s[p] * rays[m] - s[m] * rays[p]
                new_rays.append(exact.primitive(w))
        processed.append(t)
        # dedupe: primitive vectors are canonical representatives
        seen: set[tuple] = set()
        rays = []
        for r in new_rays:
            key = tuple(r)
            if key not in seen:
                seen.add(key)
                rays.append(r)
    return rays


def extreme_rays(desc: ConeDescription) -> list[np.ndarray]:
    """Extreme rays modulo lineality, validated, in deterministic order."""
    if desc.mode != "cone":
        raise ValueError("extreme rays are defined for cone mode")
    if desc.ambient_dim > MAX_RAY_DIMENSION:
        raise DimensionTooLargeError(
            f"ray enumeration supports dimension <= {MAX_RAY_DIMENSION}"
        )
    if desc._rays is not None:
        return desc._rays
    with desc._lock:
        if desc._rays is not None:
            return desc._rays
        rays = _compute_rays(desc)
        desc._rays = rays
    return desc._rays


def _compute_rays(desc: ConeDescription) -> list[np.ndarray]:
    normals = _exact_normals(desc)
    n, m = normals.shape
    if m == 0:
        return []
    r = exact.rank(normals)
    if r == 0:
        return []
    basis = exact.column_space(normals)  # n x r
    a = normals.T @ basis  # m x r, pointed system
    rays_c = _dd_pointed(a)
    rays = []
    for c in rays_c:
        z = exact.primitive(basis @ c)
        rays.append(z)
    # validate against the original inequality system
    kept = []
    seen: set[tuple] = set()
    for z in rays:
        prods = normals.T @ z
        if any(v < 0 for v in prods):
            raise AssertionError("enumerated ray violates the inequality system")
        if all(v == 0 for v in prods):
            raise AssertionError("enumerated ray lies in the lineality space")
        tight = [i for i in range(m) if prods[i] == 0]
        if r > 1 and exact.rank(normals[:, tight].T) != r - 1:
            raise AssertionError("enumerated ray is not extreme")
        key = tuple(z)
        if key not in seen:
            seen.add(key)
            kept.append(z)
    kept.sort(key=lambda v: tuple(v))
    logger.debug("enumerated %d extreme rays", len(kept))
    return [np.asarray(z, dtype=float) for z in kept]


def is_trivial_cone(desc: ConeDescription) -> bool:
    """True when the cone equals its lineality space (no strict direction)."""
    if desc.mode != "cone":
        raise ValueError("triviality is defined for cone mode")
    return len(extreme_rays(desc)) == 0


@dataclass(frozen=True)
class PolarReport:
    contains: bool
    lineality_products: tuple[float, ...]
    ray_products: tuple[float, ...]


def polar_interior_contains(desc: ConeDescription, f) -> PolarReport:
    """Interior of the polar cone: f . w = 0 on the lineality space and
    f . r < 0 (strictly, relative tolerance) on every extreme ray."""
    fv = np.asarray(f, dtype=float)
    rays = extreme_rays(desc)
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
    ray_products = []
    for rvec in rays:
        prod = float(fv @ rvec)
        ray_products.append(prod)
        pair_scale = f_scale * float(np.max(np.abs(rvec)))
        if not prod < -POLAR_STRICT_RTOL * pair_scale:
            ok = False
    return PolarReport(
        contains=ok,
        lineality_products=tuple(lin_products),
        ray_products=tuple(ray_products),
    )


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


def admissible_chain_orders(
    net: ReactionNetwork, x, cap: int = 64
) -> list[AuxTree]:
    """All chain trees whose stratum contains x (ties expanded), capped.

    Raises IndeterminateOrderError when the tie structure yields more than
    `cap` orders.
    """
    net.require_weakly_reversible()
    values = scaled_monomials(net, x)
    g = net.graph
    per_component: list[list[list[str]]] = []
    total = 1
    for ci in range(g.n_components):
        verts = g.component_vertices(ci)
        verts = sorted(verts, key=lambda v: (values[g.index[v]], v))
        groups: list[list[str]] = []
        for v in verts:
            if groups and _tied(values[g.index[groups[-1][-1]]], values[g.index[v]]):
                groups[-1].append(v)
            else:
                groups.append([v])
        orders = [
            list(itertools.chain.from_iterable(combo))
            for combo in itertools.product(
                *[list(map(list, itertools.permutations(grp))) for grp in groups]
            )
        ]
        total *= len(orders)
        if total > cap:
            raise IndeterminateOrderError(
                f"more than {cap} admissible monomial orders at this state"
            )
        per_component.append(orders)
    auxes = []
    for combo in itertools.product(*per_component):
        auxes.append(make_aux_tree(g, "chain", list(combo)))
    return auxes


def _tied(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fb - fa) <= TIE_RTOL * max(abs(fa), abs(fb))
