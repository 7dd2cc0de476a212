"""Mass-action reaction networks: complexes, vector field, binomial form.

A network couples a labeled digraph (vertices = complexes, edges = reactions)
with a complex matrix Y (one exponent column per vertex).  The right-hand
side of the mass-action ODE is Y A_k x^Y; for weakly reversible networks it
is also a sum of binomials through the core-matrix decomposition.  Y I_E
and I_aux.T (x^Y / K) are gathers on `graph.edge_ends`.
"""

from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exact
from .errors import (
    DuplicateComplexError,
    FloatRangeError,
    NegativeComplexEntryError,
    NonPositiveStateError,
    NotWeaklyReversibleError,
    ShapeMismatchError,
)
from .graph import AuxTree, LabeledDigraph, edge_ends
from .laplacian import TreeConstants, core_matrix, laplacian_matrix, tree_constants

SVD_RANK_RTOL = 1e-12  # singular values below this share of the largest count as 0


def _coerce_complex_entry(v) -> Fraction | float:
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise NegativeComplexEntryError(f"complex entry {v!r} is not a number")


class ReactionNetwork:
    """Chemical reaction network (graph, Y) with cached derived structure.

    `complexes` is the n x V matrix Y in dense vertex order.  Stoichiometric
    subspace bases are computed at construction (exactly when Y is rational);
    tree constants are computed lazily on the first weakly-reversible query.
    """

    def __init__(self, species: Sequence[str], complexes, graph: LabeledDigraph):
        self.species: tuple[str, ...] = tuple(str(s) for s in species)
        self.graph = graph
        y = self._coerce_complexes(complexes)
        if y.shape != (len(self.species), graph.n_vertices):
            raise ShapeMismatchError(
                f"complex matrix has shape {y.shape}, expected "
                f"({len(self.species)}, {graph.n_vertices})"
            )
        cols = [tuple(y[:, j]) for j in range(y.shape[1])]
        if len(set(cols)) != len(cols):
            raise DuplicateComplexError("complex map is not injective")
        for j, col in enumerate(cols):
            if any(v < 0 for v in col):
                raise NegativeComplexEntryError(
                    f"complex of vertex {graph.vertex_ids[j]!r} has a negative entry"
                )
        self.complexes = y
        self.exact = exact.is_exact(y) and graph.exact
        self.integer_y = exact.is_exact(y) and all(
            Fraction(v).denominator == 1 for v in y.flat
        )
        self.s_basis, self.sperp_basis = self._subspace_bases()
        self._consts: TreeConstants | None = None
        self._consts_lock = threading.Lock()

    @staticmethod
    def _coerce_complexes(complexes) -> np.ndarray:
        rows = [[_coerce_complex_entry(v) for v in row] for row in complexes]
        if not rows:
            return np.zeros((0, 0), dtype=object)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatchError("ragged complex matrix")
        if any(isinstance(v, float) for row in rows for v in row):
            return np.array([[float(v) for v in row] for row in rows], dtype=float)
        return np.array(rows, dtype=object)

    @property
    def n_species(self) -> int:
        return len(self.species)

    def _subspace_bases(self) -> tuple[np.ndarray, np.ndarray]:
        tails, heads = edge_ends(self.graph, self.graph.edges)
        m = self.complexes[:, heads] - self.complexes[:, tails]
        if exact.is_exact(m):
            return exact.column_space(m), exact.nullspace(m.T)
        return _float_column_space(m), _float_nullspace(m.T)

    def is_weakly_reversible(self) -> bool:
        return self.graph.has_strongly_connected_components()

    def require_weakly_reversible(self) -> None:
        if not self.is_weakly_reversible():
            raise NotWeaklyReversibleError(
                "network graph has edges between strongly connected components"
            )

    def tree_constants(self) -> TreeConstants:
        """Lazily computed once; safe under concurrent first access."""
        self.require_weakly_reversible()
        if self._consts is None:
            with self._consts_lock:
                if self._consts is None:
                    self._consts = tree_constants(self.graph)
        return self._consts

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReactionNetwork({self.n_species} species, "
            f"{self.graph.n_vertices} complexes, {self.graph.n_edges} reactions)"
        )


def _float_nullspace(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.eye(m.shape[1])
    u, s, vt = np.linalg.svd(m)
    cutoff = SVD_RANK_RTOL * (s[0] if s.size else 0.0)
    r = int(np.sum(s > cutoff))
    return vt[r:].T.copy()


def _float_column_space(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u, s, vt = np.linalg.svd(m)
    cutoff = SVD_RANK_RTOL * (s[0] if s.size else 0.0)
    r = int(np.sum(s > cutoff))
    return u[:, :r].copy()


def build_network(species, complexes, graph: LabeledDigraph) -> ReactionNetwork:
    return ReactionNetwork(species, complexes, graph)


def check_state(x, n: int) -> np.ndarray:
    """Validate a strictly positive state within the float64 range; keeps
    rationals when given."""
    vals = list(x)
    if len(vals) != n:
        raise NonPositiveStateError(f"state has {len(vals)} entries, expected {n}")
    coerced = []
    rational = True
    for v in vals:
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            coerced.append(Fraction(v))
        elif isinstance(v, float):
            if not math.isfinite(v):
                raise NonPositiveStateError(f"state entry {v!r} is not finite")
            coerced.append(v)
            rational = False
        else:
            raise NonPositiveStateError(f"state entry {v!r} is not a number")
        if coerced[-1] <= 0:
            raise NonPositiveStateError("state entries must be strictly positive")
        # an exact entry must stay positive and finite as a float64
        if not isinstance(v, float) and not math.ulp(0.0) <= v <= sys.float_info.max:
            raise FloatRangeError("state entry lies outside the float64 range")
    if rational:
        return np.array(coerced, dtype=object)
    return np.array([float(v) for v in coerced], dtype=float)


def monomial_vector(net: ReactionNetwork, x) -> np.ndarray:
    """(x^Y)_i = prod_j x_j^{Y_ji}; exact for rational x and integer Y.

    Exact monomials that float64 cannot hold are refused (FloatRangeError),
    since the certificate and the vector field are reported as floats."""
    xv = check_state(x, net.n_species)
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
    xf = np.asarray(xv, dtype=float)
    yf = np.asarray(net.complexes, dtype=float)
    return np.exp(yf.T @ np.log(xf))


def mass_action_rhs(net: ReactionNetwork, x) -> np.ndarray:
    """f_k(x) = Y A_k x^Y, in species coordinates."""
    y, a, mono = exact.common(
        net.complexes, laplacian_matrix(net.graph), monomial_vector(net, x)
    )
    return y @ (a @ mono)


def binomial_rhs(net: ReactionNetwork, aux: AuxTree, x) -> tuple[np.ndarray, np.ndarray]:
    """Vector field in binomial form for a weakly reversible network.

    Returns (value, binomials) where value = -Y I_aux core I_aux.T
    diag(1/K) x^Y equals the mass-action right-hand side, and binomials is
    the vector of scaled monomial differences along the aux edges.
    """
    net.require_weakly_reversible()
    scaled = scaled_monomials(net, x)
    dec = core_matrix(net.graph, aux, consts=net.tree_constants())
    y, core, scaled = exact.common(net.complexes, dec.core, scaled)
    tails, heads = edge_ends(net.graph, aux.edges)
    binomials = scaled[heads] - scaled[tails]
    value = -((y[:, heads] - y[:, tails]) @ (core @ binomials))
    if exact.is_exact(value):  # an object matmul over no aux edges gives int 0s
        value = value + exact.ZERO
    return value, binomials


def stoichiometric_subspace(net: ReactionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Bases of S = im(Y I_E) and of its orthogonal complement."""
    return net.s_basis, net.sperp_basis


def scaled_monomials(net: ReactionNetwork, x) -> np.ndarray:
    """Per-vertex values x^{y(i)} / K_i used by evaluation orders."""
    consts = net.tree_constants()
    mono, k = exact.common(monomial_vector(net, x), consts.values)
    return mono / k
