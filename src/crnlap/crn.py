"""Mass-action reaction networks: complexes, vector field, binomial form.

A network couples a labeled digraph (vertices = complexes, edges = reactions)
with a complex matrix Y (one exponent column per vertex).  The right-hand
side of the mass-action ODE is Y A_k x^Y = N (k o x^{y(tail)}), N = Y I_E; for
weakly reversible networks it is also a sum of binomials through the core
matrix decomposition.  Y I_E and I_aux.T (x^Y / K) are gathers on `edge_ends`.

`evaluate` checks a state x once and forms a frozen `State`, which is how
an evaluation is read: `x`, `ln_x`, x^Y (`monomials`), the edge flows
k o x^{y(tail)} (`flows`) and, on first use, each complex's net inflow
A_k x^Y (`balance`), x^Y / K (`scaled`) and f_k(x) (`rhs`).  The
exact/float choice is made there: x^Y is exact for rational x and integer
Y (refused past MAX_MONOMIAL_BITS before any power), the flows, A_k x^Y
and x^Y / K when k is exact too.  The functions that evaluate x take a
State in its place.  A State keeps, read-only, what is derived from x
alone: the fields above and, through `State.kept`, the evaluation order,
the cut flows and `is_cbe` at its default tolerance.
Each network has two slots keyed on a state's entries with their types
(`_state_key`; a float x and an equal Fraction are evaluated differently):
- `evaluate` keeps the last State it formed, so the calls that read one x
  (a certificate, f_k(x), the inclusion at +-f_k(x)) form it once.  A
  refused state never enters it.
- `equilibria.require_cbe` keeps the last x* that passed its balance test.

ln(K_b / K_a) is formed in one place, `_log_ratios`, each exact ratio
rounded once, for `log_ratios` and for a stratum's polyhedron alike.
Exact networks keep Y, k, N and the S-perp basis as Fractions.  Their float
evaluations read a `FloatView` instead: float64 copies converted once per
network, lazily on first float use, checked (a value that float64 cannot
hold is refused with FloatRangeError) and read-only.  Exact analysis never
builds it, so it works on networks whose float view would be refused.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import exact
from .errors import (
    DimensionTooLargeError,
    DuplicateComplexError,
    FloatRangeError,
    NegativeComplexEntryError,
    NonPositiveStateError,
    NotWeaklyReversibleError,
    ShapeMismatchError,
)
from .graph import AuxTree, LabeledDigraph, default_chain_aux, edge_ends
from .laplacian import TreeConstants, _exact_tree_constants, core_matrix, tree_constants

SVD_RANK_RTOL = 1e-12  # singular values below this share of the largest count as 0
CONSISTENCY_RTOL = 2.0**-46  # float `cbe_exists`: 128 roundings per unit of its bound
CBE_RTOL = 1e-10  # `is_cbe`: balance residual against the largest edge flow
# `evaluate`: sum_j y_j log2 max(num, den) of an exact x_j per complex, the bits
# of x^y; 750 times the largest sample, CI, test or benchmark input (1329)
MAX_MONOMIAL_BITS = 1_000_000


def _coerce_complex_entry(v) -> Fraction | float:
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise NegativeComplexEntryError(f"complex entry {v!r} is not a number")


class FloatView:
    """float64 copies of a network's Y, k, N and S-perp basis, for its float
    evaluations.

    Each array is built on first access and kept: with the values and the
    layout np.asarray(..., dtype=float) gives, but refused (FloatRangeError)
    where an exact entry lies beyond the largest float64 or is nonzero and
    rounds to 0, and read-only (`exact.floats`).  The view keeps
    the exact arrays, not the network, so the two form no reference cycle.
    A concurrent first access may convert an array twice; the copies are
    equal.  The tree constants' float copy is `TreeConstants.as_float`.
    """

    def __init__(self, net: ReactionNetwork):
        self._y, self._k, self._n, self._w = (
            net.complexes, net.rates, net.reactions, net.sperp_basis
        )

    @cached_property
    def complexes(self) -> np.ndarray:
        return exact.floats(self._y, "a complex entry")

    @cached_property
    def rates(self) -> np.ndarray:
        return exact.floats(self._k, "a rate constant")

    @cached_property
    def reactions(self) -> np.ndarray:
        return exact.floats(self._n, "a reaction vector entry")

    @cached_property
    def sperp_basis(self) -> np.ndarray:
        return exact.floats(self._w, "an S-perp basis entry")


class ReactionNetwork:
    """Chemical reaction network (graph, Y) with cached derived structure.

    `complexes` is the n x V matrix Y in dense vertex order; `tails`, `heads`,
    `rates` (labels) and `reactions` (N = Y I_E) follow `graph.edges`.  A
    basis of S-perp = ker N.T is computed at construction (exactly when N
    is rational); tree constants lazily on the first weakly-reversible query,
    and the `deficiency` and `cbe_exists` on first use.
    `floats` is the network's `FloatView`, whose arrays are converted on
    first float use; in a float network they are read-only copies.  A
    matrix with one raw float entry is taken as float64 throughout, and an
    entry that float64 cannot hold (beyond its range, NaN or infinite) is
    refused (FloatRangeError).
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
        self.tails, self.heads = edge_ends(graph, graph.edges)
        labels = [graph.labels[e] for e in graph.edges]
        self.rates = np.array(labels, dtype=object if graph.exact else float)
        m = self.reactions = y[:, self.heads] - y[:, self.tails]
        if exact.is_exact(m):
            self.sperp_basis = exact.nullspace(m.T)
        else:
            self.sperp_basis = _float_nullspace(m.T)
        self._consts: TreeConstants | None = None
        self._consts_lock = threading.Lock()
        self.floats = FloatView(self)
        self._cbe = (None, None)  # require_cbe's (key, x* as float64) of its last pass
        self._state = (None, None)  # evaluate's (key, State) of the last x it formed

    @staticmethod
    def _coerce_complexes(complexes) -> np.ndarray:
        rows = [[_coerce_complex_entry(v) for v in row] for row in complexes]
        if not rows:
            return np.zeros((0, 0), dtype=object)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatchError("ragged complex matrix")
        if not any(isinstance(v, float) for row in rows for v in row):
            return np.array(rows, dtype=object)
        return np.array([[exact.to_float(v, "a complex entry") for v in row] for row in rows])

    @property
    def n_species(self) -> int:
        return len(self.species)

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

    @property
    def stoichiometric_dim(self) -> int:
        """dim S = n - dim S-perp, by rank-nullity."""
        return self.n_species - self.sperp_basis.shape[1]

    @cached_property
    def deficiency(self) -> int:
        """delta = n - l - s: complexes, less components, less dim S."""
        g = self.graph
        return g.n_vertices - g.n_components - self.stoichiometric_dim

    @cached_property
    def chain_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges a -> b of T, the chain aux tree, as (tails, heads)."""
        return edge_ends(self.graph, default_chain_aux(self.graph).edges)

    def log_solution(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least-squares z of (Y I_T).T z = r of least norm, singular values
        below SVD_RANK_RTOL of the largest as 0 as in `deficiency`, and its
        residual, r projected onto ker(Y I_T)."""
        tails, heads = self.chain_edges
        lhs = (self.floats.complexes[:, heads] - self.floats.complexes[:, tails]).T
        z = np.linalg.lstsq(lhs, r, rcond=SVD_RANK_RTOL)[0] if r.size else np.zeros(self.n_species)
        return z, r - lhs @ z

    @cached_property
    def _exact_constants(self) -> np.ndarray:
        """K at the labels' exact values, Fractions; needs weak reversibility."""
        self.require_weakly_reversible()
        return self.tree_constants().values if self.graph.exact else _exact_tree_constants(self.graph)

    def _tree_ratios(self, tails, heads) -> list[Fraction]:
        """K_b / K_a on the edges a -> b, K at the labels' exact values."""
        k = self._exact_constants
        return [k[b] / k[a] for a, b in zip(tails, heads)]

    def _log_ratios(self, tails, heads) -> np.ndarray:
        """ln `_tree_ratios`, each rounded once: K may leave float64, a ratio may not."""
        return np.log(exact.positive_floats(self._tree_ratios(tails, heads), "the tree constant ratios"))

    @cached_property
    def log_ratios(self) -> np.ndarray:
        """r = `_log_ratios` on T's edges; needs weak reversibility.  Read-only."""
        return _read_only(self._log_ratios(*self.chain_edges))

    @cached_property
    def cbe_exists(self) -> bool:
        """Whether a complex-balanced equilibrium exists; needs weak reversibility.
        (Y I_T).T ln x* = r, r = `log_ratios`, is solvable iff u . r = 0 for each
        u in ker(Y I_T), of the deficiency's dimension (none at 0).
        Exact networks test prod (K_b / K_a)^u_e = 1 in Fractions; float ones, on
        the `log_solution` residual, |residual|_2 <= CONSISTENCY_RTOL (2 n sqrt(m)
        + |r|_2), n complexes, m tree edges, as labels rounded once move each
        ln(K_b / K_a) by 2n roundings at most, the logs and the solve by roundings
        of |r|; capped at CBE_RTOL, so that `solve_cbe`'s witness passes `is_cbe`."""
        self.require_weakly_reversible()
        if not self.deficiency:
            return True
        if not self.exact:
            r = self.log_ratios
            bound = CONSISTENCY_RTOL * (2 * self.graph.n_vertices * r.size**0.5 + np.linalg.norm(r))
            return bool(np.linalg.norm(self.log_solution(r)[1]) <= min(bound, CBE_RTOL))
        tails, heads = self.chain_edges
        kernel = exact.nullspace(self.complexes[:, heads] - self.complexes[:, tails])
        ratios = self._tree_ratios(tails, heads)
        return all(math.prod(map(pow, ratios, exact.integer_row(c)[0])) == 1 for c in kernel.T)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReactionNetwork({self.n_species} species, "
            f"{self.graph.n_vertices} complexes, {self.graph.n_edges} reactions)"
        )


def _float_nullspace(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.eye(m.shape[1])
    u, s, vt = np.linalg.svd(m)
    r = int(np.sum(s > SVD_RANK_RTOL * s[0]))  # s is not empty when m is not
    return vt[r:].T.copy()


def build_network(species, complexes, graph: LabeledDigraph) -> ReactionNetwork:
    return ReactionNetwork(species, complexes, graph)


def check_state(x, n: int) -> np.ndarray:
    """Validate a strictly positive state within the float64 range; keeps
    rationals when given."""
    vals = list(x)
    if len(vals) != n:
        raise NonPositiveStateError(f"state has {len(vals)} entries, expected {n}")
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
            raise NonPositiveStateError(f"state entry {v!r} is not a number")
        if isinstance(v, float) and not math.isfinite(v):
            raise NonPositiveStateError(f"state entry {v!r} is not finite")
        if v <= 0:
            raise NonPositiveStateError("state entries must be strictly positive")
    # an exact entry must stay positive and finite as a float64
    floats = exact.positive_floats(vals, "state entries")
    if any(isinstance(v, float) for v in vals):
        return floats
    return np.array([Fraction(v) for v in vals], dtype=object)


@dataclass(frozen=True, eq=False)
class State:
    """A state x of `net` as `evaluate` forms it: x checked (Fractions when
    rational, otherwise float64), ln x, x^Y and the edge flows k o x^{y(tail)};
    `balance`, `scaled` and `rhs` are formed on first use and kept, as is
    what other modules derive from x alone (`kept`).  Every array is
    read-only: the network's `evaluate` slot shares the State with each
    later call on an equal x (and the two form a reference cycle)."""

    net: ReactionNetwork
    x: np.ndarray
    ln_x: np.ndarray
    monomials: np.ndarray
    flows: np.ndarray

    @cached_property
    def balance(self) -> np.ndarray:
        """A_k x^Y: per complex, the flows into it minus those out of it,
        each edge added at its head and subtracted at its tail, in edge
        order; exact when the flows are, and a float that overflows is kept."""
        net = self.net
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.zeros(net.graph.n_vertices, dtype=self.flows.dtype)
            np.add.at(g, net.heads, self.flows)
            np.subtract.at(g, net.tails, self.flows)
        return _read_only(g)

    @cached_property
    def scaled(self) -> np.ndarray:
        """x^{y(i)} / K_i, exact when the flows are; needs weak reversibility."""
        consts = self.net.tree_constants()
        if exact.is_exact(self.flows):
            return _read_only(self.monomials / consts.values)
        return _read_only(np.asarray(self.monomials, dtype=float) / consts.as_float())

    @cached_property
    def rhs(self) -> np.ndarray:
        """f_k(x) = Y A_k x^Y = N `flows`, in species coordinates; a float
        f_k(x) that overflows is refused (FloatRangeError), on every read."""
        net, flows = self.net, self.flows  # exact flows need an exact Y, so an exact N
        with np.errstate(over="ignore", invalid="ignore"):
            f = (net.reactions if exact.is_exact(flows) else net.floats.reactions) @ flows
        if exact.is_exact(f):  # an object matmul over no edges gives int 0s
            f = f + exact.ZERO
        elif not np.all(np.isfinite(f)):
            raise FloatRangeError("float f_k(x) leaves the float64 range")
        return _read_only(f)

    def kept(self, name: str, form):
        """form(self), formed on the first call for `name` (a private name,
        so no field's) and kept on the State, as cached properties are; not
        to be changed by its readers."""
        d = self.__dict__
        if name not in d:
            d[name] = form(self)
        return d[name]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _state_key(values: list) -> list:
    """Each entry with its type: the key of a network's state slots, under
    which a float and an equal Fraction differ."""
    return [(type(v), v) for v in values]


def evaluate(net: ReactionNetwork, x) -> State:
    """The `State` of x on net; a State of net is returned as it is, and
    so is the network's last State when x has the same entries and types.

    Exact monomials that float64 cannot hold are refused (FloatRangeError),
    as the certificate and the vector field are reported as floats, and so,
    before any exact power, is a complex matrix that float64 cannot hold,
    and an exact x^y(i) past MAX_MONOMIAL_BITS (DimensionTooLargeError).
    Float monomials and flows may overflow to inf; their readers decide."""
    if isinstance(x, State) and x.net is net:
        return x
    values = list(x)
    key = _state_key(values)
    slot = net._state
    if slot[0] == key:
        return slot[1]
    xv = check_state(values, net.n_species)
    ln_x = np.log(np.asarray(xv, dtype=float))
    yf = net.floats.complexes
    with np.errstate(over="ignore", invalid="ignore"):
        if exact.is_exact(xv) and net.integer_y:
            bits = (yf.T @ [math.log2(max(v.numerator, v.denominator)) for v in xv]).tolist()
            if max(bits, default=0) > MAX_MONOMIAL_BITS:
                raise DimensionTooLargeError(f"an exact monomial exceeds MAX_MONOMIAL_BITS={MAX_MONOMIAL_BITS}")
            mono = np.array([
                math.prod((v ** int(e) for v, e in zip(xv, col) if e), start=exact.ONE)
                for col in net.complexes.T
            ], dtype=object)
            if max(mono, default=0) > sys.float_info.max:
                raise FloatRangeError("an exact monomial exceeds the float64 range")
        else:
            mono = np.exp(yf.T @ ln_x)
        if exact.is_exact(mono) and net.graph.exact:
            flows = net.rates * mono[net.tails]
        else:
            flows = net.floats.rates * np.asarray(mono, dtype=float)[net.tails]
    state = State(net, *map(_read_only, (xv, ln_x, mono, flows)))
    net._state = (key, state)
    return state


def mass_action_rhs(net: ReactionNetwork, x) -> np.ndarray:
    """f_k(x) = Y A_k x^Y = N `State.flows` (`State.rhs`), in species
    coordinates, read-only; a float f_k(x) that overflows is refused
    (FloatRangeError)."""
    return evaluate(net, x).rhs


def binomial_rhs(net: ReactionNetwork, aux: AuxTree, x) -> tuple[np.ndarray, np.ndarray]:
    """Vector field in binomial form for a weakly reversible network.

    Returns (value, binomials) where value = -Y I_aux core I_aux.T
    diag(1/K) x^Y equals the mass-action right-hand side, and binomials is
    the vector of scaled monomial differences along the aux edges.
    """
    scaled = evaluate(net, x).scaled
    dec = core_matrix(net.graph, aux, consts=net.tree_constants())
    core, scaled = exact.common(dec.core, scaled)  # exact ones need an exact Y
    y = net.complexes if exact.is_exact(core) else net.floats.complexes
    tails, heads = edge_ends(net.graph, aux.edges)
    binomials = scaled[heads] - scaled[tails]
    value = -((y[:, heads] - y[:, tails]) @ (core @ binomials))
    if exact.is_exact(value):  # an object matmul over no aux edges gives int 0s
        value = value + exact.ZERO
    return value, binomials
