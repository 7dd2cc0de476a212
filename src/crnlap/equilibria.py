"""Complex-balanced equilibria: detection, solving, parametrization, Birch step.

A positive state x is complex-balanced when A_k x^Y = 0: the edge flows
into each complex sum to those out of it.  In log coordinates the CBE set
is an affine subspace, which reduces the intersection with a stoichiometric
class to a small strictly convex minimization.  `ReactionNetwork.cbe_exists`
alone decides whether it is empty, for `is_cbe`, `require_cbe`, `solve_cbe`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import exact
from .crn import CBE_RTOL, ReactionNetwork, State, _state_key, check_state, evaluate
from .errors import DimensionTooLargeError, NoConvergenceError, NotACbeError, SemanticError

logger = logging.getLogger(__name__)

BIRCH_MAX_ITER = 200
# points of one `cbe_manifold_sample` call: over 3000 times the 2-3 that
# the runtime checks and the benchmark draw
MAX_SAMPLES = 10_000


class CbeCheck(NamedTuple):
    balanced: bool
    residual: float
    scale: float


def is_cbe(net: ReactionNetwork, x, tol: float | None = None) -> CbeCheck:
    """Test A_k x^Y = 0 (`State.balance`): each complex's |A_k x^Y| against
    CBE_RTOL (or `tol`) times the largest edge flow of its own component, 0
    on exact flows; then that an equilibrium exists (weak reversibility,
    `cbe_exists`).  `residual` and `scale` report the largest |A_k x^Y| and
    edge flow over the network.  Float monomials or flows that overflow, and
    an exact residual or largest flow that float64 cannot hold, are refused
    (FloatRangeError).  At the default `tol` the check is formed once per
    State and kept on it."""
    state = evaluate(net, x)
    return state.kept("_is_cbe", _is_cbe) if tol is None else _is_cbe(state, tol)


def _is_cbe(state: State, tol: float | None = None) -> CbeCheck:
    net, flows = state.net, state.flows
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.max(np.abs(state.balance), initial=0)
        scale = np.max(flows, initial=0)
    # floats that overflowed, and exact values that float64 cannot hold
    residual_f = exact.to_float(residual, "the complex-balance residual")
    scale_f = exact.to_float(scale, "the largest edge flow")
    balanced = bool(residual <= exact.tolerance(flows, CBE_RTOL, lambda: scale, tol))
    if balanced:  # a component's own bound is never looser, so tested only here
        comp = np.array([net.graph.component_index[v] for v in net.graph.vertex_ids], dtype=int)
        top = np.zeros(net.graph.n_components, dtype=flows.dtype)
        np.maximum.at(top, comp[net.tails], flows)
        limit = exact.tolerance(flows, CBE_RTOL, lambda: top[comp], tol)
        balanced = bool(np.all(np.abs(state.balance) <= limit))
    return CbeCheck(balanced and net.is_weakly_reversible() and net.cbe_exists, residual_f, scale_f)


def require_cbe(net: ReactionNetwork, x_star) -> np.ndarray:
    """x_star (its entries, or a `State` of net) as a read-only float64
    array, refused (NotACbeError) unless balanced (`is_cbe`); kept in the
    network's slot until another passes."""
    given = isinstance(x_star, State)
    values = list(x_star.x if given else x_star)
    key = _state_key(values)  # a float x* and an equal Fraction differ
    slot = net._cbe
    if slot[0] != key:
        state = evaluate(net, x_star if given else values)
        if not is_cbe(net, state).balanced:
            raise NotACbeError("x_star is not a complex-balanced equilibrium")
        slot = net._cbe = (key, exact.floats(state.x, "x_star"))
    return slot[1]


@dataclass(frozen=True)
class CbeResult:
    status: str  # "found" | "infeasible"
    witness: np.ndarray | None
    log_residual: float


def solve_cbe(net: ReactionNetwork) -> CbeResult:
    """Status from `net.cbe_exists`; `log_residual` and the witness exp(z) from
    `net.log_solution` with r = `net.log_ratios`, ln(K_b / K_a) from the exact
    ratios of the tree constants, deterministic and independent of the aux
    tree.  So the tree constants may leave float64; a ratio or a witness
    beyond float64 is refused (FloatRangeError)."""
    z, residual = net.log_solution(net.log_ratios)
    log_residual = float(np.linalg.norm(residual))
    if not net.cbe_exists:
        return CbeResult(status="infeasible", witness=None, log_residual=log_residual)
    with np.errstate(over="ignore"):
        witness = exact.positive_floats(np.exp(z), "the equilibrium witness entries")
    return CbeResult(status="found", witness=witness, log_residual=log_residual)


def cbe_manifold_sample(net: ReactionNetwork, x_star, count: int, seed: int):
    """`count` points x = x_star o exp(w) with w random in span(S-perp
    basis), drawn with numpy's generator seeded by `seed`; a negative count
    or seed is a SemanticError, and a count past MAX_SAMPLES is refused
    (DimensionTooLargeError) before anything is drawn."""
    if count < 0 or seed < 0:
        raise SemanticError(f"count and seed must be >= 0, got count={count!r}, seed={seed!r}")
    if count > MAX_SAMPLES:
        raise DimensionTooLargeError(f"{count} manifold samples exceed MAX_SAMPLES={MAX_SAMPLES}")
    xs = require_cbe(net, x_star)
    w_basis = net.floats.sperp_basis
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):  # with no conservation laws w is 0
        w = w_basis @ rng.standard_normal(w_basis.shape[1])
        samples.append(xs * np.exp(w))
    return samples


def birch_intersect(
    net: ReactionNetwork,
    x_star,
    x_prime,
    c0=None,
) -> np.ndarray:
    """The unique point of (x_star o e^{S-perp}) with x - x_prime in S.

    Found by damped Newton on the strictly convex
    h(c) = sum_i x*_i exp((Wc)_i) - c . (W.T x'), W a basis of S-perp.
    x' is the checked x of the network's `evaluate` slot when that holds x',
    and is checked alone (`check_state`) otherwise.
    """
    xs = require_cbe(net, x_star)
    values, (key, state) = list(x_prime), net._state
    xv = state.x if key == _state_key(values) else check_state(values, net.n_species)
    xp = np.asarray(xv, dtype=float)
    w = net.floats.sperp_basis
    d = w.shape[1]
    if d == 0:
        return xs.copy()
    target = w.T @ xp
    scale = max(1.0, float(np.max(np.abs(target))))
    c = np.zeros(d) if c0 is None else np.asarray(c0, dtype=float).copy()

    def h(cv):
        return float(np.sum(xs * np.exp(w @ cv)) - cv @ target)

    h_c = h(c)
    for it in range(BIRCH_MAX_ITER):
        x = xs * np.exp(w @ c)
        grad = w.T @ x - target
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= 1e-12 * scale:
            logger.debug("birch converged in %d iterations", it)
            return x
        hess = (w.T * x) @ w
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as e:  # pragma: no cover
            raise NoConvergenceError(f"singular Hessian: {e}") from e
        t = 1.0
        moved = False
        while t > 1e-16:
            trial = c + t * step
            h_t = h(trial)
            if h_t < h_c:
                c, h_c = trial, h_t
                moved = True
                break
            t /= 2
        if not moved:
            # h is flat at machine precision; the pure Newton step still
            # contracts the gradient quadratically near the optimum
            trial = c + step
            g_t = w.T @ (xs * np.exp(w @ trial)) - target
            if float(np.max(np.abs(g_t))) < gnorm:
                c, h_c = trial, h(trial)
            else:
                raise NoConvergenceError("line search failed to decrease")
    raise NoConvergenceError(f"no convergence after {BIRCH_MAX_ITER} damped iterations")
