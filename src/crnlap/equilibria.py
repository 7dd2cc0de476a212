"""Complex-balanced equilibria: detection, solving, parametrization, Birch step.

A positive state x is complex-balanced when A_k x^Y = 0.  In log coordinates
the CBE set is an affine subspace, which makes existence a linear consistency
question and reduces the intersection with a stoichiometric class to a small
strictly convex minimization.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import exact
from .crn import ReactionNetwork, check_state, monomial_vector
from .errors import FloatRangeError, NoConvergenceError, NotACbeError
from .graph import default_chain_aux, edge_ends
from .laplacian import laplacian_matrix

logger = logging.getLogger(__name__)

CBE_RTOL = 1e-10
CONSISTENCY_RTOL = 1e-9
BIRCH_MAX_ITER = 200


class CbeCheck(NamedTuple):
    balanced: bool
    residual: float
    scale: float


def is_cbe(net: ReactionNetwork, x, tol: float | None = None) -> CbeCheck:
    """Test A_k x^Y = 0, relative to the largest single edge flow; float
    monomials or flows that overflow are refused (FloatRangeError)."""
    g = net.graph
    tails, heads = edge_ends(g, g.edges)
    with np.errstate(over="ignore", invalid="ignore"):
        a, mono = exact.common(laplacian_matrix(g), monomial_vector(net, x))
        # A[d, s] is the label of s->d, so the edge flows are A[d, s] x^y(s)
        residual = np.max(np.abs(a @ mono), initial=0)
        scale = np.max(np.abs(a[heads, tails] * mono[tails]), initial=0)
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise FloatRangeError("complex-balance flows leave the float64 range")
    balanced = residual <= exact.tolerance(mono, CBE_RTOL, lambda: scale, tol)
    return CbeCheck(bool(balanced), float(residual), float(scale))


def require_cbe(net: ReactionNetwork, x_star) -> np.ndarray:
    xs = check_state(x_star, net.n_species)
    if not is_cbe(net, x_star).balanced:
        raise NotACbeError("x_star is not a complex-balanced equilibrium")
    return np.asarray(xs, dtype=float)


@dataclass(frozen=True)
class CbeResult:
    status: str  # "found" | "infeasible"
    witness: np.ndarray | None
    log_residual: float


def solve_cbe(net: ReactionNetwork) -> CbeResult:
    """Solve the binomial equations in log coordinates.

    Consistency of (Y I_aux).T z = I_aux.T ln K decides existence; the
    minimum-norm solution makes the witness deterministic.  The answer does
    not depend on the auxiliary tree chosen.
    """
    net.require_weakly_reversible()
    tails, heads = edge_ends(net.graph, default_chain_aux(net.graph).edges)
    if not heads.size:
        witness = np.ones(net.n_species)
        return CbeResult(status="found", witness=witness, log_residual=0.0)
    yf = np.asarray(net.complexes, dtype=float)
    lhs = (yf[:, heads] - yf[:, tails]).T
    ln_k = np.log(net.tree_constants().as_float())
    rhs = ln_k[heads] - ln_k[tails]
    z, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    log_residual = float(np.linalg.norm(lhs @ z - rhs))
    # relative to the size of the terms: rhs is exactly 0 when the tree
    # constants are equal, and rounding alone must not flip the verdict
    abs_ln_k = np.abs(ln_k)
    term_norm = np.linalg.norm(np.abs(lhs) @ np.abs(z) + (abs_ln_k[heads] + abs_ln_k[tails]))
    if log_residual > CONSISTENCY_RTOL * term_norm:
        logger.debug("CBE system inconsistent: residual %.3e", log_residual)
        return CbeResult(status="infeasible", witness=None, log_residual=log_residual)
    return CbeResult(status="found", witness=np.exp(z), log_residual=log_residual)


def cbe_manifold_sample(net: ReactionNetwork, x_star, count: int, seed: int):
    """Points x = x_star o exp(w) with w random in span(S-perp basis)."""
    xs = require_cbe(net, x_star)
    w_basis = np.asarray(net.sperp_basis, dtype=float)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        if w_basis.shape[1] == 0:
            w = np.zeros(net.n_species)
        else:
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
    """
    xs = require_cbe(net, x_star)
    xp = np.asarray(check_state(x_prime, net.n_species), dtype=float)
    w = np.asarray(net.sperp_basis, dtype=float)
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
