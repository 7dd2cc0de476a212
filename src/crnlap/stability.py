"""Lyapunov decrease certificates, differential-inclusion membership, simulation.

The decrease certificate evaluates the entropy-like Lyapunov derivative
through the chain-core identity

    (ln(x/x*)).T f_k(x) = -a.T A_core b ,

with a = (Y I_aux).T ln(x/x*) >= 0 and b = I_aux.T diag(1/K) x^Y >= 0 on the
stratum picked by the monomial evaluation order, and A_core nonnegative with
positive diagonal.  The sign pattern alone certifies strict decrease: b_j > 0
on each chain edge leaving a tie group of the order.  The float A_core is
`laplacian.float_core`: on exact graphs each entry, rounded once from the
exact int sums, keeps its sign and is the cast exact core's, to the bit.
For a complex-balanced x*, a_j = ln(s_b / s_a) on each aux edge a -> b, with
s = diag(1/K) x^Y, so a and b are formed from the same scaled monomials and
share their signs.

The same stratum gives the binomial differential inclusion its witness:
f_k(x) = -Y I_aux lambda with lambda = A_core b >= 0, the net flow into each
lower set of the chain, so `bdi_report` can decide v = +-f_k(x) without the
Farkas LP (Horn and Jackson's stability argument; conditions there).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import exact
from .crn import ReactionNetwork, check_state, evaluate, mass_action_rhs
from .equilibria import is_cbe, require_cbe, solve_cbe
from .errors import FloatRangeError, SemanticError, ShapeMismatchError, StepSizeUnderflowError
from .geometry import (
    PolarReport,
    _cut_flow_cone,
    _order,
    evaluation_cone,
    monomial_order,
    polar_interior_contains,
)
from .graph import AuxTree, Edge, edge_ends
from .laplacian import float_core

logger = logging.getLogger(__name__)

MANIFOLD_V_TOL = 1e-12
MAX_STEPS = 200_000  # accepted and rejected steps of one `simulate` call


def _lyapunov(x: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum x*_i phi(x_i/x*_i), phi(r) = r ln r - r + 1 >= 0, over the last
    axis of x (one state, or states stacked), as x ln(x/x*) - x + x* with
    ln(x/x*) = ln x - ln x* (no ratio to over- or underflow), each term
    clamped at 0, where rounding near x* would take it below."""
    return np.sum(np.maximum(x * (np.log(x) - np.log(xs)) - x + xs, 0.0), axis=-1)


def lyapunov_value(x, x_star) -> float:
    """L(x) = sum x_i (ln(x_i/x*_i) - 1) + x*_i >= 0; zero exactly at x_star."""
    entries = list(x)
    xv = np.asarray(check_state(entries, len(entries)), dtype=float)
    xs = np.asarray(check_state(list(x_star), len(entries)), dtype=float)
    return float(_lyapunov(xv, xs))


def lyapunov_derivative(net: ReactionNetwork, x, x_star) -> float:
    """d/dt L = (ln x - ln x*) . f_k(x); negative away from the CBE manifold."""
    xs = require_cbe(net, x_star)
    state = evaluate(net, x)
    f = np.asarray(mass_action_rhs(net, state), dtype=float)
    return float((state.ln_x - np.log(xs)) @ f)


@dataclass(frozen=True)
class StabilityCertificate:
    aux: AuxTree
    a: np.ndarray  # (Y I_aux).T ln(x/x*)
    b: np.ndarray  # I_aux.T diag(1/K) x^Y
    core: np.ndarray
    value: float  # -a.T core b
    verdict: str  # "strict_decrease" | "equilibrium" | "failure"
    witness_edge: tuple[str, str] | None = None


def decrease_certificate(net: ReactionNetwork, x, x_star) -> StabilityCertificate:
    """Certificate of Lyapunov decrease at x for a complex-balanced system.

    The aux tree is the monomial evaluation order at x, so on an aux edge
    a -> b, b_j = s_b - s_a >= 0 (s = x^Y / K, exact when the state is) and,
    x*^Y being proportional to K per component, a_j = ln(s_b / s_a), taken
    as log1p(b_j / s_a) and as (y_b - y_a) . (ln x - ln x*) only where that
    ratio leaves float64.  No chain edge leaving a tie group of the order
    gives "equilibrium"; otherwise a negative value gives "strict_decrease",
    witnessed by the first such edge, and "failure" flags an implementation
    bug.  A b or value float64 cannot hold is refused.
    """
    xs = require_cbe(net, x_star)
    state = evaluate(net, x)
    aux = monomial_order(net, state)
    core = float_core(net.graph, aux, net.tree_constants())
    tails, heads = edge_ends(net.graph, aux.edges)
    s = state.scaled
    b = s[heads] - s[tails]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = b / s[tails]  # exact when s is; an exact one beyond float64 becomes inf
        a = np.log1p(np.where(ratio > np.finfo(float).max, np.inf, ratio).astype(float))
    far = ~np.isfinite(a)
    if far.any():
        yf = net.floats.complexes
        a[far] = ((yf[:, heads] - yf[:, tails]).T @ (state.ln_x - np.log(xs)))[far]
    b = exact.floats(b, "the certificate's b")
    value = float(-(a @ core @ b)) if a.size else 0.0
    if not (np.all(np.isfinite(b)) and np.isfinite(value)):
        raise FloatRangeError("the certificate's b or value leaves the float64 range")
    witness = next(((grps[0][-1], grps[1][0]) for grps in _order(state) if len(grps) > 1), None)
    verdict = "equilibrium" if witness is None else "strict_decrease" if value < 0 else "failure"
    if verdict == "failure":
        logger.warning("certificate failure at x=%s (value=%r)", state.x, value)
    return StabilityCertificate(
        aux=aux, a=a, b=b, core=core, value=value, verdict=verdict, witness_edge=witness
    )


@dataclass(frozen=True)
class BdiReport:
    """Membership of v in the binomial differential inclusion at a state.

    `cone` pairs the edges of the evaluation cone at x with its
    polar-interior check; it is None on the equilibrium manifold, where the
    inclusion is {0}.
    """

    on_manifold: bool
    member: bool
    cone: tuple[tuple[Edge, ...], PolarReport] | None


def bdi_report(net: ReactionNetwork, x, v, tol: float | None = None) -> BdiReport:
    """Evaluate the inclusion at x for v.

    A v with no float entry stays exact and is tested with tolerance 0; an
    exact entry beyond float64 is refused (FloatRangeError).  Off the
    manifold (is_cbe at tolerance `tol`), v must lie in the polar-cone
    interior of every stratum cone containing x.  Those cones are the chain
    orders that break x's ties, and their union is the one evaluation cone,
    so one polar check decides.

    For v exactly +-f_k(x) (`mass_action_rhs`, of the same exactness) at
    a tie-free x off the manifold, the cut flows lambda = A_core b, with
    f_k(x) = -N lambda on the chain edges, decide with no LP
    (`geometry._cut_flow_cone`) once min(lambda) / |v|_inf passes
    POLAR_STRICT_RTOL:
    - f_k(x), in S by construction, is a member with multipliers lambda
      and margin min(min(lambda) / |v|_inf, 1), a lower bound on the LP
      optimum that equals it at deficiency 0.  The rank condition holds: a
      chain spans its component, so im(N) = S.
    - -f_k(x) = N lambda is not, with multipliers -lambda and margin
      -max(lambda) / |v|_inf, when `net.cbe_exists`: a complex-balanced x*
      gives z = ln(x/x*) with N.T z > 0, so -f_k(x) . z > 0.  (At
      deficiency 0, where such an x* always exists, -lambda is the only
      multiplier vector.)  Without one ker(N) can hold a positive vector,
      and -f_k(x) is then a member.
    Any other v, a tie, a smaller min(lambda), and -f_k(x) where
    `cbe_exists` is False go to `polar_interior_contains`.  The report
    depends only on (net, x, v).
    """
    try:
        vf = np.asarray(v, dtype=float)
    except OverflowError:  # an exact entry beyond float64
        raise FloatRangeError("v leaves the float64 range") from None
    if vf.shape != (net.n_species,) or not np.all(np.isfinite(vf)):
        raise ShapeMismatchError(f"v must have {net.n_species} finite entries")
    vv = vf if any(isinstance(t, float) for t in v) else exact.vector(v)
    state = evaluate(net, x)
    if is_cbe(net, state, tol=tol).balanced:
        limit = exact.tolerance(vv, MANIFOLD_V_TOL, lambda: 1)  # absolute on floats
        member = bool(np.max(np.abs(vv), initial=0) <= limit)
        return BdiReport(on_manifold=True, member=member, cone=None)
    cone = _cut_flow_cone(net, state, vv)
    if cone is None:
        desc = evaluation_cone(net, state)
        cone = (desc.edges, polar_interior_contains(desc, vv))
    return BdiReport(on_manifold=False, member=cone[1].contains, cone=cone)


def bdi_membership(net: ReactionNetwork, x_star, x, v) -> bool:
    """Membership of v in the binomial differential inclusion at state x,
    for a network with complex-balanced equilibrium x_star."""
    require_cbe(net, x_star)
    return bdi_report(net, x, v).member


# -- trajectory simulation ---------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    times: list[float]
    states: list[np.ndarray]
    lyapunov: list[float] | None
    accepted: int
    rejected: int


# Cash-Karp 5(4) pair: stages, 5th-order weights, 5th- minus 4th-order weights
_CK_A = np.array(
    [
        [0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0],
        [3 / 10, -9 / 10, 6 / 5, 0, 0],
        [-11 / 54, 5 / 2, -70 / 27, 35 / 27, 0],
        [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
    ]
)
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_E = np.array([-277 / 64512, 0.0, 6925 / 370944, -6925 / 202752, -277 / 14336, 277 / 7084])


def simulate(
    net: ReactionNetwork,
    x0,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    x_star=None,
) -> Trajectory:
    """Adaptive Cash-Karp 5(4) integration of dx/dt = f_k(x) = N (k o x^{y(tail)}).

    The error test is |error| <= atol + rtol * x per species, so rtol and
    atol must be finite, >= 0 and not both 0 (SemanticError otherwise).
    Steps whose stages or endpoint leave the positive orthant are rejected
    and retried with half the step.  Stage 0 is x itself, which is positive,
    so its f_k(x) is evaluated once per accepted state, not per retry.  Each
    state is a distinct array.  The Lyapunov values, one per state, are
    computed after the last step against a supplied x* (`require_cbe`) or
    the solved one (omitted when no complex-balanced equilibrium exists).
    Y, k and N come from the network's float view.
    """
    if not 0 < t_end < np.inf:
        raise SemanticError(f"t_end must be finite and positive, got {t_end!r}")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0 <= tol < np.inf:
            raise SemanticError(f"{name} must be finite and >= 0, got {tol!r}")
    if rtol == atol == 0:
        raise SemanticError("rtol and atol must not both be 0")
    x = np.asarray(check_state(x0, net.n_species), dtype=float)
    yt = net.floats.complexes[:, net.tails].T
    nf, kf = net.floats.reactions, net.floats.rates

    def rhs(state: np.ndarray) -> np.ndarray:
        return nf @ (kf * np.exp(yt @ np.log(state)))

    xs = None
    if x_star is not None:
        xs = require_cbe(net, x_star)
    elif net.is_weakly_reversible():
        sol = solve_cbe(net)
        if sol.status == "found":
            xs = sol.witness

    times = [0.0]
    states = [x]
    t = 0.0
    h = min(t_end, max(1e-6, t_end * 1e-3))
    h_min = 1e-14 * max(t_end, 1.0)
    accepted = rejected = 0
    k = np.zeros((6, x.size))
    k[0] = rhs(x)
    for _ in range(MAX_STEPS):
        if t >= t_end:
            break
        h = min(h, t_end - t)
        if h < h_min:
            raise StepSizeUnderflowError(f"step size underflow at t={t:.6g}")
        for i in range(1, 6):
            # only this step's stages: a stale row never enters as 0 * inf
            xi = x + h * (_CK_A[i, :i] @ k[:i])
            if np.count_nonzero(xi <= 0.0):  # np.any's NaN rule, at less cost
                x5 = xi  # a stage left the orthant: rejected below, as an endpoint would be
                break
            k[i] = rhs(xi)
        else:
            x5 = x + h * (_CK_B5 @ k)
        if np.count_nonzero(x5 > 0.0) < x5.size:
            rejected += 1
            h /= 2
            continue
        err = float((np.abs(h * (_CK_E @ k)) / (atol + rtol * np.maximum(x, x5))).max())
        if err <= 1.0:
            t += h
            x = x5
            accepted += 1
            times.append(t)
            states.append(x)
            if t < t_end:  # the last state starts no step
                k[0] = rhs(x)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            rejected += 1
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
    else:
        raise StepSizeUnderflowError(f"max_steps={MAX_STEPS} exhausted at t={t:.6g}")
    logger.debug("simulate: %d accepted, %d rejected steps", accepted, rejected)
    lyapunov = None if xs is None else _lyapunov(np.array(states), xs).tolist()
    return Trajectory(
        times=times, states=states, lyapunov=lyapunov, accepted=accepted, rejected=rejected
    )
