"""Lyapunov decrease certificates, differential-inclusion membership, simulation.

The decrease certificate evaluates the entropy-like Lyapunov derivative
through the chain-core identity

    (ln(x/x*)).T f_k(x) = -a.T A_core b ,

with a = (Y I_aux).T ln(x/x*) >= 0 and b = I_aux.T diag(1/K) x^Y >= 0 on the
stratum picked by the monomial evaluation order, and A_core nonnegative with
positive diagonal.  The sign pattern alone certifies strict decrease.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .crn import ReactionNetwork, check_state, mass_action_rhs, scaled_monomials
from .equilibria import is_cbe, require_cbe, solve_cbe
from .errors import SemanticError, ShapeMismatchError, StepSizeUnderflowError
from .geometry import PolarReport, evaluation_cone, monomial_order, polar_interior_contains
from .graph import AuxTree, Edge, edge_ends
from .laplacian import core_matrix, laplacian_matrix

logger = logging.getLogger(__name__)

SIGN_RTOL = 1e-12
MANIFOLD_V_TOL = 1e-12


def lyapunov_value(x, x_star) -> float:
    """L(x) = sum x_i (ln(x_i/x*_i) - 1) + x*_i; zero exactly at x_star."""
    entries = list(x)
    xv = np.asarray(check_state(entries, len(entries)), dtype=float)
    xs = np.asarray(check_state(list(x_star), len(entries)), dtype=float)
    return float(np.sum(xv * (np.log(xv / xs) - 1.0) + xs))


def lyapunov_derivative(net: ReactionNetwork, x, x_star) -> float:
    """d/dt L = ln(x/x*) . f_k(x); negative away from the CBE manifold."""
    xs = require_cbe(net, x_star)
    xv = np.asarray(check_state(x, net.n_species), dtype=float)
    f = np.asarray(mass_action_rhs(net, x), dtype=float)
    return float(np.log(xv / xs) @ f)


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

    The aux tree is the monomial evaluation order at x, so both sign vectors
    are nonnegative; a "failure" verdict flags an implementation bug, not a
    property of the system.
    """
    xs = require_cbe(net, x_star)
    xv = np.asarray(check_state(x, net.n_species), dtype=float)
    aux = monomial_order(net, x)
    dec = core_matrix(net.graph, aux, consts=net.tree_constants())
    core = np.asarray(dec.core, dtype=float)
    tails, heads = edge_ends(net.graph, aux.edges)
    yf = np.asarray(net.complexes, dtype=float)
    z = np.log(xv / xs)
    scaled = np.asarray(scaled_monomials(net, x), dtype=float)
    a = (yf[:, heads] - yf[:, tails]).T @ z
    b = scaled[heads] - scaled[tails]
    value = float(-(a @ core @ b)) if a.size else 0.0

    scale_a = float(np.max(np.abs(yf.T @ z))) if a.size else 0.0
    scale_b = float(np.max(scaled)) if b.size else 0.0
    signs_ok = bool(np.all(a >= -SIGN_RTOL * max(scale_a, 1e-300))) and bool(
        np.all(b >= -SIGN_RTOL * max(scale_b, 1e-300))
    )
    b_zero = bool(np.all(np.abs(b) <= SIGN_RTOL * scale_b)) if b.size else True

    witness = None
    if not b_zero:
        for j, e in enumerate(aux.edges):
            if b[j] > SIGN_RTOL * scale_b and a[j] > SIGN_RTOL * max(scale_a, 1e-300):
                witness = e
                break
    if not signs_ok:
        verdict = "failure"
    elif b_zero:
        verdict = "equilibrium"
    elif value < 0:
        verdict = "strict_decrease"
    else:
        verdict = "failure"
    if verdict == "failure":
        logger.warning("certificate failure at x=%s (value=%r)", xv, value)
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

    Off the manifold (is_cbe at tolerance `tol`), v must lie in the
    polar-cone interior of every stratum cone containing x.  Those cones
    are the chain orders that break x's ties, and their union is the one
    evaluation cone, so one polar check decides.
    """
    vv = np.asarray(v, dtype=float)
    if vv.shape != (net.n_species,) or not np.all(np.isfinite(vv)):
        raise ShapeMismatchError(f"v must have {net.n_species} finite entries")
    if is_cbe(net, x, tol=tol).balanced:
        member = bool(np.max(np.abs(vv), initial=0.0) <= MANIFOLD_V_TOL)
        return BdiReport(on_manifold=True, member=member, cone=None)
    desc = evaluation_cone(net, x)
    polar = polar_interior_contains(desc, vv)
    return BdiReport(on_manifold=False, member=polar.contains, cone=(desc.edges, polar))


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


# Cash-Karp 5(4) embedded pair
_CK_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (
    2825 / 27648,
    0.0,
    18575 / 48384,
    13525 / 55296,
    277 / 14336,
    1 / 4,
)


def simulate(
    net: ReactionNetwork,
    x0,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    x_star=None,
    max_steps: int = 200_000,
) -> Trajectory:
    """Adaptive Cash-Karp 4(5) integration of dx/dt = f_k(x).

    Steps whose stages or endpoint leave the positive orthant are rejected
    and retried with half the step.  The Lyapunov value is recorded per
    accepted step against a supplied or solved equilibrium (omitted when no
    complex-balanced equilibrium exists).
    """
    if not 0 < t_end < np.inf:
        raise SemanticError(f"t_end must be finite and positive, got {t_end!r}")
    x = np.asarray(check_state(x0, net.n_species), dtype=float)
    yf = np.asarray(net.complexes, dtype=float)
    af = np.asarray(laplacian_matrix(net.graph), dtype=float)
    yt = yf.T

    def rhs(state: np.ndarray) -> np.ndarray:
        mono = np.exp(yt @ np.log(state))
        return yf @ (af @ mono)

    xs = None
    if x_star is not None:
        xs = np.asarray(check_state(x_star, net.n_species), dtype=float)
    elif net.is_weakly_reversible():
        sol = solve_cbe(net)
        if sol.status == "found":
            xs = sol.witness

    def lyap(state: np.ndarray) -> float:
        return float(np.sum(state * (np.log(state / xs) - 1.0) + xs))

    times = [0.0]
    states = [x.copy()]
    lyapunov = [lyap(x)] if xs is not None else None
    t = 0.0
    h = min(t_end, max(1e-6, t_end * 1e-3))
    h_min = 1e-14 * max(t_end, 1.0)
    accepted = rejected = 0
    k = [np.zeros_like(x) for _ in range(6)]
    for _ in range(max_steps):
        if t >= t_end:
            break
        h = min(h, t_end - t)
        if h < h_min:
            raise StepSizeUnderflowError(f"step size underflow at t={t:.6g}")
        positive = True
        for i in range(6):
            xi = x.copy()
            for j, aij in enumerate(_CK_A[i]):
                xi = xi + h * aij * k[j]
            if np.any(xi <= 0.0):
                positive = False
                break
            k[i] = rhs(xi)
        if positive:
            x5 = x + h * sum(b * k[i] for i, b in enumerate(_CK_B5))
            x4 = x + h * sum(b * k[i] for i, b in enumerate(_CK_B4))
            positive = bool(np.all(x5 > 0.0))
        if not positive:
            rejected += 1
            h /= 2
            continue
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.max(np.abs(x5 - x4) / scale))
        if err <= 1.0:
            t += h
            x = x5
            accepted += 1
            times.append(t)
            states.append(x.copy())
            if lyapunov is not None:
                lyapunov.append(lyap(x))
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            rejected += 1
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
    else:
        raise StepSizeUnderflowError(f"max_steps={max_steps} exhausted at t={t:.6g}")
    logger.debug("simulate: %d accepted, %d rejected steps", accepted, rejected)
    return Trajectory(
        times=times, states=states, lyapunov=lyapunov, accepted=accepted, rejected=rejected
    )
