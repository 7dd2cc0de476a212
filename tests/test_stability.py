import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crnlap import (
    bdi_membership,
    bdi_report,
    birch_intersect,
    build_digraph,
    build_network,
    cli,
    crn,
    core_matrix,
    decrease_certificate,
    equilibria,
    exact,
    geometry,
    is_cbe,
    lyapunov_derivative,
    lyapunov_value,
    mass_action_rhs,
    monomial_order,
    simulate,
    solve_cbe,
    stability,
)
from crnlap.errors import FloatRangeError, NonPositiveStateError, NotACbeError, SemanticError
from crnlap.geometry import POLAR_STRICT_RTOL
from crnlap.graph import edge_ends, make_aux_tree

from generators import (
    random_planted_network,
    random_positive_floats,
    random_positive_fractions,
    to_float_graph,
)
from conftest import SAMPLE_DIR
from oracles import (
    bdi_member_by_orders,
    fd_gradient,
    fraction_polar_report,
    reference_bdi_report,
    reference_birch,
    reference_certificate,
    reference_flows,
    reference_is_cbe,
    reference_monomials,
    reference_require_cbe,
    reference_scaled,
    reference_simulate,
    tie_chain_orders,
)


class TestLyapunovValue:
    def test_zero_at_equilibrium(self):
        assert lyapunov_value([1.3, 0.2], [1.3, 0.2]) == 0.0

    def test_e_one(self):
        assert lyapunov_value([math.e, 1.0], [1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_half_half(self):
        expected = 2 * (0.5 * (math.log(0.5) - 1) + 1)
        assert lyapunov_value([0.5, 0.5], [1, 1]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.30685, abs=1e-5)

    @pytest.mark.parametrize("x, xs", [(1e-320, 1e10), (1e300, 1e-10)])
    def test_ratio_beyond_float_range(self, x, xs):
        # x / x* underflows to 0 or overflows to inf; L does not
        expected = x * (math.log(x) - math.log(xs)) - x + xs
        assert lyapunov_value([x, 1.0], [xs, 1.0]) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_with_equality_only_at_x_star(self):
        rng = random.Random(51)
        for _ in range(50):
            xs = random_positive_floats(rng, 3)
            x = random_positive_floats(rng, 3)
            v = lyapunov_value(x, xs)
            assert v >= 0.0
            if not np.allclose(x, xs):
                assert v > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(52)
        for _ in range(10):
            xs = np.asarray(random_positive_floats(rng, 3))
            x = np.asarray(random_positive_floats(rng, 3))
            grad = np.log(x / xs)
            fd = fd_gradient(lambda q: lyapunov_value(list(q), list(xs)), x)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


class TestLyapunovDerivative:
    def test_zero_at_equilibrium(self, cycle3_net):
        assert lyapunov_derivative(cycle3_net, [1, 1], [1, 1]) == 0.0

    def test_cycle_value(self, cycle3_net):
        got = lyapunov_derivative(cycle3_net, [0.5, 0.5], [1, 1])
        expected = math.log(0.5) * (0.5 + 0.125)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-0.43321, abs=1e-5)

    def test_rejects_non_cbe_reference(self, cycle3_net):
        with pytest.raises(NotACbeError):
            lyapunov_derivative(cycle3_net, [1, 1], [0.5, 0.5])

    def test_negative_off_the_manifold(self, triangle_net):
        rng = random.Random(53)
        x_star = list(solve_cbe(triangle_net).witness)
        for _ in range(100):
            x = random_positive_floats(rng, 2)
            if is_cbe(triangle_net, x).balanced:
                continue
            assert lyapunov_derivative(triangle_net, x, x_star) < 0.0


class TestDecreaseCertificate:
    def test_cycle_worked_example(self, cycle3_net):
        cert = decrease_certificate(cycle3_net, [0.5, 0.5], [1, 1])
        assert cert.verdict == "strict_decrease"
        assert np.allclose(cert.a, [math.log(2), math.log(2)])
        assert np.allclose(cert.b, [0.125, 0.25])
        assert cert.core.tolist() == [[1.0, 1.0], [0.0, 1.0]]
        assert cert.value == pytest.approx(-0.433216987, rel=1e-8)
        assert cert.value == pytest.approx(
            lyapunov_derivative(cycle3_net, [0.5, 0.5], [1, 1]), rel=1e-12
        )
        assert cert.witness_edge is not None

    def test_equilibrium_verdict(self, cycle3_net):
        cert = decrease_certificate(cycle3_net, [1, 1], [1, 1])
        assert cert.verdict == "equilibrium"
        assert np.allclose(cert.b, 0.0)

    def test_never_failure_on_random_instances(self):
        rng = random.Random(54)
        for _ in range(40):
            net, x_star = random_planted_network(rng)
            for _ in range(5):
                x = random_positive_floats(rng, net.n_species)
                cert = decrease_certificate(net, x, x_star)
                assert cert.verdict in ("strict_decrease", "equilibrium")
                assert np.all(cert.a >= -1e-9)
                assert np.all(cert.b >= -1e-9)
                assert cert.value <= 0.0
                xs = np.asarray([float(v) for v in x_star])
                expected = lyapunov_derivative(net, x, x_star)
                scale = max(abs(expected), 1e-300)
                assert abs(cert.value - expected) <= 1e-10 * max(scale, 1.0)


class TestBdiMembership:
    def test_vector_field_is_member(self, cycle3_net):
        f = mass_action_rhs(cycle3_net, [0.5, 0.5])
        assert bdi_membership(cycle3_net, [1, 1], [0.5, 0.5], f)

    def test_zero_on_manifold(self, cycle3_net):
        assert bdi_membership(cycle3_net, [1, 1], [1, 1], np.zeros(2))
        assert not bdi_membership(cycle3_net, [1, 1], [1, 1], np.array([1e-6, 0]))

    def test_negated_field_is_not_member(self, cycle3_net):
        f = np.asarray(mass_action_rhs(cycle3_net, [0.5, 0.5]), dtype=float)
        assert not bdi_membership(cycle3_net, [1, 1], [0.5, 0.5], -f)

    def test_boundary_state_enumerates_orders(self, cycle3_net):
        # x = (t, t^2) ties the scaled monomials of vertices 1 and 2, landing
        # on the shared boundary of two strata
        t = 0.8
        x = [t, t * t]
        assert len(tie_chain_orders(cycle3_net, x)) == 2
        # on the sparse cycle the field lies on the boundary of the polar
        # intersection (a ray dual to the tie pairs to exactly zero), so
        # strict membership fails there, as it does order by order
        f = mass_action_rhs(cycle3_net, x)
        assert not bdi_membership(cycle3_net, [1, 1], x, f)
        assert not bdi_member_by_orders(cycle3_net, x, f)

    def test_boundary_state_member_on_complete_component(self):
        # with every cross edge present the core matrix is entrywise positive
        # and strictness survives on stratum boundaries
        from crnlap import build_digraph, build_network

        edges = [(a, b, Fraction(1)) for a in "123" for b in "123" if a != b]
        g = build_digraph(["1", "2", "3"], edges)
        net = build_network(["X1", "X2"], [[2, 0, 1], [1, 2, 0]], g)
        assert is_cbe(net, [1, 1]).balanced
        t = 0.8
        x = [t, t * t]
        assert len(tie_chain_orders(net, x)) == 2
        f = mass_action_rhs(net, x)
        assert bdi_membership(net, [1, 1], x, f)
        assert bdi_member_by_orders(net, x, f)

    def test_exact_v_beyond_float64_refused(self, cycle3_net):
        # v is taken as float64: an exact entry it cannot hold is refused
        # with FloatRangeError, not an OverflowError
        x = [Fraction(1, 2), Fraction(1, 2)]
        with pytest.raises(FloatRangeError, match="v leaves the float64 range"):
            bdi_membership(cycle3_net, [1, 1], x, [Fraction(10**400), 1])
        assert bdi_membership(cycle3_net, [1, 1], x, mass_action_rhs(cycle3_net, x))

    def test_embedding_random_sweep(self):
        rng = random.Random(55)
        for _ in range(25):
            net, x_star = random_planted_network(rng)
            for _ in range(4):
                x = random_positive_floats(rng, net.n_species)
                if is_cbe(net, x).balanced:
                    continue
                f = mass_action_rhs(net, x)
                assert bdi_membership(net, x_star, x, f)


def _simplex_calls(monkeypatch) -> list:
    """One entry per Farkas LP that `geometry._simplex` solves."""
    calls = []
    real = geometry._simplex
    monkeypatch.setattr(geometry, "_simplex", lambda *a: calls.append(a) or real(*a))
    return calls


def _lp_member(net, x, v) -> bool:
    """The Fraction-tableau LP's verdict on the evaluation cone at x."""
    return fraction_polar_report(geometry.evaluation_cone(net, x), v).contains


class TestCutFlowWitness:
    """For v = +-f_k(x) at a tie-free state off the manifold, the paper's
    lambda = A_core b, the net flow into each lower set of the chain,
    decides the inclusion without the Farkas LP, with the LP's verdict."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cut_flows_are_core_times_b(self, seed):
        rng = random.Random(seed)
        net, _ = random_planted_network(rng, n_species_max=4, n_vertices_max=7)
        state = crn.evaluate(net, random_positive_fractions(rng, net.n_species))
        cut = geometry._cut_flows(net, state)
        assume(cut is not None and not is_cbe(net, state).balanced)
        edges, lam = cut
        aux = monomial_order(net, state)
        assert edges == aux.edges
        tails, heads = edge_ends(net.graph, edges)
        b = state.scaled[heads] - state.scaled[tails]
        core = core_matrix(net.graph, aux, consts=net.tree_constants()).core
        assert all(type(mu) is Fraction and mu > 0 for mu in lam)
        assert lam == (core @ b).tolist()
        y = net.complexes
        assert ((y[:, heads] - y[:, tails]) @ exact.vector(lam)).tolist() == (
            (-mass_action_rhs(net, state)).tolist()
        )

    def test_plus_minus_f_without_lp(self, monkeypatch):
        rng = random.Random(28)
        calls = _simplex_calls(monkeypatch)
        decided = float_deficient = 0
        for _ in range(30):
            net, _ = random_planted_network(rng, n_species_max=3, n_vertices_max=6)
            y = net.complexes.tolist()
            copies = (
                (net, random_positive_fractions(rng, net.n_species)),
                (build_network(net.species, y, to_float_graph(net.graph)),
                 random_positive_floats(rng, net.n_species)),
                (build_network(net.species, [[float(v) for v in row] for row in y], net.graph),
                 random_positive_floats(rng, net.n_species)),
            )
            for nt, x in copies:
                if is_cbe(nt, x).balanced or geometry._cut_flows(nt, crn.evaluate(nt, x)) is None:
                    continue
                # every copy of a planted network has an equilibrium, float
                # copies of positive deficiency too, so no LP runs
                assert nt.cbe_exists
                f = mass_action_rhs(nt, x)
                for v, want in ((f, True), (-f, False)):
                    calls.clear()
                    member = bdi_report(nt, x, v).member
                    assert calls == [] and member is want
                    assert member == _lp_member(nt, x, v) == bdi_member_by_orders(nt, x, v)
                decided += 1
                float_deficient += not nt.exact and nt.deficiency > 0
        assert decided > 60 and float_deficient > 10

    def test_margin_capped_at_one(self, monkeypatch):
        # min lambda = 5/36 exceeds |f_k(x)|_inf = 1/9; at deficiency 0 the
        # LP's lambda is the same, and both margins are capped at 1
        g = build_digraph(["1", "2", "3"], [
            ("1", "2", Fraction(3, 8)), ("2", "3", Fraction(3, 16)), ("3", "1", Fraction(3, 8)),
        ])
        net = build_network(["X1", "X2"], [[1, 2, 3], [2, 2, 0]], g)
        x = [Fraction(2, 3), Fraction(1)]
        calls = _simplex_calls(monkeypatch)
        f = mass_action_rhs(net, x)
        assert geometry._cut_flows(net, crn.evaluate(net, x))[1] == [Fraction(1, 6), Fraction(5, 36)]
        report = bdi_report(net, x, f)
        assert calls == [] and report.cone[1].margin == 1.0
        assert report == reference_bdi_report(net, x, f)

    def test_near_the_manifold(self, monkeypatch):
        # float states a relative 1e-9 from x*, where f_k(x) is small against
        # the flows that round into it and into its lineality products:
        # f_k(x) lies in S by construction, so it is a member and -f_k(x) is
        # not, as at the same x in exact mode; the LP agrees where its own
        # lineality test passes
        rng = random.Random(5)
        calls = _simplex_calls(monkeypatch)
        decided = 0
        for _ in range(60):
            net, x_star = random_planted_network(rng, n_species_max=3, n_vertices_max=6)
            x = [float(v) * (1 + 1e-9 * rng.uniform(-1, 1)) for v in x_star]
            if is_cbe(net, x).balanced or geometry._cut_flows(net, crn.evaluate(net, x)) is None:
                continue
            f = mass_action_rhs(net, x)
            exact_f = mass_action_rhs(net, [Fraction(t) for t in x])
            for v, v_exact in ((f, exact_f), (-f, -exact_f)):
                calls.clear()
                member = bdi_report(net, x, v).member
                assert calls == [] and member is (v is f)
                assert member is bdi_report(net, [Fraction(t) for t in x], v_exact).member
                if geometry._lineality(*exact.common(v, net.sperp_basis))[1]:
                    assert member == _lp_member(net, x, v) == bdi_member_by_orders(net, x, v)
                decided += 1
        assert decided > 60

    def test_lp_decides_elsewhere(self, two_component_net, monkeypatch):
        net = two_component_net
        calls = _simplex_calls(monkeypatch)
        tie = [2, Fraction(1, 2)]  # x^y(4) / K_4 = x^y(5) / K_5
        f = mass_action_rhs(net, [Fraction(1, 2), Fraction(3, 2)])
        # min lambda / |f|_inf is 5e-15: vertices 4 and 5 a relative 1e-11 apart
        near = [1000.0, (1 + 1e-11) / 1000]
        cut = geometry._cut_flows(net, crn.evaluate(net, near))
        assert min(cut[1]) < POLAR_STRICT_RTOL * np.max(np.abs(mass_action_rhs(net, near)))
        for x, v in (
            (tie, mass_action_rhs(net, tie)),
            ([Fraction(1, 2), Fraction(3, 2)], 2 * f),
            ([Fraction(1, 2), Fraction(3, 2)], Fraction(1, 10**9) * f),
            (near, mass_action_rhs(net, near)),
        ):
            calls.clear()
            member = bdi_report(net, x, v).member
            assert len(calls) == 1
            assert member == _lp_member(net, x, v) == bdi_member_by_orders(net, x, v)

    @staticmethod
    def _deficiency_one(a, b, c):
        """0 -> X -> 2X -> 0 with rates a, b, c: K = (bc, ca, ab), so a
        complex-balanced equilibrium exists iff K_X^2 = K_0 K_2X, ca = b^2."""
        g = build_digraph(["0", "X", "2X"], [("0", "X", a), ("X", "2X", b), ("2X", "0", c)])
        return build_network(["X"], [[0, 1, 2]], g)

    def test_minus_f_needs_an_equilibrium(self, monkeypatch):
        # rates 4, 1, 4 have no equilibrium, and x = 2 orders X < 0 < 2X,
        # whose chain normals -1, 2 have the positive kernel vector (2, 1):
        # at deficiency 1 the LP finds -f_k(x) a member too, and it decides,
        # not the cut flows
        net = self._deficiency_one(Fraction(4), Fraction(1), Fraction(4))
        assert (net.deficiency, net.cbe_exists) == (1, False)
        assert solve_cbe(net).status == "infeasible"
        calls = _simplex_calls(monkeypatch)
        f = mass_action_rhs(net, [2])
        assert bdi_report(net, [2], f).member and calls == []
        report = bdi_report(net, [2], -f)
        assert report.member and len(calls) == 1
        assert report.member == _lp_member(net, [2], -f)
        # rates 1, 2, 4 have ca = b^2 and the equilibrium x* = 1/2: the cut
        # flows decide
        net = self._deficiency_one(Fraction(1), Fraction(2), Fraction(4))
        calls.clear()
        assert net.cbe_exists and not bdi_report(net, [2], -mass_action_rhs(net, [2])).member
        assert calls == []

    def test_minus_f_ignores_an_x_star_within_tolerance(self, monkeypatch):
        # rates 1, 1, 1 + 1e-12 have no equilibrium: x* = 1 balances within
        # CBE_RTOL, yet require_cbe refuses it; at x = 1 - 1e-13, off the
        # manifold and with no tie, -f_k(x) is a member, before and after
        rates = (Fraction(1), Fraction(1), 1 + Fraction(1, 10**12))
        x = [1 - Fraction(1, 10**13)]
        fresh, net = self._deficiency_one(*rates), self._deficiency_one(*rates)
        f = mass_action_rhs(net, x)
        check = is_cbe(net, [1.0])
        assert not check.balanced and check.residual <= equilibria.CBE_RTOL * check.scale
        with pytest.raises(NotACbeError):
            equilibria.require_cbe(net, [1.0])
        with pytest.raises(NotACbeError):
            bdi_membership(net, [1.0], x, -f)
        assert not net.cbe_exists and geometry._cut_flows(net, crn.evaluate(net, x))
        calls = _simplex_calls(monkeypatch)
        report = bdi_report(net, x, -f)
        assert report.member and len(calls) == 1
        assert report == bdi_report(fresh, x, -f) == reference_bdi_report(net, x, -f)
        assert _lp_member(net, x, -f) and bdi_member_by_orders(net, x, -f)

    def test_minus_f_on_a_float_network_without_an_equilibrium(self, monkeypatch):
        # float rates 1, 1, 1.000000001 miss ca = b^2 by 1e-9, far above
        # rounding: no equilibrium, so at x = 1 - 2e-10, off the manifold
        # (residual 8e-10 of the largest flow) and ordered X < 0 < 2X with
        # no tie, the LP decides -f_k(x), and finds it a member
        net = self._deficiency_one(1.0, 1.0, 1.000000001)
        x = [1 - 2e-10]
        assert not net.cbe_exists and not is_cbe(net, x).balanced
        assert geometry._cut_flows(net, crn.evaluate(net, x))
        calls = _simplex_calls(monkeypatch)
        f = mass_action_rhs(net, x)
        assert bdi_report(net, x, f).member and calls == []
        report = bdi_report(net, x, -f)
        assert report.member and len(calls) == 1
        assert report.member == _lp_member(net, x, -f)
        assert report == reference_bdi_report(net, x, -f)

    def test_lp_decides_without_a_finite_nonzero_f(self, monkeypatch):
        calls = _simplex_calls(monkeypatch)
        # 0 -> X -> 2X -> 0 with rates 3, 1, 1 has no complex-balanced
        # equilibrium; f_k(x) = 3 + x - 2x^2 vanishes off the manifold at 3/2
        g = build_digraph(["0", "X", "2X"], [
            ("0", "X", Fraction(3)), ("X", "2X", Fraction(1)), ("2X", "0", Fraction(1)),
        ])
        zero = build_network(["X"], [[0, 1, 2]], g)
        # X <-> 3X at x = 5e102: the flows stay finite, f_k(x) = 2x - 2x^3 does not
        g = build_digraph(["1", "3"], [("1", "3", Fraction(1)), ("3", "1", Fraction(1))])
        overflow = build_network(["X"], [[1, 3]], g)
        with pytest.raises(FloatRangeError):
            mass_action_rhs(overflow, [5e102])
        for net, x, v in ((zero, [Fraction(3, 2)], [0]), (overflow, [5e102], [-1.0])):
            calls.clear()
            report = bdi_report(net, x, v)
            assert len(calls) == 1
            assert report == reference_bdi_report(net, x, v)


class TestSimulate:
    @pytest.mark.parametrize(
        "rtol, atol, message",
        [
            (-1.0, 1e-10, "rtol must be finite and >= 0"),
            (1e-8, -1e-3, "atol must be finite and >= 0"),
            (math.nan, 1e-10, "rtol must be finite"),
            (math.inf, 1e-10, "rtol must be finite"),
            (1e-8, math.inf, "atol must be finite"),
            (0.0, 0.0, "rtol and atol must not both be 0"),
        ],
    )
    def test_rejects_bad_tolerances(self, cycle3_net, rtol, atol, message):
        with pytest.raises(SemanticError, match=message):
            simulate(cycle3_net, [0.5, 1.5], 1.0, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("rtol, atol", [(1e-8, 0.0), (0.0, 1e-8)])
    def test_one_zero_tolerance_accepted(self, cycle3_net, rtol, atol):
        traj = simulate(cycle3_net, [0.5, 1.5], 1.0, rtol=rtol, atol=atol)
        assert traj.times[-1] == 1.0 and traj.accepted > 0

    def test_cycle_converges_with_monotone_lyapunov(self, cycle3_net):
        traj = simulate(cycle3_net, [0.5, 0.5], 50.0)
        assert np.max(np.abs(traj.states[-1] - 1.0)) <= 1e-6
        L = traj.lyapunov
        assert L is not None
        assert all(L[i + 1] <= L[i] + 1e-9 for i in range(len(L) - 1))

    def test_lyapunov_never_negative_near_equilibrium(self, triangle_net):
        # x (ln(x/x*) - 1) + x* cancels to rounding near x*: it gave values
        # down to -4.4e-16 on this trajectory
        traj = simulate(triangle_net, [0.001, 10.0], 30.0)
        assert min(traj.lyapunov) >= 0.0 and traj.lyapunov[-1] <= 1e-12
        # one formula: the values are lyapunov_value's
        xs = solve_cbe(triangle_net).witness
        assert traj.lyapunov == [lyapunov_value(x, xs) for x in traj.states]

    def test_rejects_non_equilibrium_x_star(self, cycle3_net):
        # x* = (2, 2) has balance residual 6 against the largest flow 8
        with pytest.raises(NotACbeError):
            simulate(cycle3_net, [0.5, 1.5], 1.0, x_star=[2, 2])
        traj = simulate(cycle3_net, [0.5, 1.5], 1.0, x_star=[1, 1])
        assert traj.lyapunov == [lyapunov_value(x, [1, 1]) for x in traj.states]

    def test_constant_at_equilibrium(self, cycle3_net):
        traj = simulate(cycle3_net, [1.0, 1.0], 10.0)
        for s in traj.states:
            assert np.max(np.abs(s - 1.0)) <= 1e-9

    def test_conservation_along_trajectory(self, xy_net):
        traj = simulate(xy_net, [0.3, 1.1], 20.0)
        sperp = xy_net.sperp_basis
        w = np.asarray(sperp, dtype=float)[:, 0]
        c0 = w @ traj.states[0]
        for s in traj.states:
            assert abs(w @ s - c0) <= 1e-7 * max(1.0, abs(c0))

    def test_converges_to_birch_point(self):
        rng = random.Random(56)
        done = 0
        while done < 6:
            net, x_star = random_planted_network(rng)
            # keep the dynamics tame: skip extreme rate constants
            if net.graph.n_edges == 0:
                continue
            if max(float(k) for k in net.graph.labels.values()) > 20.0:
                continue
            x0 = random_positive_floats(rng, net.n_species)
            target = birch_intersect(net, x_star, x0)
            tol = 1e-5 * max(1.0, float(np.max(np.abs(target))))
            state = x0
            for _ in range(4):  # per-network calibration: extend in chunks
                traj = simulate(net, state, 300.0)
                state = list(traj.states[-1])
                if np.max(np.abs(traj.states[-1] - target)) <= tol:
                    break
            assert np.max(np.abs(np.asarray(state) - target)) <= tol
            done += 1

    def test_near_boundary_start_stays_positive_and_converges(self, cycle3_net):
        traj = simulate(cycle3_net, [1e-3, 10.0], 30.0)
        assert all(np.all(s > 0) for s in traj.states)
        assert np.max(np.abs(traj.states[-1] - 1.0)) <= 1e-5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_positivity_guard_counts_rejections(self):
        # A -> 0 at rate 10^4: the first steps from x = 1 (h = 1e-3, 5e-4,
        # 2.5e-4) overshoot below 0 and are rejected before any log of a
        # negative state is taken
        g = build_digraph(["A", "0"], [("A", "0", 10**4), ("0", "A", 1)])
        traj = simulate(build_network(["A"], [[1, 0]], g), [1.0], 1.0)
        assert all(np.all(s > 0) for s in traj.states)
        assert traj.rejected >= 3
        assert abs(traj.states[-1][0] - 1e-4) <= 1e-6


def _assert_same_trajectory(got, want):
    assert got.times == want.times
    assert [s.tolist() for s in got.states] == [s.tolist() for s in want.states]
    assert got.lyapunov == want.lyapunov
    assert (got.accepted, got.rejected) == (want.accepted, want.rejected)


class TestSimulateAgainstReference:
    """`simulate` evaluates stage 0 once per accepted state and the Lyapunov
    values after the loop; `reference_simulate` evaluates every stage on every
    attempt and L step by step.  The trajectories must be equal bit for bit."""

    def test_planted_networks(self):
        rng = random.Random(57)
        for _ in range(32):
            net, x_star = random_planted_network(rng, 3, 6)
            x0 = random_positive_floats(rng, net.n_species)
            got = simulate(net, x0, 0.5, x_star=x_star)
            _assert_same_trajectory(got, reference_simulate(net, x0, 0.5, x_star=x_star))
            assert len({id(s) for s in got.states}) == len(got.states)

    def test_positivity_guard_rejections(self):
        g = build_digraph(["A", "0"], [("A", "0", 10**4), ("0", "A", 1)])
        net = build_network(["A"], [[1, 0]], g)
        got = simulate(net, [1.0], 1.0)
        assert got.rejected >= 3
        _assert_same_trajectory(got, reference_simulate(net, [1.0], 1.0))

    def test_near_boundary_start(self, cycle3_net):
        got = simulate(cycle3_net, [1e-3, 10.0], 30.0, x_star=[1, 1])
        _assert_same_trajectory(got, reference_simulate(cycle3_net, [1e-3, 10.0], 30.0, x_star=[1, 1]))

    def test_without_x_star(self, triangle_net):
        # the equilibrium is solved, or absent off weakly reversible networks
        got = simulate(triangle_net, [0.001, 10.0], 30.0)
        assert got.lyapunov is not None
        _assert_same_trajectory(got, reference_simulate(triangle_net, [0.001, 10.0], 30.0))
        g = build_digraph(["1", "2"], [("1", "2", Fraction(3, 2))])
        net = build_network(["A", "B"], [[1, 0], [0, 1]], g)
        got = simulate(net, [1.0, 0.5], 2.0)
        assert got.lyapunov is None
        _assert_same_trajectory(got, reference_simulate(net, [1.0, 0.5], 2.0))


def _dimer_1e150():
    """A <-> 2A with float labels 1e150 and 1: x* = 1e150."""
    g = build_digraph(["1", "2"], [("1", "2", 1e150), ("2", "1", 1.0)])
    return build_network(["A"], [[1, 2]], g)


class TestLogRatioBeyondFloatRange:
    """ln(x/x*) is ln x - ln x*: at x = 1e-200, x* = 1e150 the ratio
    underflows to 0, and its log would be -inf."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_certificate_finite(self):
        cert = decrease_certificate(_dimer_1e150(), [1e-200], [1e150])
        ln_ratio = math.log(1e-200) - math.log(1e150)
        assert cert.a.tolist() == [-ln_ratio]  # aux edge 2 -> 1: y(1) - y(2) = -1
        assert math.isfinite(cert.value) and cert.value < 0
        assert cert.verdict == "strict_decrease"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_certificate_exact_ratio_beyond_float64(self):
        # the exact dimer: s = (10^-200, 10^-550), so s_1 / s_2 = 10^350 is
        # no float, and a falls back to (y_1 - y_2) . (ln x - ln x*)
        g = build_digraph(["1", "2"], [("1", "2", 10**150), ("2", "1", 1)])
        net = build_network(["A"], [[1, 2]], g)
        x = Fraction(1, 10**200)
        cert = decrease_certificate(net, [x], [10**150])
        assert cert.a.tolist() == [math.log(1e150) - math.log(1e-200)]
        assert cert.b.tolist() == [float(x - x**2 / 10**150)]
        assert math.isfinite(cert.value) and cert.value < 0
        assert cert.verdict == "strict_decrease"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lyapunov_derivative_finite(self):
        net = _dimer_1e150()
        f = float(mass_action_rhs(net, [1e-200])[0])
        got = lyapunov_derivative(net, [1e-200], [1e150])
        assert got == (math.log(1e-200) - math.log(1e150)) * f
        assert math.isfinite(got) and got < 0


def _assert_same_certificate(got, want):
    assert got.aux == want.aux
    for name in ("a", "b", "core"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    assert (got.value, got.verdict, got.witness_edge) == (
        want.value, want.verdict, want.witness_edge
    )


def _assert_same_bdi_report(net, x, v, got, want):
    """`bdi_report` against the LP's report.  They are equal except where
    the cut flows of a tie-free state answer v = +-f_k(x): then the verdict,
    cone and lineality products are equal; at deficiency 0 the multipliers
    and margin are the LP's unique ones up to rounding, and otherwise they
    are a Farkas certificate, N lambda = -v, with margin at most the LP's."""
    if got == want:
        return
    assert geometry._cut_flows(net, crn.evaluate(net, x)) is not None
    (edges, polar), (want_edges, lp) = got.cone, want.cone
    assert (got.on_manifold, got.member, edges) == (want.on_manifold, want.member, want_edges)
    assert (polar.contains, polar.lineality_products) == (lp.contains, lp.lineality_products)
    # the margin is the reported multipliers' own, and a member's are > 0
    v_scale = np.max(np.abs(v))
    assert polar.margin == pytest.approx(min(min(polar.multipliers) / v_scale, 1.0), rel=1e-12)
    assert not got.member or min(polar.multipliers) > 0
    if net.deficiency == 0:
        assert polar.multipliers == pytest.approx(lp.multipliers, rel=1e-12)
        assert polar.margin == pytest.approx(lp.margin, rel=1e-12)
        return
    tails, heads = edge_ends(net.graph, edges)
    y = np.asarray(net.complexes, dtype=float)
    normals = y[:, heads] - y[:, tails]
    residual = np.max(np.abs(normals @ np.asarray(polar.multipliers) + v))
    assert residual <= 1e-12 * np.max(np.abs(v))
    assert polar.margin <= lp.margin + 1e-12 * max(1.0, abs(lp.margin))


def _assert_same_evaluation(net, x, x_star):
    """The library against the per-call evaluation path of `oracles`."""
    state = crn.evaluate(net, x)
    for name, ref in (
        ("monomials", reference_monomials),
        ("flows", reference_flows),
        ("scaled", reference_scaled),
    ):
        got, want = getattr(state, name), ref(net, x)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    want = reference_require_cbe(net, x_star)
    assert equilibria.require_cbe(net, x_star).tolist() == want.tolist()
    _assert_same_certificate(
        decrease_certificate(net, x, x_star), reference_certificate(net, x, x_star)
    )
    f = np.asarray(mass_action_rhs(net, x), dtype=float)
    for v in (f, -f):
        _assert_same_bdi_report(net, x, v, bdi_report(net, x, v), reference_bdi_report(net, x, v))
    for state in (x, x_star):
        assert is_cbe(net, state) == reference_is_cbe(net, state)
    assert birch_intersect(net, x_star, x).tolist() == reference_birch(net, x_star, x).tolist()
    ln_ratio = np.log(np.asarray(x, dtype=float)) - np.log(np.asarray(x_star, dtype=float))
    assert lyapunov_derivative(net, x, x_star) == float(ln_ratio @ f)


class TestEvaluationAgainstReference:
    """With each state evaluated once per call and x* checked once per
    network, results equal those of the path that evaluates x and checks x*
    on every call, bit for bit."""

    def test_planted_networks(self):
        rng = random.Random(59)
        multi_component = 0
        for _ in range(24):
            net, x_star = random_planted_network(rng, 3, 6)
            multi_component += net.graph.n_components > 1
            xs_float = [float(v) for v in x_star]
            float_net = build_network(
                net.species, net.complexes.tolist(), to_float_graph(net.graph)
            )
            for nt, xs in ((net, x_star), (net, xs_float), (float_net, xs_float)):
                for x in (
                    random_positive_fractions(rng, net.n_species),
                    random_positive_floats(rng, net.n_species),
                    xs,
                ):
                    _assert_same_evaluation(nt, x, xs)
        assert multi_component

    def test_two_component_tie(self, two_component_net):
        # x^y(4) / K_4 = x^y(5) / K_5 at x = (2, 0.5): a tie that fills {4, 5}
        net = two_component_net
        float_net = build_network(
            net.species, net.complexes.tolist(), to_float_graph(net.graph)
        )
        for nt in (net, float_net):
            for x in ([2, Fraction(1, 2)], [2.0, 0.5]):
                _assert_same_evaluation(nt, x, [1, 1])
                assert geometry.evaluation_order(nt, x)[1] == [["4", "5"]]


def _count_evaluations(monkeypatch) -> list:
    """The x of each state record `crn.evaluate` builds, wherever it is bound."""
    built = []
    real = crn.evaluate

    def counting(net, x):
        if not isinstance(x, crn.State):
            built.append(x)
        return real(net, x)

    for mod in (crn, equilibria, geometry, stability, cli):
        if hasattr(mod, "evaluate"):
            monkeypatch.setattr(mod, "evaluate", counting)
    return built


class TestOneEvaluationPerState:
    def test_certificate_evaluates_x_once(self, cycle3_net, monkeypatch):
        built = _count_evaluations(monkeypatch)
        decrease_certificate(cycle3_net, [0.5, 0.5], [1, 1])
        assert built == [[1, 1], [0.5, 0.5]]  # x* only while the slot is empty
        built.clear()
        decrease_certificate(cycle3_net, [0.5, 0.5], [1, 1])
        assert built == [[0.5, 0.5]]

    def test_bdi_report_evaluates_x_once(self, two_component_net, monkeypatch):
        built = _count_evaluations(monkeypatch)
        for x in ([0.5, 0.5], [2, 0.5], [1, 1]):  # strict order, a tie, the manifold
            built.clear()
            bdi_report(two_component_net, x, [1.0, -1.0])
            assert built == [x]

    def test_is_cbe_evaluates_x_once(self, cycle3_net, monkeypatch):
        built = _count_evaluations(monkeypatch)
        is_cbe(cycle3_net, [0.5, 0.5])
        assert built == [[0.5, 0.5]]

    def test_state_of_another_network_refused(self, cycle3_net, triangle_net):
        state = crn.evaluate(cycle3_net, [0.5, 0.5])
        assert crn.evaluate(cycle3_net, state) is state
        with pytest.raises(TypeError):
            is_cbe(triangle_net, state)

    def test_repeated_require_cbe_tests_once(self, triangle_net, monkeypatch):
        # equilibria.is_cbe as require_cbe calls it; bdi_report's test of x
        # goes through the name stability binds, which this leaves alone
        calls = []
        real = equilibria.is_cbe
        monkeypatch.setattr(equilibria, "is_cbe", lambda *a, **k: calls.append(a) or real(*a, **k))
        x_star = list(solve_cbe(triangle_net).witness)
        first = equilibria.require_cbe(triangle_net, x_star)
        decrease_certificate(triangle_net, [0.5, 1.5], x_star)
        bdi_membership(triangle_net, x_star, [0.5, 1.5], [1.0, 0.0])
        birch_intersect(triangle_net, x_star, [0.5, 1.5])
        assert len(calls) == 1
        assert equilibria.require_cbe(triangle_net, x_star) is first
        assert not first.flags.writeable

    def test_require_cbe_takes_a_state(self, triangle_net, monkeypatch):
        x_star = list(solve_cbe(triangle_net).witness)
        state = crn.evaluate(triangle_net, x_star)
        built = _count_evaluations(monkeypatch)
        got = equilibria.require_cbe(triangle_net, state)
        assert built == []  # the record is tested, not built again
        assert got.tolist() == [float(v) for v in x_star]


def _twin(net):
    """A network equal to net, with empty state slots."""
    return build_network(net.species, net.complexes.tolist(), net.graph)


class TestStateSlot:
    """`evaluate` keeps the last State per network: what is read off a raw x
    equals what a fresh State of x gives, also once another x has replaced
    the slot, and a State's arrays, f_k(x) among them, are read-only."""

    @staticmethod
    def _results(net, x, x_star) -> tuple:
        """Every certificate field, f, the inclusion at +-f and is_cbe; x is
        passed to each call as it is."""
        cert = decrease_certificate(net, x, x_star)
        f = mass_action_rhs(net, x)
        return (
            cert.aux, cert.a.tobytes(), cert.b.tobytes(), cert.core.tobytes(), cert.value,
            cert.verdict, cert.witness_edge, f.dtype, f.tolist(),
            bdi_report(net, x, f), bdi_report(net, x, -f), is_cbe(net, x),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_raw_x_equals_fresh_state(self, seed):
        rng = random.Random(3000 + seed)
        for _ in range(6):
            net, x_star = random_planted_network(rng, n_species_max=3, n_vertices_max=6)
            fnet = build_network(net.species, net.complexes.tolist(), to_float_graph(net.graph))
            for nt, xs in ((net, x_star), (fnet, [float(v) for v in x_star])):
                states = [
                    random_positive_fractions(rng, nt.n_species),
                    random_positive_floats(rng, nt.n_species),
                ]
                for x in states + states:  # the second pass finds the slot replaced
                    twin = _twin(nt)
                    fresh = self._results(twin, crn.evaluate(twin, x), xs)
                    assert self._results(nt, list(x), xs) == fresh

    def test_one_state_for_the_calls_on_one_x(self, triangle_net, monkeypatch):
        x_star = list(solve_cbe(triangle_net).witness)
        equilibria.require_cbe(triangle_net, x_star)
        checked, tested = [], []
        check_state, balance_test = crn.check_state, equilibria._is_cbe
        monkeypatch.setattr(crn, "check_state", lambda x, n: checked.append(x) or check_state(x, n))
        monkeypatch.setattr(equilibria, "_is_cbe", lambda *a: tested.append(1) or balance_test(*a))
        for x in ([0.5, 1.5], [Fraction(1, 3), Fraction(2)]):
            checked.clear(), tested.clear()
            decrease_certificate(triangle_net, list(x), x_star)
            f = mass_action_rhs(triangle_net, list(x))
            bdi_membership(triangle_net, x_star, list(x), f)
            bdi_membership(triangle_net, x_star, list(x), -f)
            birch_intersect(triangle_net, x_star, list(x))
            assert checked == [x] and tested == [1]
        is_cbe(triangle_net, [Fraction(1, 3), Fraction(2)], tol=1e-3)  # not kept
        assert tested == [1, 1]

    def test_fraction_then_equal_float(self, dimer_net):
        half = crn.evaluate(dimer_net, [Fraction(1, 2)])
        assert half.x.dtype == object and type(half.flows[0]) is Fraction
        state = crn.evaluate(dimer_net, [0.5])
        assert state.x.dtype == float and state.flows.dtype == float
        assert crn.evaluate(dimer_net, [0.5]) is state
        again = crn.evaluate(dimer_net, [Fraction(1, 2)])
        assert again is not half and again.x.dtype == object
        assert mass_action_rhs(dimer_net, [Fraction(1, 2)]).tolist() == [Fraction(1, 4)]
        assert mass_action_rhs(dimer_net, [0.5]).tolist() == [0.25]

    def test_refused_state_leaves_the_slot(self, dimer_net):
        state = crn.evaluate(dimer_net, [0.5])
        with pytest.raises(FloatRangeError):  # x^2 = 10^400 as an exact monomial
            crn.evaluate(dimer_net, [Fraction(10) ** 200])
        for bad in ([-0.5], [0.5, 0.5], [float("nan")], ["0.5"], [True]):
            with pytest.raises(NonPositiveStateError):
                crn.evaluate(dimer_net, bad)
        assert dimer_net._state[1] is state and crn.evaluate(dimer_net, [0.5]) is state

    def test_returned_f_is_read_only(self, cycle3_net):
        for x in ([0.5, 1.5], [Fraction(1, 2), Fraction(3, 2)]):
            f = mass_action_rhs(cycle3_net, x)
            before = f.tolist()
            with pytest.raises(ValueError, match="read-only"):
                f[0] = 7
            with pytest.raises(ValueError, match="read-only"):
                f += 1
            assert mass_action_rhs(cycle3_net, x).tolist() == before
            assert before == mass_action_rhs(_twin(cycle3_net), x).tolist()
            state = crn.evaluate(cycle3_net, x)
            arrays = (state.x, state.ln_x, state.monomials, state.flows, state.balance, state.scaled)
            assert not any(a.flags.writeable for a in arrays)

    def test_birch_reads_x_off_the_slot(self, xy_net, dimer_net, monkeypatch):
        checked, real = [], equilibria.check_state
        monkeypatch.setattr(equilibria, "check_state", lambda x, n: checked.append(x) or real(x, n))
        for x in ([0.5, 1.5], [Fraction(1, 3), Fraction(2)]):
            decrease_certificate(xy_net, list(x), [1, 1])
            f = mass_action_rhs(xy_net, list(x))
            bdi_membership(xy_net, [1, 1], list(x), f)
            bdi_membership(xy_net, [1, 1], list(x), -f)
            got = birch_intersect(xy_net, [1, 1], list(x))
            assert checked == []
            assert got.tolist() == birch_intersect(_twin(xy_net), [1, 1], list(x)).tolist()
            assert checked == [x]
            checked.clear()
        # a miss is checked alone: `evaluate` would refuse x^2 = 10^400
        assert birch_intersect(dimer_net, [1], [Fraction(10) ** 200]).tolist() == [1.0]
        assert checked == [[Fraction(10) ** 200]]


def _two_scales(k):
    """A <-> 2A with k(2A -> A) = k, and B <-> 2B with unit rates."""
    g = build_digraph(
        ["a", "aa", "b", "bb"],
        [("a", "aa", Fraction(1)), ("aa", "a", Fraction(k)),
         ("b", "bb", Fraction(1)), ("bb", "b", Fraction(1))],
    )
    return build_network(["A", "B"], [[1, 2, 0, 0], [0, 0, 1, 2]], g)


def _float_copy(net):
    y = [[float(v) for v in row] for row in net.complexes.tolist()]
    return build_network(net.species, y, to_float_graph(net.graph))


def _dyadic_planted(rng, e):
    """A planted network of two or more components with x* in powers of 2 and
    the rates of one component of two or more vertices times 2^e, so its
    scaled monomials lie 2^(-e (n_c - 1)) off the others'; labels dyadic."""
    while True:
        net, x_old = random_planted_network(rng, n_species_max=3, n_vertices_max=6)
        g = net.graph
        big = [ci for ci in range(g.n_components) if len(g.component_vertices(ci)) > 1]
        if g.n_components > 1 and big:
            break
    scaled = g.scc_partition[rng.choice(big)]
    x_star = [Fraction(2) ** rng.randint(-2, 2) for _ in net.species]
    psi_old = crn.evaluate(net, x_old).monomials
    psi = crn.evaluate(net, x_star).monomials
    edges = [  # the circulation k psi_old of `plant_cbe`, over the new x*
        (a, b, k * psi_old[g.index[a]] / psi[g.index[a]] * (Fraction(2) ** e if a in scaled else 1))
        for (a, b), k in g.labels.items()
    ]
    g = build_digraph(g.vertex_ids, edges)
    return build_network(net.species, net.complexes.tolist(), g), x_star


def _verdicts(net, x_star, x) -> tuple:
    """The evaluation order at x, the certificate's verdict and witness (None
    where require_cbe refuses x*), the stratum test for every chain order of
    each component with the others in x's order, and is_cbe at x* and x."""
    try:
        cert = decrease_certificate(net, x, x_star)
        certificate = (cert.verdict, cert.witness_edge)
    except NotACbeError:
        certificate = None
    order = geometry.evaluation_order(net, x)
    chains = [[v for grp in groups for v in grp] for groups in order]
    strata = []
    for ci, chain in enumerate(chains):
        for perm in itertools.permutations(chain):
            aux = make_aux_tree(net.graph, "chain", chains[:ci] + [list(perm)] + chains[ci + 1:])
            strata.append(geometry.stratum_contains(net, aux, x))
    return order, certificate, strata, is_cbe(net, x_star).balanced, is_cbe(net, x).balanced


class TestComponentScaleParity:
    """Exact and float copies of one network give the same verdicts when one
    component's rates are scaled by 2^e, so its scaled monomials and flows
    sit far from the other components': each component is judged on its own
    scale, as in exact mode.  Labels and states are dyadic, so both copies
    hold the same numbers."""

    @pytest.mark.parametrize("e", [20, -20, 34, -34, 46, -46, 66, -66])
    def test_planted_networks(self, e):
        rng = random.Random(7100 + e)
        for _ in range(6):
            net, x_star = _dyadic_planted(rng, e)
            fnet = _float_copy(net)
            states = [x_star] + [
                [Fraction(rng.randint(1, 16), 2 ** rng.randint(0, 3)) for _ in net.species]
                for _ in range(4)
            ]
            for x in states:
                exact_x = _verdicts(net, x_star, x)
                float_x = [float(v) for v in x]
                assert _verdicts(fnet, [float(v) for v in x_star], float_x) == exact_x

    @pytest.mark.parametrize(
        "k, x, x_star, refused",
        [
            # s(b) = 2 < s(bb) = 4 beside s(a) = s(aa) = 10^20: strict decrease on b -> bb
            ("1e-10", [10**10, 2], [10**10, 1], False),
            # flows 2 and 4 on B <-> 2B beside 10^12 on A <-> 2A: x* is not balanced
            ("1e-12", [10**12, Fraction(3, 2)], [10**12, 2], True),
        ],
    )
    def test_two_scales(self, k, x, x_star, refused):
        net = _two_scales(k)
        want = _verdicts(net, x_star, x)
        assert (want[1] is None) == refused
        float_x, float_xs = [float(v) for v in x], [float(v) for v in x_star]
        assert _verdicts(_float_copy(net), float_xs, float_x) == want

    def test_chain_against_the_other_component(self):
        aux = make_aux_tree(_two_scales("1e-12").graph, "chain", [["a", "aa"], ["bb", "b"]])
        for net in (_two_scales("1e-12"), _float_copy(_two_scales("1e-12"))):
            assert not geometry.stratum_contains(net, aux, [10**12, 2])


class TestCliEvaluations:
    """Each CLI command builds one record per state it reads."""

    def test_equilibria_samples_evaluate_witness_once(self, monkeypatch, capsys):
        built = _count_evaluations(monkeypatch)
        path = str(SAMPLE_DIR / "two_component.json")
        assert cli.run_command(["equilibria", path, "--samples", "2"]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert len(built) == 1 and list(built[0]) == witness

    def test_bdi_check_default_v_evaluates_x_once(self, monkeypatch, capsys):
        built = _count_evaluations(monkeypatch)
        path = str(SAMPLE_DIR / "cycle3.json")
        assert cli.run_command(["bdi-check", path, "--x", "0.5,0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["member"] is True
        assert built[1:] == [[Fraction(1, 2), Fraction(1, 2)]]  # x* first, then x once
