import math
import random
from fractions import Fraction

import numpy as np
import pytest

from crnlap import (
    bdi_membership,
    birch_intersect,
    decrease_certificate,
    is_cbe,
    lyapunov_derivative,
    lyapunov_value,
    mass_action_rhs,
    simulate,
    solve_cbe,
    stoichiometric_subspace,
)
from crnlap.errors import NotACbeError

from generators import (
    random_planted_network,
    random_positive_floats,
)
from oracles import bdi_member_by_orders, fd_gradient, tie_chain_orders


class TestLyapunovValue:
    def test_zero_at_equilibrium(self):
        assert lyapunov_value([1.3, 0.2], [1.3, 0.2]) == 0.0

    def test_e_one(self):
        assert lyapunov_value([math.e, 1.0], [1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_half_half(self):
        expected = 2 * (0.5 * (math.log(0.5) - 1) + 1)
        assert lyapunov_value([0.5, 0.5], [1, 1]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.30685, abs=1e-5)

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


class TestSimulate:
    def test_cycle_converges_with_monotone_lyapunov(self, cycle3_net):
        traj = simulate(cycle3_net, [0.5, 0.5], 50.0)
        assert np.max(np.abs(traj.states[-1] - 1.0)) <= 1e-6
        L = traj.lyapunov
        assert L is not None
        assert all(L[i + 1] <= L[i] + 1e-9 for i in range(len(L) - 1))

    def test_constant_at_equilibrium(self, cycle3_net):
        traj = simulate(cycle3_net, [1.0, 1.0], 10.0)
        for s in traj.states:
            assert np.max(np.abs(s - 1.0)) <= 1e-9

    def test_conservation_along_trajectory(self, xy_net):
        traj = simulate(xy_net, [0.3, 1.1], 20.0)
        _, sperp = stoichiometric_subspace(xy_net)
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
                traj = simulate(net, state, 300.0, max_steps=500_000)
                state = list(traj.states[-1])
                if np.max(np.abs(traj.states[-1] - target)) <= tol:
                    break
            assert np.max(np.abs(np.asarray(state) - target)) <= tol
            done += 1

    def test_positivity_guard_counts_rejections(self, cycle3_net):
        traj = simulate(cycle3_net, [1e-3, 10.0], 30.0)
        assert all(np.all(s > 0) for s in traj.states)
        assert np.max(np.abs(traj.states[-1] - 1.0)) <= 1e-5
