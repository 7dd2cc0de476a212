import math
import random

import numpy as np
import pytest

from crnlap import (
    birch_intersect,
    build_digraph,
    build_network,
    cbe_manifold_sample,
    is_cbe,
    solve_cbe,
    stoichiometric_subspace,
)
from crnlap.crn import scaled_monomials
from crnlap.errors import NotACbeError
from conftest import PLANAR_Y, running_example_graph

from generators import (
    rand_fraction,
    random_general_aux,
    random_integer_complexes,
    random_planted_network,
    random_positive_floats,
)
from oracles import aux_incidence, cbe_feasible_multistart


def deficiency_one_net(k_values):
    """One species, complexes {0, X, 2X} on the running-example graph;
    complex balancing requires K2^2 = K1 K3, so generic k is infeasible."""
    g = running_example_graph(*k_values)
    return build_network(["X"], [[0, 1, 2]], g)


class TestIsCbe:
    def test_cycle_equilibrium(self, cycle3_net):
        check = is_cbe(cycle3_net, [1, 1])
        assert check.balanced and check.residual == 0.0

    def test_cycle_non_equilibrium(self, cycle3_net):
        check = is_cbe(cycle3_net, [0.5, 0.5])
        assert not check.balanced
        assert check.residual > 1e-10 * check.scale

    def test_single_vertex_graph_everything_balances(self):
        g = build_digraph(["1"], [])
        net = build_network(["A", "B"], [[1], [2]], g)
        rng = random.Random(0)
        for _ in range(5):
            assert is_cbe(net, random_positive_floats(rng, 2)).balanced


class TestSolveCbe:
    def test_unit_cycle_recovers_ones(self, cycle3_net):
        res = solve_cbe(cycle3_net)
        assert res.status == "found"
        assert np.allclose(res.witness, [1.0, 1.0])
        assert res.log_residual <= 1e-12

    def test_uniform_float_rates_on_complete_graphs_found(self):
        # equal tree constants make the log right-hand side exactly zero,
        # so only rounding is left in the residual; x = 1 is balanced
        rng = random.Random(40)
        for _ in range(40):
            n = rng.randint(3, 6)
            rate = rng.choice([0.1, 0.3, 0.7, 1 / 3])
            ids = [str(i) for i in range(n)]
            g = build_digraph(ids, [(a, b, rate) for a in ids for b in ids if a != b])
            n_species = rng.randint(1, 3)
            y = random_integer_complexes(rng, n_species, n)
            net = build_network([f"S{i}" for i in range(n_species)], y, g)
            assert is_cbe(net, [1.0] * n_species).balanced
            res = solve_cbe(net)
            assert res.status == "found"
            assert is_cbe(net, list(res.witness)).balanced

    def test_deficiency_zero_always_found_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(8):
            ks = [rand_fraction(rng) for _ in range(4)]
            net = build_network(["X1", "X2"], PLANAR_Y, running_example_graph(*ks))
            res = solve_cbe(net)
            assert res.status == "found"
            assert cbe_feasible_multistart(net)
            check = is_cbe(net, list(res.witness))
            assert check.residual <= 1e-10 * max(check.scale, 1e-300)

    def test_deficiency_one_matches_oracle(self):
        rng = random.Random(32)
        statuses = set()
        for trial in range(10):
            ks = [rand_fraction(rng) for _ in range(4)]
            net = deficiency_one_net(ks)
            res = solve_cbe(net)
            statuses.add(res.status)
            assert (res.status == "found") == cbe_feasible_multistart(net, seed=trial)
        # generic rates are not complex balanced for this network
        assert "infeasible" in statuses

    def test_deficiency_one_planted_is_found(self):
        # choose k so that K2^2 = K1 K3 holds: k=(1,1,1,1) gives K=(2,1,1) -> no;
        # take k21 = 0 impossible, so solve: K=(k23 k31 + k21 k31, k31 k12, k12 k23)
        # with k12=k23=k31=1: K=(1+k21, 1, 1), need 1 = (1+k21) -> impossible;
        # instead scale k31: k=(1, 1, 1, k31): K=(2 k31, k31, 1), need k31^2 = 2 k31.
        net = deficiency_one_net([1, 1, 1, 2])
        res = solve_cbe(net)
        assert res.status == "found"
        check = is_cbe(net, list(res.witness))
        assert check.residual <= 1e-10 * check.scale

    def test_single_vertex_component(self):
        g = build_digraph(["1"], [])
        net = build_network(["A"], [[2]], g)
        res = solve_cbe(net)
        assert res.status == "found"
        assert np.allclose(res.witness, [1.0])

    def test_witness_satisfies_binomials_for_every_aux(self):
        rng = random.Random(33)
        for _ in range(10):
            net, _ = random_planted_network(rng)
            res = solve_cbe(net)
            assert res.status == "found"
            for _ in range(3):
                aux = random_general_aux(rng, net.graph)
                scaled = np.asarray(
                    scaled_monomials(net, list(res.witness)), dtype=float
                )
                binomials = np.asarray(aux_incidence(net.graph, aux), dtype=float).T @ scaled
                assert np.max(np.abs(binomials), initial=0.0) <= 1e-10 * np.max(scaled)


class TestManifoldSample:
    def test_trivial_sperp_returns_x_star(self, cycle3_net):
        samples = cbe_manifold_sample(cycle3_net, [1, 1], 5, seed=1)
        assert all(np.allclose(s, [1.0, 1.0]) for s in samples)

    def test_one_dimensional_manifold(self, xy_net):
        samples = cbe_manifold_sample(xy_net, [1, 1], 10, seed=2)
        spread = {round(float(s[0]), 12) for s in samples}
        assert len(spread) > 1  # actually moves along the manifold
        for s in samples:
            check = is_cbe(xy_net, list(s))
            assert check.residual <= 1e-10 * check.scale

    def test_count_zero(self, cycle3_net):
        assert cbe_manifold_sample(cycle3_net, [1, 1], 0, seed=3) == []

    def test_rejects_non_cbe(self, cycle3_net):
        with pytest.raises(NotACbeError):
            cbe_manifold_sample(cycle3_net, [0.5, 0.5], 1, seed=4)

    def test_off_manifold_points_not_balanced(self, xy_net):
        rng = np.random.default_rng(5)
        for s in cbe_manifold_sample(xy_net, [1, 1], 5, seed=6):
            bumped = np.asarray(s, dtype=float) * np.exp(rng.normal(0, 0.3, 2))
            if not math.isclose(bumped[0], bumped[1], rel_tol=1e-9):
                assert not is_cbe(xy_net, list(bumped)).balanced


class TestBirchIntersect:
    def test_full_s_returns_x_star(self, cycle3_net):
        got = birch_intersect(cycle3_net, [1, 1], [0.37, 2.4])
        assert np.allclose(got, [1.0, 1.0])

    def test_dimer_network(self, dimer_net):
        rng = random.Random(7)
        for _ in range(5):
            xp = random_positive_floats(rng, 1)
            got = birch_intersect(dimer_net, [1.0], xp)
            assert np.allclose(got, [1.0])

    def test_xy_network_closed_form(self, xy_net):
        rng = random.Random(8)
        for _ in range(10):
            xp = np.asarray(random_positive_floats(rng, 2), dtype=float)
            got = birch_intersect(xy_net, [1, 1], list(xp))
            t = (xp[0] + xp[1]) / 2
            assert np.allclose(got, [t, t], rtol=1e-10)

    def test_membership_residuals(self):
        rng = random.Random(9)
        for _ in range(10):
            net, x_star = random_planted_network(rng)
            xp = random_positive_floats(rng, net.n_species)
            got = birch_intersect(net, x_star, xp)
            s, sperp = stoichiometric_subspace(net)
            w = np.asarray(sperp, dtype=float)
            xs = np.asarray([float(v) for v in x_star])
            # on the manifold: log-deviation orthogonal to S
            z = np.log(got / xs)
            if s.shape[1]:
                sf = np.asarray(s, dtype=float)
                proj = sf @ np.linalg.lstsq(sf, z, rcond=None)[0]
                assert np.max(np.abs(proj), initial=0.0) <= 1e-10 * max(
                    1.0, float(np.max(np.abs(z)))
                )
            # in the class: difference orthogonal to S-perp
            if w.shape[1]:
                diff = got - np.asarray(xp, dtype=float)
                rel = np.max(np.abs(w.T @ diff)) / max(1.0, float(np.max(np.abs(diff))))
                assert rel <= 1e-10

    def test_idempotent(self):
        rng = random.Random(10)
        for _ in range(5):
            net, x_star = random_planted_network(rng)
            xp = random_positive_floats(rng, net.n_species)
            once = birch_intersect(net, x_star, xp)
            twice = birch_intersect(net, x_star, list(once))
            assert np.max(np.abs(once - twice)) <= 1e-10 * max(
                1.0, float(np.max(np.abs(once)))
            )

    def test_uniqueness_two_initializations(self):
        rng = random.Random(11)
        for _ in range(5):
            net, x_star = random_planted_network(rng)
            sperp_dim = stoichiometric_subspace(net)[1].shape[1]
            xp = random_positive_floats(rng, net.n_species)
            a = birch_intersect(net, x_star, xp)
            b = birch_intersect(net, x_star, xp, c0=np.full(sperp_dim, 0.7))
            assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, float(np.max(np.abs(a))))
