import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crnlap import (
    birch_intersect,
    equilibria,
    build_digraph,
    build_network,
    cbe_manifold_sample,
    is_cbe,
    solve_cbe,
)
from crnlap.crn import evaluate
from crnlap.errors import DimensionTooLargeError, FloatRangeError, NotACbeError, SemanticError
from conftest import PLANAR_Y, running_example_graph

from generators import (
    rand_fraction,
    random_general_aux,
    random_integer_complexes,
    random_planted_network,
    random_positive_floats,
    to_float_graph,
)
from oracles import aux_incidence, cbe_feasible_multistart, column_space, reference_cbe_exists
from oracles import rank as oracles_rank


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


class TestRequireCbeSlot:
    """require_cbe keeps the last x* that passed on the network."""

    NEAR_ONE = 1.0000000000000011  # balanced on X <-> 2X as a float, not exactly

    @pytest.fixture
    def tests_run(self, monkeypatch):
        calls = []
        real = equilibria.is_cbe
        monkeypatch.setattr(equilibria, "is_cbe", lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_float_pass_does_not_admit_the_equal_fraction(self, dimer_net):
        assert equilibria.require_cbe(dimer_net, [self.NEAR_ONE]).tolist() == [self.NEAR_ONE]
        with pytest.raises(NotACbeError):
            equilibria.require_cbe(dimer_net, [Fraction(self.NEAR_ONE)])
        assert equilibria.require_cbe(dimer_net, [self.NEAR_ONE]).tolist() == [self.NEAR_ONE]

    def test_fraction_rejected_before_the_float_passes(self, dimer_net):
        with pytest.raises(NotACbeError):
            equilibria.require_cbe(dimer_net, [Fraction(self.NEAR_ONE)])
        assert equilibria.require_cbe(dimer_net, [self.NEAR_ONE]).tolist() == [self.NEAR_ONE]
        with pytest.raises(NotACbeError):
            equilibria.require_cbe(dimer_net, [Fraction(self.NEAR_ONE)])

    def test_rejected_x_star_tested_each_time(self, dimer_net, tests_run):
        for _ in range(3):
            with pytest.raises(NotACbeError):
                equilibria.require_cbe(dimer_net, [2.0])
        assert len(tests_run) == 3

    def test_same_x_star_tested_once(self, dimer_net, tests_run):
        first = equilibria.require_cbe(dimer_net, [1])
        assert equilibria.require_cbe(dimer_net, [1]) is first
        assert len(tests_run) == 1
        assert not first.flags.writeable

    def test_second_x_star_tested_again(self, xy_net, tests_run):
        for x_star in ([1, 1], [2, 2], [1, 1]):
            assert equilibria.require_cbe(xy_net, x_star).tolist() == [float(v) for v in x_star]
        assert len(tests_run) == 3


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
                    evaluate(net, list(res.witness)).scaled, dtype=float
                )
                binomials = np.asarray(aux_incidence(net.graph, aux), dtype=float).T @ scaled
                assert np.max(np.abs(binomials), initial=0.0) <= 1e-10 * np.max(scaled)


def one_rate_doubled(net, rng, factor=2):
    """A copy of net with the label of one random edge times `factor`,
    doubled by default."""
    g = net.graph
    a, b = rng.choice(g.edges)
    edges = [(s, d, factor * g.labels[(s, d)] if (s, d) == (a, b) else g.labels[(s, d)])
             for s, d in g.edges]
    return build_network(net.species, net.complexes.tolist(), build_digraph(g.vertex_ids, edges))


class TestCbeExists:
    """`ReactionNetwork.cbe_exists`: the deficiency binomial conditions on
    the tree constants, decided in Fractions on exact networks and on the
    logs within CONSISTENCY_RTOL otherwise; `solve_cbe` reports its verdict."""

    def test_planted_networks_and_one_rate_doubled(self):
        rng = random.Random(34)
        seen = set()
        for trial in range(40):
            net, _ = random_planted_network(rng, n_species_max=3, n_vertices_max=6)
            g = net.graph
            rank = oracles_rank(np.asarray(net.reactions))
            assert net.deficiency == g.n_vertices - g.n_components - rank
            assert net.cbe_exists
            seen.add((net.deficiency > 0, True))
            if not g.edges:
                continue
            moved = one_rate_doubled(net, rng)
            assert moved.cbe_exists == (solve_cbe(moved).status == "found")
            assert moved.cbe_exists == cbe_feasible_multistart(moved, seed=trial)
            seen.add((moved.deficiency > 0, moved.cbe_exists))
        assert {(True, False), (True, True), (False, True)} <= seen

    def test_exact_float_label_and_float_y_copies_agree(self):
        rng = random.Random(29)
        seen = set()
        for _ in range(60):
            net, _ = random_planted_network(rng, n_species_max=3, n_vertices_max=6)
            for moved in (net, one_rate_doubled(net, rng)) if net.graph.edges else (net,):
                y = moved.complexes.tolist()
                copies = (
                    moved,
                    build_network(moved.species, y, to_float_graph(moved.graph)),
                    build_network(moved.species, [[float(v) for v in row] for row in y], moved.graph),
                )
                status = "found" if moved.cbe_exists else "infeasible"
                assert [(c.cbe_exists, solve_cbe(c).status) for c in copies] == (
                    [(moved.cbe_exists, status)] * 3
                )
                seen.add((moved.deficiency > 0, moved.cbe_exists))
        assert {(True, False), (True, True), (False, True)} <= seen

    def test_deficiency_one_exact_and_float(self):
        assert deficiency_one_net([1, 1, 1, 2]).cbe_exists
        assert not deficiency_one_net([1, 1, 1, 1]).cbe_exists
        # equal to within 1e-12: no equilibrium exists, and solve_cbe says so
        near = deficiency_one_net([1, 1, 1, 2 + Fraction(1, 10**12)])
        assert not near.cbe_exists and solve_cbe(near).status == "infeasible"
        # a float network of positive deficiency is decided within a rounding
        # bound, so the float copy of `near` has no equilibrium either
        for k, want in (([1, 1, 1, 2], True), ([1, 1, 1, 1], False), ([1, 1, 1, 2 + 1e-12], False)):
            net = build_network(["X"], [[0, 1, 2]], to_float_graph(deficiency_one_net(k).graph))
            assert (net.deficiency, net.cbe_exists) == (1, want)
            assert solve_cbe(net).status == ("found" if want else "infeasible")

    def test_float_violation_far_above_rounding(self):
        # 0 -> X -> 2X -> 0 with rates 1, 1, 1.000000001: ca = b^2 fails by
        # 1e-9, far above rounding, so no equilibrium, though x* = 1 - 5e-10
        # comes within 1e-9 of balance
        g = build_digraph(["0", "X", "2X"], [("0", "X", 1.0), ("X", "2X", 1.0), ("2X", "0", 1.000000001)])
        net = build_network(["X"], [[0, 1, 2]], g)
        assert (net.deficiency, net.cbe_exists) == (1, False)
        assert solve_cbe(net).status == "infeasible"
        with pytest.raises(NotACbeError):
            equilibria.require_cbe(net, [1 - 5e-10])

    def test_float_tree_constants_beyond_float64(self):
        # rates 1e200 give K = 1e400, which float64 cannot hold; existence is
        # decided, and the witness solved, on the exact ratios K_b / K_a = 1,
        # and x* = 1 balances exactly
        g = build_digraph(["0", "X", "2X"], [("0", "X", 1e200), ("X", "2X", 1e200), ("2X", "0", 1e200)])
        net = build_network(["X"], [[0, 1, 2]], g)
        assert net.cbe_exists and list(equilibria.require_cbe(net, [1.0])) == [1.0]
        with pytest.raises(FloatRangeError):
            net.tree_constants().as_float()
        result = solve_cbe(net)
        assert (result.status, result.witness.tolist(), result.log_residual) == ("found", [1.0], 0.0)
        exact_net = build_network(["X"], [[0, 1, 2]], build_digraph(
            g.vertex_ids, [(*e, Fraction(10) ** 200) for e in g.edges]
        ))
        assert solve_cbe(exact_net).witness.tolist() == [1.0]

    def test_deficiency_zero_float_network(self, cycle3_net):
        g = cycle3_net.graph
        net = build_network(cycle3_net.species, cycle3_net.complexes.tolist(), to_float_graph(g))
        assert (net.deficiency, net.cbe_exists) == (0, True)


class TestOneRatePerturbed:
    """One rate of a planted network of positive deficiency times p/q != 1:
    the exact `cbe_exists` verdict is the reference's, decided apart from
    it, and the float-label copy, whose K come from its labels' exact
    values, reaches the same verdict."""

    def test_exact_and_float_label_verdicts_match_reference(self):
        verdicts = []

        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        @given(st.integers(0, 2**32), st.integers(1, 12), st.integers(1, 12))
        def check(seed, p, q):
            assume(p != q)
            rng = random.Random(seed)
            net, _ = random_planted_network(rng, n_species_max=3, n_vertices_max=6)
            while not net.deficiency:
                net, _ = random_planted_network(rng, n_species_max=3, n_vertices_max=6)
            moved = one_rate_doubled(net, rng, Fraction(p, q))
            float_copy = build_network(moved.species, moved.complexes.tolist(), to_float_graph(moved.graph))
            assert moved.cbe_exists == reference_cbe_exists(moved) == float_copy.cbe_exists
            verdicts.append(moved.cbe_exists)

        check()
        assert False in verdicts


class TestManifoldSample:
    def test_trivial_sperp_returns_x_star(self, cycle3_net):
        samples = cbe_manifold_sample(cycle3_net, [1, 1], 5, seed=1)
        assert all(np.allclose(s, [1.0, 1.0]) for s in samples)

    def test_count_limit(self, xy_net):
        assert len(cbe_manifold_sample(xy_net, [1, 1], equilibria.MAX_SAMPLES, seed=0)) == 10_000
        with pytest.raises(DimensionTooLargeError, match="MAX_SAMPLES"):
            cbe_manifold_sample(xy_net, [1, 1], equilibria.MAX_SAMPLES + 1, seed=0)
        with pytest.raises(DimensionTooLargeError):  # before x* is tested
            cbe_manifold_sample(xy_net, [1, 2], 10**21, seed=0)

    def test_one_dimensional_manifold(self, xy_net):
        samples = cbe_manifold_sample(xy_net, [1, 1], 10, seed=2)
        spread = {round(float(s[0]), 12) for s in samples}
        assert len(spread) > 1  # actually moves along the manifold
        for s in samples:
            check = is_cbe(xy_net, list(s))
            assert check.residual <= 1e-10 * check.scale

    def test_count_zero(self, cycle3_net):
        assert cbe_manifold_sample(cycle3_net, [1, 1], 0, seed=3) == []

    @pytest.mark.parametrize("count, seed", [(-1, 0), (2, -1)])
    def test_rejects_negative_count_or_seed(self, cycle3_net, count, seed):
        with pytest.raises(SemanticError, match="count and seed must be >= 0"):
            cbe_manifold_sample(cycle3_net, [1, 1], count, seed=seed)

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
            s, sperp = column_space(net.reactions), net.sperp_basis
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
            sperp_dim = net.sperp_basis.shape[1]
            xp = random_positive_floats(rng, net.n_species)
            a = birch_intersect(net, x_star, xp)
            b = birch_intersect(net, x_star, xp, c0=np.full(sperp_dim, 0.7))
            assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, float(np.max(np.abs(a))))
