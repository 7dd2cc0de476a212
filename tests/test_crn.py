import itertools
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from crnlap import (
    binomial_rhs,
    build_digraph,
    build_network,
    mass_action_rhs,
    monomial_vector,
    stoichiometric_subspace,
)
from crnlap import exact
from crnlap.errors import (
    DuplicateComplexError,
    NegativeComplexEntryError,
    NonPositiveStateError,
    NotWeaklyReversibleError,
    ShapeMismatchError,
)
from crnlap.graph import default_chain_aux
from crnlap.laplacian import laplacian_matrix

from generators import (
    random_general_aux,
    random_positive_floats,
    random_positive_fractions,
    random_wr_network,
    to_float_graph,
)
from oracles import edge_sum_rhs


class TestBuildNetwork:
    def test_planar_example_full_plane(self, triangle_net):
        s, sperp = stoichiometric_subspace(triangle_net)
        assert s.shape[1] == 2
        assert sperp.shape[1] == 0

    def test_two_component_network(self, two_component_net):
        assert two_component_net.graph.n_components == 2
        assert two_component_net.is_weakly_reversible()

    def test_duplicate_complex_rejected(self):
        g = build_digraph([1, 2], [(1, 2, 1), (2, 1, 1)])
        with pytest.raises(DuplicateComplexError):
            build_network(["A"], [[1, 1]], g)

    def test_shape_mismatch(self):
        g = build_digraph([1, 2], [(1, 2, 1), (2, 1, 1)])
        with pytest.raises(ShapeMismatchError):
            build_network(["A"], [[1, 2, 3]], g)

    def test_negative_entry(self):
        g = build_digraph([1, 2], [(1, 2, 1), (2, 1, 1)])
        with pytest.raises(NegativeComplexEntryError):
            build_network(["A"], [[1, -1]], g)

    def test_dimension_split(self, xy_net):
        s, sperp = stoichiometric_subspace(xy_net)
        assert s.shape[1] + sperp.shape[1] == 2
        assert s.shape[1] == 1
        # S spanned by y2 - y1 = (-1, 1)
        ratio = s[1, 0] / s[0, 0]
        assert ratio == -1


class TestMonomialVector:
    def test_all_ones(self, triangle_net):
        assert monomial_vector(triangle_net, [1, 1]).tolist() == [1, 1, 1]

    def test_half_half(self, cycle3_net):
        mono = monomial_vector(cycle3_net, [0.5, 0.5])
        assert np.allclose(mono, [0.125, 0.25, 0.5])
        mono_exact = monomial_vector(cycle3_net, [Fraction(1, 2), Fraction(1, 2)])
        assert mono_exact.tolist() == [
            Fraction(1, 8),
            Fraction(1, 4),
            Fraction(1, 2),
        ]

    def test_empty_complex_is_one(self, two_component_net):
        rng = random.Random(0)
        for _ in range(5):
            x = random_positive_floats(rng, 2)
            mono = monomial_vector(two_component_net, x)
            assert mono[3] == pytest.approx(1.0)  # vertex 4 has the zero complex

    def test_rejects_non_positive_state(self, cycle3_net):
        with pytest.raises(NonPositiveStateError):
            monomial_vector(cycle3_net, [0.0, 1.0])
        with pytest.raises(NonPositiveStateError):
            monomial_vector(cycle3_net, [1.0])


class TestMassActionRhs:
    def test_cycle_balanced_at_ones(self, cycle3_net):
        f = mass_action_rhs(cycle3_net, [1, 1])
        assert all(v == 0 for v in f)

    def test_cycle_at_half(self, cycle3_net):
        f = mass_action_rhs(cycle3_net, [0.5, 0.5])
        oracle = edge_sum_rhs(cycle3_net, [0.5, 0.5], exact_mode=False)
        assert np.allclose(f, oracle)
        assert np.allclose(f, [0.5, 0.125])

    def test_exact_equals_edge_sum(self):
        rng = random.Random(21)
        for _ in range(25):
            net = random_wr_network(rng)
            x = random_positive_fractions(rng, net.n_species)
            got = mass_action_rhs(net, x)
            expected = edge_sum_rhs(net, x, exact_mode=True)
            assert np.array_equal(got, expected)

    def test_rhs_lies_in_s_exactly(self):
        rng = random.Random(22)
        for _ in range(20):
            net = random_wr_network(rng)
            x = random_positive_fractions(rng, net.n_species)
            f = mass_action_rhs(net, x)
            _, sperp = stoichiometric_subspace(net)
            # zero component along S-perp and exact solvability inside S
            assert all(v == 0 for v in sperp.T @ f)
            s, _ = stoichiometric_subspace(net)
            if s.shape[1]:
                assert exact.solve(s, f) is not None
            else:
                assert all(v == 0 for v in f)


class TestBinomialRhs:
    def test_cycle_binomials(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        value, binomials = binomial_rhs(cycle3_net, aux, [0.5, 0.5])
        assert np.allclose(binomials, [0.125, 0.25])
        assert np.allclose(value, [0.5, 0.125])

    def test_zero_at_equilibrium(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        value, binomials = binomial_rhs(cycle3_net, aux, [1, 1])
        assert all(v == 0 for v in value)
        assert all(b == 0 for b in binomials)

    def test_agreement_with_mass_action_100_points(self, triangle_net):
        rng = random.Random(23)
        aux = default_chain_aux(triangle_net.graph)
        for _ in range(100):
            x = random_positive_floats(rng, 2)
            value, _ = binomial_rhs(triangle_net, aux, x)
            f = mass_action_rhs(triangle_net, x)
            scale = max(1e-300, float(np.max(np.abs(f))))
            assert np.max(np.abs(value - f)) <= 1e-12 * scale

    def test_exact_agreement_random_aux(self):
        # every mix of rational/float labels, complexes and state: results
        # are Fractions exactly when all inputs are rational (Y integer)
        rng = random.Random(24)
        for _ in range(20):
            net = random_wr_network(rng)
            aux = random_general_aux(rng, net.graph)
            q = random_positive_fractions(rng, net.n_species)
            for float_labels, float_y, x in itertools.product(
                (False, True), (False, True), (q, [float(v) for v in q])
            ):
                g = to_float_graph(net.graph) if float_labels else net.graph
                y = net.complexes.tolist()
                if float_y:
                    y = [[float(v) for v in row] for row in y]
                mixed = build_network(net.species, y, g)
                value, binomials = binomial_rhs(mixed, aux, x)
                f = mass_action_rhs(mixed, x)
                # an edgeless graph has no float label, so it stays rational
                labels_q = all(isinstance(k, Fraction) for k in g.labels.values())
                rational = labels_q and not float_y and x is q
                for r in (value, binomials, f):
                    assert (r.dtype == object) == rational
                    if r.size:
                        assert all(isinstance(v, Fraction) for v in r) == rational
                if rational:
                    assert np.array_equal(value, f)
                    continue
                # relative to the size of the terms of Y A_k x^Y
                yf = np.asarray(net.complexes, dtype=float)
                af = np.asarray(laplacian_matrix(g), dtype=float)
                monos = monomial_vector(mixed, [float(v) for v in q])
                terms = np.abs(yf) @ (np.abs(af) @ monos)
                assert np.all(np.abs(value - f) <= 1e-12 * np.max(terms))

    def test_requires_weak_reversibility(self):
        g = build_digraph([1, 2], [(1, 2, 1)])
        net = build_network(["A"], [[1, 2]], g)
        with pytest.raises(NotWeaklyReversibleError):
            binomial_rhs(net, default_chain_aux(g), [1.0])


class TestConservation:
    def test_conserved_quantities_annihilate_rhs(self, xy_net):
        rng = random.Random(25)
        _, sperp = stoichiometric_subspace(xy_net)
        assert sperp.shape[1] == 1
        for _ in range(10):
            x = random_positive_floats(rng, 2)
            f = np.asarray(mass_action_rhs(xy_net, x), dtype=float)
            w = np.asarray(sperp, dtype=float)[:, 0]
            assert abs(w @ f) <= 1e-14 * max(1.0, float(np.max(np.abs(f))))


class TestLazyConstants:
    def test_concurrent_first_access_single_value(self, triangle_net):
        results = []

        def grab():
            results.append(triangle_net.tree_constants())

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)
