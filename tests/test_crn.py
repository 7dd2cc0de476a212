import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from crnlap import (
    binomial_rhs,
    build_digraph,
    build_network,
    is_cbe,
    evaluate,
    mass_action_rhs,
)
from crnlap import crn
from crnlap.errors import (
    DimensionTooLargeError,
    DuplicateComplexError,
    FloatRangeError,
    NegativeComplexEntryError,
    NonPositiveStateError,
    NotWeaklyReversibleError,
    ShapeMismatchError,
)
from crnlap.graph import default_chain_aux
from crnlap.laplacian import core_matrix, laplacian_matrix, verify_core_decomposition

from generators import (
    random_general_aux,
    random_positive_floats,
    random_positive_fractions,
    random_wr_network,
    to_float_graph,
)
from oracles import column_space, dense_balance, dense_rhs, edge_sum_rhs, solve


class TestBuildNetwork:
    def test_planar_example_full_plane(self, triangle_net):
        s, sperp = column_space(triangle_net.reactions), triangle_net.sperp_basis
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
        s, sperp = column_space(xy_net.reactions), xy_net.sperp_basis
        assert s.shape[1] + sperp.shape[1] == 2
        assert s.shape[1] == 1
        # S spanned by y2 - y1 = (-1, 1)
        ratio = s[1, 0] / s[0, 0]
        assert ratio == -1


class TestMonomialVector:
    def test_all_ones(self, triangle_net):
        assert evaluate(triangle_net, [1, 1]).monomials.tolist() == [1, 1, 1]

    def test_half_half(self, cycle3_net):
        mono = evaluate(cycle3_net, [0.5, 0.5]).monomials
        assert np.allclose(mono, [0.125, 0.25, 0.5])
        mono_exact = evaluate(cycle3_net, [Fraction(1, 2), Fraction(1, 2)]).monomials
        assert mono_exact.tolist() == [
            Fraction(1, 8),
            Fraction(1, 4),
            Fraction(1, 2),
        ]

    def test_empty_complex_is_one(self, two_component_net):
        rng = random.Random(0)
        for _ in range(5):
            x = random_positive_floats(rng, 2)
            mono = evaluate(two_component_net, x).monomials
            assert mono[3] == pytest.approx(1.0)  # vertex 4 has the zero complex

    def test_rejects_non_positive_state(self, cycle3_net):
        with pytest.raises(NonPositiveStateError):
            evaluate(cycle3_net, [0.0, 1.0])
        with pytest.raises(NonPositiveStateError):
            evaluate(cycle3_net, [1.0])

    def test_exact_monomial_bits_bounded_before_any_power(self):
        # y = (1, 0) and (5e5, 4e5): at x = (2, 3/2) the second costs
        # 5e5 log2 2 + 4e5 log2 3 bits (log2 of the larger of 3 and 2, not of
        # 3/2), past MAX_MONOMIAL_BITS; x = (1/2, 1) costs 5e5 and x = 1 none
        g = build_digraph(["a", "b"], [("a", "b", Fraction(1)), ("b", "a", Fraction(1))])
        net = build_network(["A", "B"], [[1, 500_000], [0, 400_000]], g)
        assert 500_000 + 400_000 * math.log2(3) > crn.MAX_MONOMIAL_BITS
        assert 500_000 + 400_000 * math.log2(1.5) < crn.MAX_MONOMIAL_BITS
        with pytest.raises(DimensionTooLargeError, match="MAX_MONOMIAL_BITS"):
            evaluate(net, [2, Fraction(3, 2)])
        assert net._state == (None, None)  # a refused state never enters the slot
        assert evaluate(net, [1, 1]).monomials.tolist() == [1, 1]
        half = Fraction(1, 2)
        assert evaluate(net, [half, 1]).monomials.tolist() == [half, half**500_000]


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
            sperp = net.sperp_basis
            # zero component along S-perp and exact solvability inside S
            assert all(v == 0 for v in sperp.T @ f)
            s = column_space(net.reactions)
            if s.shape[1]:
                assert solve(s, f) is not None
            else:
                assert all(v == 0 for v in f)

    def test_edge_flows_agree_with_dense_laplacian(self):
        # f_k(x) and the complex balance of A_k x^Y from edge flows against
        # the dense Laplacian: equal on rationals, to rounding on floats
        rng = random.Random(15)
        nets = [random_wr_network(rng) for _ in range(300)]
        nets.append(build_network(["A"], [[1, 2]], build_digraph(["1", "2"], [])))
        zero_complex = build_digraph(["A", "0"], [("A", "0", Fraction(3, 2)), ("0", "A", 5)])
        nets.append(build_network(["A"], [[1, 0]], zero_complex))
        for net in nets:
            q = random_positive_fractions(rng, net.n_species)
            f = mass_action_rhs(net, q)
            assert f.dtype == object and all(isinstance(v, Fraction) for v in f)
            assert np.array_equal(f, dense_rhs(net, q))
            residual, scale = dense_balance(net, q)
            assert is_cbe(net, q)[1:] == (float(residual), float(scale))
            x = random_positive_floats(rng, net.n_species)
            residual, scale = dense_balance(net, x)
            check = is_cbe(net, x)
            assert check.scale == scale
            assert abs(check.residual - residual) <= 1e-14 * scale
            assert np.max(np.abs(mass_action_rhs(net, x) - dense_rhs(net, x))) <= 1e-14 * scale


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
                monos = evaluate(mixed, [float(v) for v in q]).monomials
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
        sperp = xy_net.sperp_basis
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


def _dimer(k12, y2=2):
    """A <-> 2A (or A <-> y2 A) with the label k12 on 1 -> 2."""
    g = build_digraph(["1", "2"], [("1", "2", k12), ("2", "1", 1)])
    return build_network(["A"], [[1, y2]], g)


class TestFloatView:
    NAMES = ("complexes", "rates", "reactions", "sperp_basis")

    def test_built_once_read_only_and_equal_to_asarray(self, two_component_net):
        net = two_component_net
        view = net.floats
        assert net.floats is view
        for name in self.NAMES:
            arr = getattr(view, name)
            assert getattr(view, name) is arr  # converted once
            ref = np.asarray(getattr(net, name), dtype=float)
            # same values and layout: matrix products round alike
            assert np.array_equal(arr, ref) and arr.strides == ref.strides
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        consts = net.tree_constants()
        assert consts.as_float() is consts.as_float()
        assert consts.as_float().tolist() == [float(k) for k in consts.values]
        with pytest.raises(ValueError):
            consts.as_float()[0] = 1.0

    def test_concurrent_first_access_equal_copies(self, two_component_net):
        # a race on first access may convert twice, never to different values
        net, results = two_component_net, []
        barrier = threading.Barrier(8, timeout=10)

        def grab():
            barrier.wait()
            results.append([getattr(net.floats, n) for n in self.NAMES]
                           + [net.tree_constants().as_float()])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grab) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 8
        for got in results:
            assert all(np.array_equal(a, b) for a, b in zip(got, results[0]))
        assert net.floats.rates is net.floats.rates

    def test_float_network_arrays_are_copies(self):
        net = _dimer(0.5)
        assert net.floats.rates is not net.rates
        assert net.floats.rates.tolist() == net.rates.tolist()
        net.rates[0] = 0.25  # the network's own arrays stay writable
        assert net.floats.rates[0] == 0.5

    def test_lazy_exact_analysis_where_the_view_refuses(self):
        # exact analysis never builds the view: a label beyond float64 is
        # refused only by float evaluations
        net = _dimer(Fraction(10**400))
        assert net.tree_constants().values.tolist() == [1, 10**400]
        dec = core_matrix(net.graph, default_chain_aux(net.graph), consts=net.tree_constants())
        assert verify_core_decomposition(dec).passed
        with pytest.raises(FloatRangeError, match="a rate constant is outside"):
            net.floats.rates
        for call in (
            lambda: mass_action_rhs(net, [0.5]),
            lambda: is_cbe(net, [Fraction(1, 2)]),
            lambda: net.tree_constants().as_float(),
        ):
            with pytest.raises(FloatRangeError):
                call()
        assert net.floats.complexes.tolist() == [[1.0, 2.0]]

    def test_complex_entry_beyond_float64_refused_before_exact_powers(self):
        # x^(10^400) is never formed: the exact path needs Y as float64 too
        net = _dimer(1, y2=10**400)
        assert net.tree_constants().values.tolist() == [1, 1]
        with pytest.raises(FloatRangeError, match="a complex entry is outside"):
            evaluate(net, [Fraction(1, 2)])

    @pytest.mark.parametrize(
        "labels",
        [(0.5, Fraction(10**400)), (0.5, Fraction(1, 10**400))],
        ids=["1e400", "1e-400"],
    )
    def test_mixed_labels_checked(self, labels):
        # one float label makes the others floats; one float64 cannot hold is refused
        with pytest.raises(FloatRangeError, match="label 2->1 is outside"):
            build_digraph(["1", "2"], [("1", "2", labels[0]), ("2", "1", labels[1])])

    @pytest.mark.parametrize("entry", [Fraction(10**400), Fraction(1, 10**400)], ids=["1e400", "1e-400"])
    def test_mixed_complexes_checked(self, entry):
        g = build_digraph(["1", "2"], [("1", "2", 1), ("2", "1", 1)])
        with pytest.raises(FloatRangeError, match="a complex entry is outside"):
            build_network(["A"], [[1.0, entry]], g)
        assert build_network(["A"], [[1.0, Fraction(1, 2)]], g).complexes.tolist() == [[1.0, 0.5]]
