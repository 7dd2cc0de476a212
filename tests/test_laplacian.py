import dataclasses
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnlap import (
    build_digraph,
    core_matrix,
    cycle_decomposition,
    default_chain_aux,
    laplacian_matrix,
    make_aux_tree,
    tree_constants,
    verify_core_decomposition,
)
from crnlap import exact
from crnlap.errors import FloatRangeError, NotStronglyConnectedError
from crnlap.laplacian import (
    FLOAT_RESIDUAL_RTOL,
    CoreDecomposition,
    TreeConstants,
)

from conftest import running_example_graph
from generators import (
    rand_fraction,
    random_general_aux,
    random_scc_digraph,
    random_star_aux,
)
from oracles import (
    aux_incidence,
    brute_arborescences,
    cycle_reconstruction,
    elimination_left_inverse,
    incidence_matrices,
    rank,
)


def running_example_matrices(k12, k21, k23, k31):
    """Closed forms for the running example, straight from the definitions."""
    a = exact.matrix(
        [
            [-k12, k21, k31],
            [k12, -k21 - k23, 0],
            [0, k23, -k31],
        ]
    )
    k_vec = exact.vector([k23 * k31 + k21 * k31, k31 * k12, k12 * k23])
    return a, k_vec


class TestLaplacianMatrix:
    def test_running_example_symbolic(self):
        rng = random.Random(1)
        for _ in range(20):
            ks = [rand_fraction(rng) for _ in range(4)]
            g = running_example_graph(*ks)
            a_expected, _ = running_example_matrices(*ks)
            assert np.array_equal(laplacian_matrix(g), a_expected)

    def test_running_example_unit_labels(self, running_graph):
        expected = exact.matrix([[-1, 1, 1], [1, -2, 0], [0, 1, -1]])
        assert np.array_equal(laplacian_matrix(running_graph), expected)

    def test_edgeless_graph(self):
        g = build_digraph([1, 2], [])
        assert np.array_equal(laplacian_matrix(g), exact.zeros(2, 2))

    def test_column_sums_zero(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_scc_digraph(rng)
            a = laplacian_matrix(g)
            for j in range(g.n_vertices):
                assert sum(a[:, j]) == 0


class TestTreeConstants:
    def test_running_example_closed_form_20_random_k(self):
        rng = random.Random(3)
        for _ in range(20):
            ks = [rand_fraction(rng) for _ in range(4)]
            g = running_example_graph(*ks)
            _, expected = running_example_matrices(*ks)
            assert np.array_equal(tree_constants(g).values, expected)

    def test_running_example_unit(self, running_graph):
        assert tree_constants(running_graph).values.tolist() == [2, 1, 1]

    def test_unit_three_cycle_symmetric(self):
        g = build_digraph([1, 2, 3], [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
        assert tree_constants(g).values.tolist() == [1, 1, 1]

    def test_rejects_non_scc_graph(self):
        g = build_digraph([1, 2], [(1, 2, 1)])
        with pytest.raises(NotStronglyConnectedError):
            tree_constants(g)

    def test_backends_agree_and_kernel_property(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_scc_digraph(rng)
            values = tree_constants(g).values
            for v in g.vertex_ids:
                expected = Fraction(0)
                for arb in brute_arborescences(g, v):
                    prod = Fraction(1)
                    for e in arb:
                        prod *= g.labels[e]
                    expected += prod
                got = values[g.index[v]]
                assert isinstance(got, Fraction) and got == expected
            assert all(v > 0 for v in values)
            a = laplacian_matrix(g)
            assert all(v == 0 for v in a @ values)


class TestCoreMatrix:
    def test_running_chain_symbolic(self):
        rng = random.Random(6)
        for _ in range(20):
            k12, k21, k23, k31 = (rand_fraction(rng) for _ in range(4))
            g = running_example_graph(k12, k21, k23, k31)
            aux = make_aux_tree(g, "chain", [["1", "2", "3"]])
            dec = core_matrix(g, aux)
            expected = k12 * k23 * k31 * exact.matrix(
                [[1, 1], [0, 1]]
            ) + k12 * k21 * k31 * exact.matrix([[1, 0], [0, 0]])
            assert np.array_equal(dec.core, expected)
            assert dec.residual == 0.0

    def test_running_chain_not_subgraph_symbolic(self):
        # chain 1 -> 3 -> 2; neither edge belongs to the graph
        rng = random.Random(7)
        for _ in range(10):
            k12, k21, k23, k31 = (rand_fraction(rng) for _ in range(4))
            g = running_example_graph(k12, k21, k23, k31)
            aux = make_aux_tree(g, "chain", [["1", "3", "2"]])
            dec = core_matrix(g, aux)
            expected = k12 * k23 * k31 * exact.matrix(
                [[1, 0], [1, 1]]
            ) + k12 * k21 * k31 * exact.matrix([[1, 1], [1, 1]])
            assert np.array_equal(dec.core, expected)

    def test_running_chain_unit(self, running_graph):
        aux = make_aux_tree(running_graph, "chain", [["1", "2", "3"]])
        dec = core_matrix(running_graph, aux)
        assert dec.core.tolist() == [[2, 1], [0, 1]]
        inc = aux_incidence(running_graph, aux)
        m = -(inc @ dec.core @ inc.T)
        assert m.tolist() == [[-2, 1, 1], [2, -2, 0], [0, 1, -1]]

    def test_running_star_unit_matches_minor_deletion(self, running_graph):
        aux = make_aux_tree(running_graph, "star", ["1"])
        dec = core_matrix(running_graph, aux)
        assert dec.core.tolist() == [[2, 0], [-1, 1]]
        # equals -A_k diag(K) with the root row and column removed
        a = laplacian_matrix(running_graph)
        consts = tree_constants(running_graph).values
        m = -(a * consts[np.newaxis, :])
        assert dec.core.tolist() == m[1:, 1:].tolist()

    def test_running_star_root3_symbolic(self):
        rng = random.Random(8)
        for _ in range(10):
            k12, k21, k23, k31 = (rand_fraction(rng) for _ in range(4))
            g = running_example_graph(k12, k21, k23, k31)
            aux = make_aux_tree(g, "star", ["3"])
            dec = core_matrix(g, aux)
            expected = k12 * k23 * k31 * exact.matrix(
                [[1, 0], [-1, 1]]
            ) + k12 * k21 * k31 * exact.matrix([[1, -1], [-1, 1]])
            assert np.array_equal(dec.core, expected)

    def test_uniqueness_independent_of_left_inverse(self):
        # -L M L.T with an elimination left inverse L and M built from the
        # incidence product equals the tree-cut core exactly, for every kind
        rng = random.Random(9)
        for _ in range(10):
            g = random_scc_digraph(rng, n_max=5)
            inc_e, src = incidence_matrices(g)
            k = np.array([g.labels[e] for e in g.edges], dtype=object)
            consts = tree_constants(g)
            m = ((inc_e * k[np.newaxis, :]) @ src.T) * consts.values[np.newaxis, :]
            for aux in (
                default_chain_aux(g),
                random_star_aux(rng, g),
                random_general_aux(rng, g),
            ):
                left = elimination_left_inverse(g, aux)
                dec = core_matrix(g, aux, consts=consts)
                assert np.array_equal(dec.core, -(left @ m @ left.T))
                assert all(isinstance(v, Fraction) for v in dec.core.flat)

    def test_decomposition_identity_random_aux(self):
        rng = random.Random(10)
        for _ in range(20):
            g = random_scc_digraph(rng, n_max=6)
            aux = random_general_aux(rng, g)
            dec = core_matrix(g, aux)
            assert dec.residual == 0.0
            assert verify_core_decomposition(dec).passed

    def test_star_entries_match_minor_formula(self):
        rng = random.Random(12)
        for _ in range(15):
            g = random_scc_digraph(rng, n_max=6)
            aux = random_star_aux(rng, g)
            dec = core_matrix(g, aux)
            a = laplacian_matrix(g)
            consts = tree_constants(g).values
            for r, (i, _) in enumerate(aux.edges):
                for c, (j, _) in enumerate(aux.edges):
                    if aux.component_map[r] != aux.component_map[c]:
                        continue
                    expected = -(a[g.index[i], g.index[j]] * consts[g.index[j]])
                    assert dec.core[r, c] == expected

    def test_float_mode_residual(self):
        rng = random.Random(13)
        done = 0
        while done < 10:
            g = random_scc_digraph(rng, n_max=5)
            if g.n_edges == 0:
                continue
            done += 1
            gf = build_digraph(
                g.vertex_ids, [(s, d, float(g.labels[(s, d)])) for s, d in g.edges]
            )
            aux = random_general_aux(rng, gf)
            dec = core_matrix(gf, aux)
            assert not dec.exact
            assert verify_core_decomposition(dec).passed

    def test_float_overflow_refused(self):
        # 1 <-> 2 with labels 1e300 and 1e10: K = (1e10, 1e300) fits float64,
        # but the flux 1e310 overflows
        g = build_digraph(["1", "2"], [("1", "2", 1e300), ("2", "1", 1e10)])
        aux = default_chain_aux(g)
        k = tree_constants(g).values
        assert np.all(np.abs(k - [1e10, 1e300]) <= 1e-15 * np.array([1e10, 1e300]))
        # mirrored: the quotient of the two labels underflows, K does not
        far = build_digraph(["1", "2"], [("1", "2", 1e-200), ("2", "1", 1e200)])
        assert tree_constants(far).values.tolist() == [1e200, 1e-200]
        near = build_digraph(["1", "2"], [("1", "2", 1e-160), ("2", "1", 1e160)])
        k = tree_constants(near).values
        assert np.all(np.abs(k - [1e160, 1e-160]) <= 1e-15 * np.array([1e160, 1e-160]))
        consts = TreeConstants(values=np.array([1e10, 1e300]))
        with pytest.raises(FloatRangeError):
            core_matrix(g, aux, consts=consts)


class TestVerify:
    def test_chain_decomposition_passes(self, running_graph):
        aux = make_aux_tree(running_graph, "chain", [["1", "2", "3"]])
        report = verify_core_decomposition(core_matrix(running_graph, aux))
        assert report.passed
        assert report.chain_signs_ok and report.star_signs_ok is None

    def test_star_dominance_non_strict(self, running_graph):
        aux = make_aux_tree(running_graph, "star", ["1"])
        report = verify_core_decomposition(core_matrix(running_graph, aux))
        assert report.passed
        assert report.star_signs_ok

    def test_corrupted_core_fails_residual(self, running_graph):
        aux = make_aux_tree(running_graph, "chain", [["1", "2", "3"]])
        dec = core_matrix(running_graph, aux)
        bad_core = dec.core.copy()
        bad_core[0, 0] = bad_core[0, 0] + 1
        inc = aux_incidence(running_graph, aux)
        m = dec.laplacian * dec.tree_constants.values[np.newaxis, :]
        res = m + inc @ bad_core @ inc.T
        bad = CoreDecomposition(
            aux=dec.aux,
            core=bad_core,
            laplacian=dec.laplacian,
            tree_constants=dec.tree_constants,
            residual=float(max(abs(v) for v in res.flat)),
        )
        assert not verify_core_decomposition(bad).residual_ok


class TestCycleDecomposition:
    def test_running_example_two_published_terms(self):
        rng = random.Random(14)
        for _ in range(10):
            k12, k21, k23, k31 = (rand_fraction(rng) for _ in range(4))
            g = running_example_graph(k12, k21, k23, k31)
            dec = cycle_decomposition(g)
            by_seq = {c.vertex_seq: lam for c, lam in dec.terms}
            assert by_seq == {
                ("1", "2"): k12 * k21 * k31,
                ("1", "2", "3"): k12 * k23 * k31,
            }

    def test_unit_labels_reconstruction(self, running_graph):
        dec = cycle_decomposition(running_graph)
        assert all(lam == 1 for _, lam in dec.terms)
        total = cycle_reconstruction(running_graph, dec)
        assert total.tolist() == [[-2, 1, 1], [2, -2, 0], [0, 1, -1]]

    def test_two_cycle_single_term(self):
        k12, k21 = Fraction(3, 2), Fraction(5, 7)
        g = build_digraph([1, 2], [(1, 2, k12), (2, 1, k21)])
        dec = cycle_decomposition(g)
        assert len(dec.terms) == 1
        assert dec.terms[0][1] == k12 * k21

    def test_reconstruction_identity_random(self):
        rng = random.Random(15)
        for _ in range(20):
            g = random_scc_digraph(rng, n_max=6)
            dec = cycle_decomposition(g)
            assert all(lam > 0 for _, lam in dec.terms)
            a = laplacian_matrix(g)
            consts = tree_constants(g).values
            m = a * consts[np.newaxis, :]
            assert np.array_equal(cycle_reconstruction(g, dec), m)

    @pytest.mark.parametrize("label", [1e200, 1e-120])
    def test_float_coefficient_beyond_float_range_refused(self, label):
        # the one coefficient, label**3, is 1e600 or 1e-360; the tree
        # constants label**2 are refused only in the first case
        edges = [("1", "2", label), ("2", "3", label), ("3", "1", label)]
        with pytest.raises(FloatRangeError):
            cycle_decomposition(build_digraph(["1", "2", "3"], edges))

    @pytest.mark.parametrize("label", [1e200, 1e-120])
    def test_exact_coefficient_beyond_float_range_kept(self, label):
        k = Fraction(label)
        edges = [("1", "2", k), ("2", "3", k), ("3", "1", k)]
        ((cycle, coeff),) = cycle_decomposition(build_digraph(["1", "2", "3"], edges)).terms
        assert cycle.vertex_seq == ("1", "2", "3") and coeff == k**3


@st.composite
def wide_spread_float_graphs(draw, decades=8.0):
    """A strongly connected block with chords and labels 10^U(-decades,
    decades), and sometimes an extra edgeless vertex; vertex ids are
    arbitrary strings."""
    n = draw(st.integers(2, 5))
    ids = draw(st.lists(st.text(min_size=0, max_size=3), min_size=n, max_size=n, unique=True))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    ring = {(i, (i + 1) % n) for i in range(n)}
    chords = [p for p in pairs if p not in ring and draw(st.booleans())]
    edges = [
        (ids[a], ids[b], 10.0 ** draw(st.floats(-decades, decades)))
        for a, b in sorted(ring) + chords
    ]
    if draw(st.booleans()):
        ids = ids + ["lone" + "".join(ids)]
    return build_digraph(ids, edges)


class TestFloatAccuracy:
    """GTH state reduction is subtraction-free, so float results keep a
    small relative error entry by entry, whatever the label spread."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(wide_spread_float_graphs())
    def test_wide_spread_labels_match_exact_copy(self, gf):
        ge = build_digraph(
            gf.vertex_ids, [(s, d, Fraction(gf.labels[(s, d)])) for (s, d) in gf.edges]
        )
        got = tree_constants(gf).values
        want = tree_constants(ge).values
        pairs = list(zip(got, want))
        pairs += [
            (lf, le)
            for (_, lf), (_, le) in zip(
                cycle_decomposition(gf).terms, cycle_decomposition(ge).terms
            )
        ]
        for f, e in pairs:
            assert isinstance(e, Fraction) and f > 0
            assert abs(Fraction(f) - e) <= Fraction(1e-13) * e

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(wide_spread_float_graphs(), st.integers(0, 2**32))
    def test_wide_spread_cores(self, gf, seed):
        # stars: the one product -A[i, j] K_j, to the bit; chain and general
        # trees: within 1e-14 of the largest entry of the exact copy's core
        rng = random.Random(seed)
        ge = build_digraph(
            gf.vertex_ids, [(s, d, Fraction(gf.labels[(s, d)])) for (s, d) in gf.edges]
        )
        star = random_star_aux(rng, gf)
        a = laplacian_matrix(gf)
        k = tree_constants(gf).values
        rows = [gf.index[i] for i, _ in star.edges]
        expected = -(a[np.ix_(rows, rows)] * k[rows][np.newaxis, :])
        assert core_matrix(gf, star).core.tobytes() == expected.tobytes()
        for aux in (default_chain_aux(gf), random_general_aux(rng, gf)):
            got = core_matrix(gf, aux).core
            want = core_matrix(ge, aux).core
            scale = max(abs(v) for v in want.flat)
            assert all(isinstance(v, Fraction) for v in want.flat)
            assert all(
                abs(Fraction(f) - e) <= Fraction(1e-14) * scale
                for f, e in zip(got.flat, want.flat)
            )


    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(wide_spread_float_graphs(decades=250.0))
    def test_labels_beyond_float_range_spread(self, gf):
        # censored rates, pivots and partial sums may leave float64 though K
        # fits: K is then still accurate, and refused only when it overflows
        ge = build_digraph(
            gf.vertex_ids, [(s, d, Fraction(gf.labels[(s, d)])) for (s, d) in gf.edges]
        )
        want = tree_constants(ge).values
        tiny, big = Fraction(sys.float_info.min), Fraction(sys.float_info.max)
        if any(e > big for e in want):
            with pytest.raises(FloatRangeError):
                tree_constants(gf)
        elif all(e >= tiny for e in want):
            got = tree_constants(gf).values
            assert all(
                abs(Fraction(f) - e) <= Fraction(1e-13) * e for f, e in zip(got, want)
            )

    @pytest.mark.parametrize(
        "edges",
        [
            # w[1][2] / s_2 = 1e-323 is subnormal
            [("0", "1", 1e67), ("1", "2", 1e-161), ("2", "0", 1e162)],
            # s_1 s_2 = 1e-318 is subnormal, s_1 s_2 s_3 is not
            [("0", "1", 1.0), ("0", "2", 1.0), ("0", "3", 1e300),
             ("1", "0", 1e-159), ("2", "0", 1e-159), ("3", "0", 1e300)],
            # w[1][2] / s_2 = 1e400 overflows
            [("0", "1", 1.0), ("1", "2", 1e200), ("2", "0", 1e-200)],
            # w[1][0] gets 1e-200 (1e-200 / 1e200), so s_1 underflows to 0
            [("0", "1", 1.0), ("1", "2", 1e-200), ("2", "0", 1e200)],
        ],
    )
    def test_intermediates_beyond_float_range(self, edges):
        vs = sorted({v for e in edges for v in e[:2]})
        got = tree_constants(build_digraph(vs, edges)).values
        want = tree_constants(
            build_digraph(vs, [(s, d, Fraction(k)) for s, d, k in edges])
        ).values
        assert all(
            abs(Fraction(f) - e) <= Fraction(1e-15) * e for f, e in zip(got, want)
        )

    def test_pivot_below_float_range_refused(self):
        # K of vertex 0 is about 1e-400; the pivot of vertex 1 underflows
        g = build_digraph(
            ["0", "1", "2"],
            [("0", "1", 1.0), ("1", "2", 1e-200), ("2", "0", 1e-200), ("2", "1", 1e200)],
        )
        with pytest.raises(FloatRangeError):
            tree_constants(g)

    @pytest.mark.parametrize("label", [float("inf"), float("nan")])
    def test_non_finite_label_refused(self, label):
        edges = [("0", "1", label), ("1", "2", 1.0), ("2", "0", 1.0)]
        g = build_digraph(["0", "1", "2"], edges)
        with pytest.raises(FloatRangeError):
            tree_constants(g)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(wide_spread_float_graphs())
    def test_residual_limit_is_dense_max(self, gf):
        # the float residual limit is FLOAT_RESIDUAL_RTOL max |A_k diag K|,
        # read off the diagonal: the limit itself passes, the next float fails
        dec = core_matrix(gf, default_chain_aux(gf))
        m = dec.laplacian * dec.tree_constants.values[np.newaxis, :]
        limit = FLOAT_RESIDUAL_RTOL * float(np.max(np.abs(m)))
        at = dataclasses.replace(dec, residual=limit)
        over = dataclasses.replace(dec, residual=float(np.nextafter(limit, np.inf)))
        assert verify_core_decomposition(at).residual_ok
        assert not verify_core_decomposition(over).residual_ok


class TestImageEqualities:
    def test_column_spaces_agree(self):
        rng = random.Random(16)
        for _ in range(15):
            g = random_scc_digraph(rng, n_max=6)
            a = laplacian_matrix(g)
            inc_e, _ = incidence_matrices(g)
            aux = random_general_aux(rng, g)
            inc_aux = aux_incidence(g, aux)
            r = rank(a)
            assert r == rank(inc_e) == rank(inc_aux)
            assert rank(np.hstack([a, inc_e])) == r
            assert rank(np.hstack([inc_e, inc_aux])) == r
