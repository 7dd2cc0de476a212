import dataclasses
import random
import re
import sys
import time
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
from crnlap import exact, laplacian
from crnlap.errors import (
    DimensionTooLargeError,
    FloatRangeError,
    InvalidAuxTreeError,
    NotStronglyConnectedError,
)
from crnlap.graph import MAX_CYCLES, AuxTree, enumerate_cycles, validate_aux_tree
from crnlap.laplacian import FLOAT_RESIDUAL_RTOL, TreeConstants

from conftest import running_example_graph
from generators import (
    rand_fraction,
    random_general_aux,
    random_scc_digraph,
    random_star_aux,
    to_float_graph,
)
from oracles import (
    aux_incidence,
    brute_arborescences,
    cycle_reconstruction,
    det,
    elimination_left_inverse,
    forest_cycle_coefficient,
    gth_tree_constants,
    incidence_matrices,
    rank,
    reference_cycle_decomposition,
    reference_enumerate_cycles,
    tree_cut_core,
)


def mixed_denominator_digraph(rng, dens):
    """One strongly connected component of 2-5 vertices per entry of `dens`,
    a Hamiltonian cycle plus random chords, each label over a denominator
    drawn from that entry, so every component has its own scale."""
    vertices, edges = [], []
    for choices in dens:
        comp = [str(len(vertices) + i + 1) for i in range(rng.randint(2, 5))]
        vertices += comp
        pairs = set(zip(comp, comp[1:] + comp[:1]))
        pairs |= {(a, b) for a in comp for b in comp if a != b and rng.random() < 0.4}
        edges += [
            (a, b, Fraction(rng.randint(1, 40), rng.choice(choices)))
            for a, b in sorted(pairs)
        ]
    return build_digraph(vertices, edges)


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


@st.composite
def multi_component_exact_graphs(draw):
    """One to three strongly connected components of 1-5 vertices, each a
    ring with random chords, declared in shuffled order, with labels
    p/q 10^e for p, q in [1, 99] and e in [-40, 40]."""
    label = st.builds(
        lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
        st.integers(1, 99), st.integers(1, 99), st.integers(-40, 40),
    )
    vertices, edges = [], []
    for n in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)):
        comp = [str(len(vertices) + i) for i in range(n)]
        vertices += comp
        ring = {(comp[i], comp[(i + 1) % n]) for i in range(n) if n > 1}
        chords = [
            (a, b) for a in comp for b in comp
            if a != b and (a, b) not in ring and draw(st.booleans())
        ]
        edges += [(a, b, draw(label)) for a, b in sorted(ring) + chords]
    return build_digraph(draw(st.permutations(vertices)), edges)


class TestFractionFree:
    """Exact tree constants come from fraction-free elimination on ints;
    they must equal GTH reduction on Fractions and the arborescence sums."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(multi_component_exact_graphs())
    def test_equals_gth_and_arborescence_sums(self, g):
        got = tree_constants(g).values
        oracle = gth_tree_constants(g)
        assert all(type(k) is Fraction for k in got)
        assert all(type(k) is Fraction for k in oracle)
        assert got.tolist() == oracle.tolist()
        for v in g.vertex_ids:
            expected = Fraction(0)
            for arb in brute_arborescences(g, v):
                prod = Fraction(1)
                for e in arb:
                    prod *= g.labels[e]
                expected += prod
            assert got[g.index[v]] == expected


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
            assert verify_core_decomposition(dec).residual == 0.0

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
            report = verify_core_decomposition(core_matrix(g, aux))
            assert report.residual == 0.0 and report.passed

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
                    if g.component_index[i] != g.component_index[j]:
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

    def test_float_zeros_are_positive(self):
        # zero core entries are +0.0, so a float core prints 0.0, not -0.0
        rng = random.Random(19)
        for _ in range(20):
            gf = to_float_graph(random_scc_digraph(rng, n_max=6))
            if gf.exact:  # no edges, so no float label
                continue
            for aux in (
                default_chain_aux(gf),
                random_star_aux(rng, gf),
                random_general_aux(rng, gf),
            ):
                core = core_matrix(gf, aux).core
                assert not np.any(np.signbit(core) & (core == 0))
        cycle = build_digraph(["1", "2", "3"], [("1", "2", 1.0), ("2", "3", 1.0), ("3", "1", 1.0)])
        core = core_matrix(cycle, default_chain_aux(cycle)).core
        assert core.tolist() == [[1.0, 1.0], [0.0, 1.0]] and not np.signbit(core[1, 0])

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
        # the root's fluxes sum past float64, though the star core fits:
        # the residual is refused where it is computed
        g = build_digraph(
            ["1", "2", "3"],
            [("1", "2", 1e308), ("1", "3", 1e308), ("2", "1", 1.0), ("3", "1", 1.0)],
        )
        dec = core_matrix(g, make_aux_tree(g, "star", ["1"]))
        assert dec.core.tolist() == [[1e308, 0.0], [0.0, 1e308]]
        with pytest.raises(FloatRangeError):
            verify_core_decomposition(dec)


class TestIntegerAssembly:
    """Exact cores are assembled on ints, one scale per component, and
    divided once per entry; they must equal the dense rational product."""

    DENS = ([(7,), (9, 4)], [(7,), (9, 4), (1, 11)], [(3, 5), (1,), (8,)])

    @pytest.mark.parametrize("dens", DENS, ids=["7|9,4", "7|9,4|1,11", "3,5|1|8"])
    def test_core_equals_dense_oracle(self, dens):
        rng = random.Random(len(dens) * 100 + sum(map(len, dens)))
        for _ in range(8):
            g = mixed_denominator_digraph(rng, dens)
            consts = tree_constants(g)
            for aux in (
                default_chain_aux(g),
                random_star_aux(rng, g),
                random_general_aux(rng, g),
            ):
                dec = core_matrix(g, aux, consts=consts)
                assert dec.core.dtype == object
                assert all(type(v) is Fraction for v in dec.core.flat)
                assert np.array_equal(dec.core, tree_cut_core(g, aux, consts))
                residual = verify_core_decomposition(dec).residual
                assert residual == 0.0 and type(residual) is float

    def test_ints_formed_once(self, monkeypatch):
        # one analysis, three trees: the labels are scaled to ints once per
        # graph and the tree constants once per constant vector
        calls = []
        component_ints = laplacian._component_ints
        monkeypatch.setattr(
            laplacian, "_component_ints", lambda *args: calls.append(1) or component_ints(*args)
        )
        rng = random.Random(32)
        g = mixed_denominator_digraph(rng, [(7,), (9, 4)])
        consts = tree_constants(g)
        for aux in (default_chain_aux(g), random_star_aux(rng, g), random_general_aux(rng, g)):
            assert verify_core_decomposition(core_matrix(g, aux, consts=consts)).passed
        assert len(calls) == 2
        core_matrix(g, default_chain_aux(g), consts=tree_constants(g))
        assert len(calls) == 3
        with pytest.raises(ValueError, match="read-only"):
            consts.values[0] *= 2  # would leave the kept ints stale

    def test_constants_shared_by_two_graphs(self):
        # the ints kept with a constant vector belong to one graph: the same
        # vector serves a graph with labels times 5/3 and other denominators
        rng = random.Random(33)
        for _ in range(8):
            g = mixed_denominator_digraph(rng, [(7,), (9, 4)])
            h = build_digraph(
                g.vertex_ids, [(s, d, g.labels[(s, d)] * Fraction(5, 3)) for s, d in g.edges]
            )
            consts = tree_constants(g)
            aux = random_general_aux(rng, g)
            core = core_matrix(g, aux, consts=consts).core
            dec = core_matrix(h, aux, consts=consts)
            assert np.array_equal(dec.core, Fraction(5, 3) * core)
            assert verify_core_decomposition(dec).residual == 0.0

    def test_scaled_constants_scale_the_core(self):
        # any positive kernel vector may be passed: its own denominators set
        # the constants' scale, whatever the labels' are
        rng = random.Random(31)
        for _ in range(8):
            g = mixed_denominator_digraph(rng, [(7,), (9, 4)])
            consts = tree_constants(g)
            scaled = TreeConstants(values=consts.values * Fraction(3, 7))
            for aux in (
                default_chain_aux(g),
                random_star_aux(rng, g),
                random_general_aux(rng, g),
            ):
                core = core_matrix(g, aux, consts=consts).core
                dec = core_matrix(g, aux, consts=scaled)
                assert np.array_equal(dec.core, Fraction(3, 7) * core)
                assert all(type(v) is Fraction for v in dec.core.flat)
                assert verify_core_decomposition(dec).residual == 0.0


class TestVerify:
    def test_tree_validated_once(self, running_graph, monkeypatch):
        # the result of core_matrix is checked without validating its tree
        # again; a copy made by dataclasses.replace is validated
        calls = []
        validate = laplacian.validate_aux_tree
        monkeypatch.setattr(
            laplacian, "validate_aux_tree", lambda g, aux: calls.append(aux) or validate(g, aux)
        )
        dec = core_matrix(running_graph, default_chain_aux(running_graph))
        assert verify_core_decomposition(dec).passed and len(calls) == 1
        assert verify_core_decomposition(dataclasses.replace(dec)).passed and len(calls) == 2

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

    @pytest.mark.parametrize(
        "core, ok",
        [
            ([[1, 0], [-1, 1]], True),
            ([[1, 0], [-2, 3]], False),  # column 0 outweighs its diagonal
            ([[1, -2], [0, 3]], False),  # row 0 outweighs its diagonal
            ([[1, 1], [0, 1]], False),  # a positive off-diagonal entry
            ([[0, 0], [0, 1]], False),  # a zero diagonal entry
        ],
    )
    def test_star_signs_of_given_core(self, running_graph, core, ok):
        # a positive diagonal, nonpositive off-diagonal entries, and each
        # diagonal entry at least its row's and its column's other entries
        aux = make_aux_tree(running_graph, "star", ["1"])
        dec = dataclasses.replace(core_matrix(running_graph, aux), core=exact.matrix(core))
        assert verify_core_decomposition(dec).star_signs_ok is ok

    def test_corrupted_core_fails_residual(self, running_graph):
        # the residual is computed from the core it is given: one unit more
        # at core[0, 0] adds I_aux e_0 e_0.T I_aux.T, whose entries are +-1
        aux = make_aux_tree(running_graph, "chain", [["1", "2", "3"]])
        dec = core_matrix(running_graph, aux)
        bad_core = dec.core.copy()
        bad_core[0, 0] = bad_core[0, 0] + 1
        report = verify_core_decomposition(dataclasses.replace(dec, core=bad_core))
        assert not report.residual_ok and report.residual == 1.0
        assert report.invertible and not report.passed

    def test_wrong_invertible_core_fails_residual(self):
        # twice the core is invertible, and its residual is -A_k diag K
        rng = random.Random(41)
        for _ in range(20):
            g = random_scc_digraph(rng, n_max=6)
            if g.n_edges == 0:  # an empty core: twice it is itself
                continue
            m = laplacian_matrix(g) * tree_constants(g).values[np.newaxis, :]
            for aux in (default_chain_aux(g), random_star_aux(rng, g), random_general_aux(rng, g)):
                dec = core_matrix(g, aux)
                report = verify_core_decomposition(dataclasses.replace(dec, core=2 * dec.core))
                assert report.residual == float(max(abs(v) for v in m.flat))
                assert report.invertible
                assert not report.residual_ok and not report.passed

    def test_zero_tree_constants_not_invertible(self, running_graph):
        # K = 0 gives a zero core and a zero residual, which proves nothing
        aux = make_aux_tree(running_graph, "chain", [["1", "2", "3"]])
        zeros = TreeConstants(values=exact.vector([0, 0, 0]))
        report = verify_core_decomposition(core_matrix(running_graph, aux, consts=zeros))
        assert report.residual_ok and report.residual == 0.0
        assert not report.invertible and not report.passed
        # swapped in under a core built from the true constants
        dec = core_matrix(running_graph, aux)
        report = verify_core_decomposition(dataclasses.replace(dec, tree_constants=zeros))
        assert not report.residual_ok and not report.passed

    @pytest.mark.parametrize(
        "edges, kind",
        [((("1", "2"), ("2", "1")), "general"), ((("1", "2"), ("2", "3")), "chian")],
        ids=["cycle", "kind"],
    )
    def test_invalid_aux_tree_refused(self, running_graph, edges, kind):
        dec = core_matrix(running_graph, default_chain_aux(running_graph))
        bad = dataclasses.replace(dec, aux=AuxTree(edges=edges, kind=kind))
        with pytest.raises(InvalidAuxTreeError):
            verify_core_decomposition(bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_core_refused(self, value):
        # core[1, 1] of the chain 1-2-3 reaches only rows 2 and 3 of the
        # residual, so a max that skipped a NaN there would still be finite
        g = build_digraph(["1", "2", "3"], [(a, b, 1.0) for a in "123" for b in "123" if a != b])
        dec = core_matrix(g, default_chain_aux(g))
        core = dec.core.copy()
        core[1, 1] = value
        with pytest.raises(FloatRangeError):
            verify_core_decomposition(dataclasses.replace(dec, core=core))

    def test_invertible_matches_block_determinants(self):
        # built cores, where a zero residual decides, and cores with a block
        # made singular or perturbed, where Bareiss does: the verdict is
        # that of the oracle's determinant of every block
        rng = random.Random(42)
        singular = 0
        for _ in range(300):
            g = random_scc_digraph(rng, n_max=6)
            consts = tree_constants(g)
            for aux in (default_chain_aux(g), random_star_aux(rng, g), random_general_aux(rng, g)):
                dec = core_matrix(g, aux, consts=consts)
                core = dec.core.copy()
                blocks = {}
                for r, (a, _) in enumerate(aux.edges):
                    blocks.setdefault(g.component_index[a], []).append(r)
                change = rng.choice(["none", "copy", "perturb"])
                if core.size and change == "copy":
                    idx = rng.choice(list(blocks.values()))
                    core[idx[-1], idx] = core[idx[0], idx] * rand_fraction(rng)
                elif core.size and change == "perturb":
                    r, t = rng.randrange(len(core)), rng.randrange(len(core))
                    core[r, t] = core[r, t] + rng.randint(-2, 2)
                want = all(det(core[np.ix_(idx, idx)]) != 0 for idx in blocks.values())
                singular += not want
                report = verify_core_decomposition(dataclasses.replace(dec, core=core))
                assert report.invertible == want
                assert report.residual_ok == np.array_equal(core, dec.core)
        assert singular > 50

    def test_singular_block_not_invertible(self, running_graph):
        # row 1 is twice row 0, both with fractional entries
        aux = make_aux_tree(running_graph, "chain", [["1", "2", "3"]])
        dec = core_matrix(running_graph, aux)
        core = exact.matrix([[Fraction(1, 3), Fraction(-2, 7)], [Fraction(2, 3), Fraction(-4, 7)]])
        report = verify_core_decomposition(dataclasses.replace(dec, core=core))
        assert not report.invertible and not report.passed

    def test_huge_entries_invertible(self, running_graph):
        aux = make_aux_tree(running_graph, "star", ["1"])
        dec = core_matrix(running_graph, aux)
        big = 10**30
        core = exact.matrix(
            [
                [Fraction(big + 7, big - 3), Fraction(-(big + 1), 3 * big + 1)],
                [Fraction(-(big - 11), 7 * big + 9), Fraction(5 * big + 3, big + 13)],
            ]
        )
        assert verify_core_decomposition(dataclasses.replace(dec, core=core)).invertible
        # the same block with core[1, 1] chosen to make it singular is caught
        core[1, 1] = core[1, 0] * core[0, 1] / core[0, 0]
        assert not verify_core_decomposition(dataclasses.replace(dec, core=core)).invertible

    def test_hand_built_tree_blocks_come_from_graph(self, running_graph):
        # a tree built without a constructor still has its one block checked
        aux = AuxTree(edges=(("1", "2"), ("2", "3")), kind="chain")
        dec = core_matrix(running_graph, aux)
        assert verify_core_decomposition(dec).passed
        singular = exact.matrix([[1, 1], [1, 1]])
        report = verify_core_decomposition(dataclasses.replace(dec, core=singular))
        assert not report.invertible and not report.passed

    def test_blocks_far_apart_in_scale_invertible(self):
        # each block is tested on its own: ranked whole, the 1e-5 block
        # would fall below the rank cutoff set by the 1e5 one
        edges = [("1", "2"), ("2", "3"), ("3", "1"), ("4", "5"), ("5", "6"), ("6", "4")]
        labels = [1e5] * 3 + [1e-5] * 3
        g = build_digraph([str(v) for v in range(1, 7)],
                          [(a, b, k) for (a, b), k in zip(edges, labels)])
        report = verify_core_decomposition(core_matrix(g, default_chain_aux(g)))
        assert report.invertible and report.passed

    def test_unknown_kind_refused(self, running_graph):
        aux = AuxTree(edges=(("1", "2"), ("2", "3")), kind="chian")
        with pytest.raises(InvalidAuxTreeError, match="chian"):
            validate_aux_tree(running_graph, aux)
        with pytest.raises(InvalidAuxTreeError):
            core_matrix(running_graph, aux)

    @pytest.mark.parametrize(
        "kind, edges, message",
        [
            ("chian", [("1", "2"), ("2", "3"), ("4", "5")],
             "unknown aux tree kind 'chian'"),
            ("general", [("1", "9"), ("2", "3"), ("4", "5")],
             "edge 1->9 has an unknown endpoint"),
            ("general", [("1", "1"), ("2", "3"), ("4", "5")], "self-loop 1->1"),
            ("general", [("1", "2"), ("1", "2"), ("4", "5")], "duplicate aux edge"),
            ("general", [("1", "2"), ("3", "4"), ("4", "5")],
             "edge 3->4 crosses components"),
            ("general", [("1", "2"), ("4", "5")],
             r"component \['1', '2', '3'\] has 1 aux edges, expected 2"),
            ("general", [("1", "2"), ("2", "1"), ("4", "5")],
             r"aux edges contain an undirected cycle in \['1', '2', '3'\]"),
            ("chain", [("1", "2"), ("1", "3"), ("4", "5")],
             r"chain edges in \['1', '2', '3'\] do not form a path"),
            ("star", [("2", "1"), ("3", "2"), ("5", "4")],
             r"star edges in \['1', '2', '3'\] do not share a single root"),
        ],
        ids=["kind", "endpoint", "self-loop", "duplicate", "crossing", "count",
             "undirected-cycle", "chain-path", "star-root"],
    )
    def test_each_violation_refused_with_its_message(self, kind, edges, message):
        # two components, {1, 2, 3} and {4, 5}; every call that takes a
        # tree refuses it with the validator's message
        g = build_digraph(
            [str(v) for v in range(1, 6)],
            [("1", "2", 1), ("2", "3", 2), ("3", "1", 3), ("4", "5", 1), ("5", "4", 2)],
        )
        bad = AuxTree(edges=tuple(edges), kind=kind)
        with pytest.raises(InvalidAuxTreeError, match=message):
            validate_aux_tree(g, bad)
        with pytest.raises(InvalidAuxTreeError, match=message):
            core_matrix(g, bad)
        dec = core_matrix(g, default_chain_aux(g))
        with pytest.raises(InvalidAuxTreeError, match=message):
            verify_core_decomposition(dataclasses.replace(dec, aux=bad))


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

    def test_components_scaled_on_their_own(self):
        # exact labels of component c are taken times D_c, the lcm of their
        # denominators: 3 on the four-vertex component, 7 on the three-vertex
        # one, so a D_c^n_c from the wrong component changes every value
        rng = random.Random(17)
        for _ in range(5):
            big, small = ["1", "2", "3", "4"], ["5", "6", "7"]
            edges = []
            for comp, den in ((big, 3), (small, 7)):
                pairs = set(zip(comp, comp[1:] + comp[:1]))
                pairs |= {(a, b) for a in comp for b in comp if a != b and rng.random() < 0.5}
                edges += [(a, b, Fraction(rng.randint(1, 20), den)) for a, b in sorted(pairs)]
            rng.shuffle(edges)
            g = build_digraph(big + small, edges)
            assert g.n_components == 2
            dec = cycle_decomposition(g)
            assert all(
                type(lam) is Fraction and lam == forest_cycle_coefficient(g, c)
                for c, lam in dec.terms
            )
            m = laplacian_matrix(g) * tree_constants(g).values[np.newaxis, :]
            assert np.array_equal(cycle_reconstruction(g, dec), m)

    def test_float_coefficients_rounded_once_from_exact_values(self):
        # each coefficient is 1e200 * 1e200 * 1e-300, minor times labels:
        # a float product of the first two leaves float64, the exact one
        # rounds to 1e100
        edges = [("1", "2", 1e200), ("2", "1", 1e-300), ("2", "3", 1e-300), ("3", "2", 1e200)]
        dec = cycle_decomposition(build_digraph(["1", "2", "3"], edges))
        assert [(c.vertex_seq, lam) for c, lam in dec.terms] == [
            (("1", "2"), 1e100), (("2", "3"), 1e100)
        ]
        assert all(type(lam) is float for _, lam in dec.terms)

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
def exact_component_graphs(draw):
    """One to three strongly connected components of 1-4 vertices, each a
    ring plus chords, with labels p/q (p, q in 1..9) and arbitrary string
    vertex ids, declared in shuffled order."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ids = draw(st.lists(
        st.text(min_size=1, max_size=3), min_size=sum(sizes), max_size=sum(sizes), unique=True
    ))
    edges, base = [], 0
    for n in sizes:
        comp = ids[base : base + n]
        base += n
        ring = {(comp[i], comp[(i + 1) % n]) for i in range(n)} if n > 1 else set()
        chords = [(a, b) for a in comp for b in comp
                  if a != b and (a, b) not in ring and draw(st.booleans())]
        edges += [
            (a, b, Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))))
            for a, b in sorted(ring) + chords
        ]
    return build_digraph(draw(st.permutations(ids)), edges)


class TestCycleWalkAgainstReference:
    """The one walk that forms each coefficient as it closes a cycle gives
    the terms of the per-cycle second pass (`reference_cycle_decomposition`)
    exactly: the same cycles in the same order, equal Fractions, and float
    coefficients and refusals bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(exact_component_graphs(), st.sampled_from([40.0, 160.0]), st.data())
    def test_terms_identical(self, g, decades, data):
        got = cycle_decomposition(g).terms
        assert got == reference_cycle_decomposition(g).terms
        assert all(type(lam) is Fraction for _, lam in got)
        assert enumerate_cycles(g) == reference_enumerate_cycles(g)
        gf = build_digraph(g.vertex_ids, [
            (s, d, float(g.labels[(s, d)]) * 10.0 ** data.draw(st.floats(-decades, decades)))
            for s, d in g.edges
        ])
        assert_same_float_terms(gf)

    def test_complete_nine_refused_within_two_seconds(self):
        # the walk forms MAX_CYCLES coefficients before it meets one more
        ids = [str(i) for i in range(9)]
        g = build_digraph(ids, [
            (a, b, Fraction(1 + (int(a) + 2 * int(b)) % 5, 2)) for a in ids for b in ids if a != b
        ])
        t0 = time.perf_counter()
        with pytest.raises(DimensionTooLargeError, match=f"MAX_CYCLES={MAX_CYCLES}"):
            cycle_decomposition(g)
        assert time.perf_counter() - t0 < 2.0


def assert_same_float_terms(gf) -> None:
    """Float cycle terms bit-identical to the reference's, the exact terms of
    the labels' values each rounded once, or the same refusal."""
    try:
        want = reference_cycle_decomposition(gf).terms
    except FloatRangeError as err:
        with pytest.raises(FloatRangeError, match=f"^{re.escape(str(err))}$"):
            cycle_decomposition(gf)
        return
    got = cycle_decomposition(gf).terms
    assert [c for c, _ in got] == [c for c, _ in want]
    assert [lam.hex() for _, lam in got] == [lam.hex() for _, lam in want]


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
    """GTH state reduction is subtraction-free, so float tree constants and
    the cores built on them keep a small relative error entry by entry,
    whatever the label spread; float cycle coefficients are exact ones
    rounded once."""

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
        # stars: the one product -A[i, j] K_j, to the bit, formed as
        # 0.0 - A[i, j] K_j so that zeros are +0.0; chain and general trees:
        # within 1e-14 of the largest entry of the exact copy's core
        rng = random.Random(seed)
        ge = build_digraph(
            gf.vertex_ids, [(s, d, Fraction(gf.labels[(s, d)])) for (s, d) in gf.edges]
        )
        star = random_star_aux(rng, gf)
        a = laplacian_matrix(gf)
        k = tree_constants(gf).values
        rows = [gf.index[i] for i, _ in star.edges]
        expected = 0.0 - a[np.ix_(rows, rows)] * k[rows][np.newaxis, :]
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
    def test_intermediates_beyond_float_range(self, edges, monkeypatch):
        # each block trips a range check, so its constants are the exact
        # ones of its float rates, from fraction-free elimination on ints,
        # each rounded once
        fallbacks = []
        exactly = laplacian._exactly
        monkeypatch.setattr(laplacian, "_exactly", lambda w: fallbacks.append(w) or exactly(w))
        vs = sorted({v for e in edges for v in e[:2]})
        got = tree_constants(build_digraph(vs, edges)).values
        want = tree_constants(
            build_digraph(vs, [(s, d, Fraction(k)) for s, d, k in edges])
        ).values
        assert all(
            abs(Fraction(f) - e) <= Fraction(1e-15) * e for f, e in zip(got, want)
        )
        assert len(fallbacks) == 1 and got.tolist() == [float(e) for e in want]

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
        # refused where it enters: the graph is never built
        edges = [("0", "1", label), ("1", "2", 1.0), ("2", "0", 1.0)]
        with pytest.raises(FloatRangeError, match="label 0->1 is outside the float64 range"):
            build_digraph(["0", "1", "2"], edges)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(wide_spread_float_graphs())
    def test_residual_limit_is_dense_max(self, gf):
        # the float residual limit is FLOAT_RESIDUAL_RTOL max |A_k diag K|,
        # read off the diagonal.  One core entry moved by about that limit
        # gives a residual near it; then the smallest rtol whose limit
        # reaches the residual passes and the float below it fails, both as
        # the module default and as `tol`
        dec = core_matrix(gf, default_chain_aux(gf))
        m = laplacian_matrix(gf) * dec.tree_constants.values[np.newaxis, :]
        top = float(np.max(np.abs(m)))
        core = dec.core.copy()
        core[0, 0] += FLOAT_RESIDUAL_RTOL * top
        dec = dataclasses.replace(dec, core=core)
        report = verify_core_decomposition(dec)
        residual = report.residual
        assert residual > 0
        assert report.residual_ok == (residual <= FLOAT_RESIDUAL_RTOL * top)
        rtol = residual / top
        while rtol * top < residual:
            rtol = np.nextafter(rtol, np.inf)
        while np.nextafter(rtol, 0) * top >= residual:
            rtol = np.nextafter(rtol, 0)
        for limit, ok in ((float(rtol), True), (float(np.nextafter(rtol, 0)), False)):
            assert verify_core_decomposition(dec, tol=limit).residual_ok is ok
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(laplacian, "FLOAT_RESIDUAL_RTOL", limit)
                report = verify_core_decomposition(dec)
            assert report.residual_ok is ok and report.residual == residual


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
