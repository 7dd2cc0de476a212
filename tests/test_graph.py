import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnlap import (
    build_digraph,
    enumerate_cycles,
    make_aux_tree,
    validate_aux_tree,
)
from crnlap import exact
from crnlap.errors import (
    BadOrderError,
    DimensionTooLargeError,
    DuplicateVertexError,
    InvalidAuxTreeError,
    NonPositiveLabelError,
    SelfLoopError,
    UnknownEndpointError,
)
from crnlap.graph import AuxTree, edge_ends, general_aux_tree

from generators import (
    rand_fraction,
    random_general_aux,
    random_scc_digraph,
    random_star_aux,
    random_wr_network,
)
from oracles import aux_incidence, brute_cycles, brute_sccs, incidence_matrices, rank


class TestBuildDigraph:
    def test_running_example_single_scc(self, running_graph):
        assert list(running_graph.scc_partition) == [{"1", "2", "3"}]
        assert running_graph.n_edges == 4
        assert running_graph.exact

    def test_single_vertex_no_edges(self):
        g = build_digraph(["1"], [])
        assert list(g.scc_partition) == [{"1"}]

    def test_two_cycles_two_sccs(self):
        edges = [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 4, 1)]
        g = build_digraph([1, 2, 3, 4, 5], edges)
        expected = brute_sccs(g.vertex_ids, g.edges)
        assert list(g.scc_partition) == expected
        assert len(expected) == 2

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertexError):
            build_digraph(["1", "1"], [])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpointError):
            build_digraph(["1"], [("1", "2", 1)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_digraph(["1", "2"], [("1", "1", 1)])

    def test_non_positive_label(self):
        with pytest.raises(NonPositiveLabelError):
            build_digraph(["1", "2"], [("1", "2", 0)])
        with pytest.raises(NonPositiveLabelError):
            build_digraph(["1", "2"], [("1", "2", Fraction(-1, 2))])

    def test_float_labels_switch_mode(self):
        g = build_digraph(["1", "2"], [("1", "2", 0.5), ("2", "1", 1)])
        assert not g.exact


class TestSccPartition:
    def test_dag_gives_singletons(self):
        g = build_digraph([1, 2, 3], [(1, 2, 1), (2, 3, 1)])
        assert list(g.scc_partition) == [{"1"}, {"2"}, {"3"}]

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(20240701)
        for _ in range(60):
            n = rng.randint(1, 6)
            ids = [str(i) for i in range(1, n + 1)]
            edges = [
                (a, b, 1)
                for a in ids
                for b in ids
                if a != b and rng.random() < 0.3
            ]
            g = build_digraph(ids, edges)
            assert list(g.scc_partition) == brute_sccs(g.vertex_ids, g.edges)

    def test_partition_and_index_match_closure(self):
        # strongly connected components, the same with edges added between
        # them, and sparse random graphs, each with its ids declared in a
        # shuffled order, so that declaration order and canonical order
        # (by minimum id, "10" < "2") differ
        rng = random.Random(19)
        multi = not_wr = 0
        for trial in range(600):
            base = random_scc_digraph(rng, n_max=12)
            ids = list(base.vertex_ids)
            edges = list(base.edges)
            if trial % 3 == 1:
                edges += [(a, b) for a in ids for b in ids
                          if a != b and (a, b) not in base.labels and rng.random() < 0.1]
            elif trial % 3 == 2:
                edges = [(a, b) for a in ids for b in ids if a != b and rng.random() < 0.15]
            rng.shuffle(ids)
            g = build_digraph(ids, [(a, b, 1) for a, b in edges])
            want = brute_sccs(g.vertex_ids, g.edges)
            assert list(g.scc_partition) == want
            assert g.component_index == {v: ci for ci, comp in enumerate(want) for v in comp}
            multi += len(want) > 1
            not_wr += not g.has_strongly_connected_components()
        assert multi >= 300 and not_wr >= 200


class TestCycles:
    def test_running_example(self, running_graph):
        cycles = enumerate_cycles(running_graph)
        seqs = [c.vertex_seq for c in cycles]
        assert seqs == [("1", "2"), ("1", "2", "3")]

    def test_acyclic_graph(self):
        g = build_digraph([1, 2, 3], [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
        assert enumerate_cycles(g) == []

    def test_complete_symmetric_on_three(self):
        edges = [(a, b, 1) for a in "123" for b in "123" if a != b]
        g = build_digraph(["1", "2", "3"], edges)
        cycles = enumerate_cycles(g)
        assert len(cycles) == 5  # three 2-cycles, two 3-cycles
        assert {frozenset(c.edges) for c in cycles} == brute_cycles(g)

    def test_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_scc_digraph(rng, n_max=6)
            cycles = enumerate_cycles(g)
            assert {frozenset(c.edges) for c in cycles} == brute_cycles(g)
            assert len(cycles) == len(brute_cycles(g))  # no cycle listed twice

    def test_enumerated_in_vertex_seq_order(self):
        # the walk itself closes cycles in order: no sort follows it
        rng = random.Random(12)
        pool = ["10", "2", "a", "B", "x1", "07", "Z", "m", "1", "ab"]
        for _ in range(40):
            ids = rng.sample(pool, rng.randint(2, 7))
            pairs = {(a, b) for a in ids for b in ids if a != b and rng.random() < 0.6}
            g = build_digraph(ids, [(a, b, 1) for a, b in sorted(pairs)])
            cycles = enumerate_cycles(g)
            assert cycles == sorted(cycles, key=lambda c: c.vertex_seq)
            for c in cycles:
                assert c.vertex_seq[0] == min(c.vertex_seq)
                assert len(set(c.vertex_seq)) == len(c.vertex_seq)
                assert c.edges == tuple(zip(c.vertex_seq, c.vertex_seq[1:] + c.vertex_seq[:1]))

    def test_complete_nine_exceeds_max_cycles(self):
        ids = [str(i) for i in range(9)]
        g = build_digraph(ids, [(a, b, 1) for a in ids for b in ids if a != b])
        with pytest.raises(DimensionTooLargeError, match="MAX_CYCLES"):
            enumerate_cycles(g)


class TestIncidence:
    def test_single_edge(self):
        g = build_digraph([1, 2], [(1, 2, 1), (2, 1, 1)])
        inc, src = incidence_matrices(g)
        assert inc[:, 0].tolist() == [-1, 1]
        assert src[:, 0].tolist() == [1, 0]

    def test_empty_edge_set(self):
        g = build_digraph([1], [])
        inc, src = incidence_matrices(g)
        assert inc.shape == (1, 0) and src.shape == (1, 0)

    def test_running_example_columns_sum_zero(self, running_graph):
        inc, src = incidence_matrices(running_graph)
        assert inc.shape == (3, 4) and src.shape == (3, 4)
        assert all(sum(inc[:, j]) == 0 for j in range(4))
        assert all(sum(src[:, j]) == 1 for j in range(4))

    def test_aux_incidence_rank(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_scc_digraph(rng, n_max=6)
            aux = random_general_aux(rng, g)
            inc = aux_incidence(g, aux)
            assert rank(inc) == g.n_vertices - g.n_components
            assert exact.nullspace(inc).shape[1] == 0


class TestEdgeEnds:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["graph", "chain", "star", "general", "empty"]),
    )
    def test_gathers_equal_incidence_products(self, seed, kind):
        # Y[:, heads] - Y[:, tails] = Y I_E and v[heads] - v[tails] = I_E.T v:
        # equal Fractions on exact inputs, the same bits on float inputs
        rng = random.Random(seed)
        net = random_wr_network(rng, n_vertices_max=7)
        g = net.graph
        if kind == "graph":
            edges = g.edges
        elif kind == "chain":
            orders = [rng.sample(g.component_vertices(ci), len(g.scc_partition[ci]))
                      for ci in range(g.n_components)]
            edges = make_aux_tree(g, "chain", orders).edges
        elif kind == "star":
            edges = random_star_aux(rng, g).edges
        elif kind == "general":
            edges = random_general_aux(rng, g).edges
        else:
            edges = ()
        inc = aux_incidence(g, AuxTree(edges=tuple(edges), kind="general"))
        tails, heads = edge_ends(g, edges)
        assert tails.dtype == heads.dtype == np.intp

        y = net.complexes
        v = np.array([rand_fraction(rng) - rand_fraction(rng) for _ in range(g.n_vertices)],
                     dtype=object)
        for gathered, dense in ((y[:, heads] - y[:, tails], y @ inc),
                                (v[heads] - v[tails], inc.T @ v)):
            assert gathered.dtype == object and gathered.shape == dense.shape
            assert all(isinstance(e, Fraction) for e in gathered.flat)
            assert np.array_equal(gathered, dense)

        gen = np.random.default_rng(seed)
        yf = gen.standard_normal(y.shape) * 10.0 ** gen.uniform(-8, 8, y.shape)
        yf[gen.random(y.shape) < 0.3] = 0.0
        vf = gen.standard_normal(g.n_vertices) * 10.0 ** gen.uniform(-8, 8, g.n_vertices)
        vf[gen.random(g.n_vertices) < 0.3] = 0.0
        incf = inc.astype(float)
        for gathered, dense in ((yf[:, heads] - yf[:, tails], yf @ incf),
                                (vf[heads] - vf[tails], incf.T @ vf)):
            assert gathered.dtype == dense.dtype == np.float64
            assert gathered.shape == dense.shape
            assert gathered.tobytes() == dense.tobytes()


class TestAuxTrees:
    def test_chain_from_order(self, running_graph):
        aux = make_aux_tree(running_graph, "chain", [["1", "2", "3"]])
        assert aux.edges == (("1", "2"), ("2", "3"))
        assert aux.kind == "chain"

    def test_star_from_root(self, running_graph):
        aux = make_aux_tree(running_graph, "star", ["1"])
        assert set(aux.edges) == {("2", "1"), ("3", "1")}

    def test_single_vertex_component_contributes_nothing(self):
        g = build_digraph([1, 2, 3], [(1, 2, 1), (2, 1, 1)])
        aux = make_aux_tree(g, "chain", [["1", "2"], ["3"]])
        assert aux.edges == (("1", "2"),)

    def test_bad_order_rejected(self, running_graph):
        with pytest.raises(BadOrderError):
            make_aux_tree(running_graph, "chain", [["1", "2"]])
        with pytest.raises(BadOrderError):
            make_aux_tree(running_graph, "chain", [["1", "2", "2"]])
        for spec in ([[]], [["1", "2", "3"], []]):
            with pytest.raises(BadOrderError):
                make_aux_tree(running_graph, "chain", spec)

    def test_validate_ok_chain(self, running_graph):
        aux = make_aux_tree(running_graph, "chain", [["1", "2", "3"]])
        validate_aux_tree(running_graph, aux)

    def test_cycle_is_not_a_tree(self, running_graph):
        from crnlap.graph import AuxTree

        bad = AuxTree(
            edges=(("1", "2"), ("2", "3"), ("3", "1")),
            kind="general",
        )
        with pytest.raises(InvalidAuxTreeError, match="aux edges|cycle"):
            validate_aux_tree(running_graph, bad)

    def test_edges_outside_host_graph_allowed(self, running_graph):
        aux = general_aux_tree(running_graph, [("1", "3"), ("3", "2")])
        validate_aux_tree(running_graph, aux)

    def test_generated_trees_always_validate(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_scc_digraph(rng, n_max=6)
            for aux in (
                random_general_aux(rng, g),
                random_star_aux(rng, g),
            ):
                validate_aux_tree(g, aux)
