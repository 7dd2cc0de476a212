import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnlap import (
    bdi_report,
    build_digraph,
    build_network,
    is_cbe,
    mass_action_rhs,
    monomial_order,
    polar_interior_contains,
    recession_polar_check,
    region_constraints,
    solve_cbe,
    stratum_contains,
)
from crnlap import exact, geometry
from crnlap.errors import FloatRangeError, InvalidAuxTreeError, PointNotInStratumError
from crnlap.geometry import evaluation_cone, evaluation_order
from crnlap.graph import AuxTree, LabeledDigraph, default_chain_aux, make_aux_tree

from conftest import PLANAR_Y
from generators import (
    random_general_aux,
    random_planted_network,
    random_positive_floats,
    random_positive_fractions,
    random_wr_network,
    rand_fraction,
    to_float_graph,
)
from oracles import (
    aux_incidence,
    column_space,
    bdi_member_by_orders,
    fraction_polar_report,
    fraction_simplex,
    gth_tree_constants,
    polar_interior_by_rays,
    rank,
    rays_by_facet_subsets,
    tie_chain_orders,
)


class TestMonomialOrder:
    def test_sorted_values(self, cycle3_net):
        aux = monomial_order(cycle3_net, [0.5, 0.5])
        assert aux.edges == (("1", "2"), ("2", "3"))
        assert aux.kind == "chain"

    def test_total_tie_breaks_by_id(self, cycle3_net):
        aux = monomial_order(cycle3_net, [1, 1])
        assert aux.edges == (("1", "2"), ("2", "3"))

    def test_per_component_orders(self, two_component_net):
        aux = monomial_order(two_component_net, [0.5, 0.5])
        comps = {
            tuple(e for e in aux.edges if two_component_net.graph.component_index[e[0]] == ci)
            for ci in range(2)
        }
        # never an edge between {1,2,3} and {4,5}
        for edges in comps:
            heads = {v for e in edges for v in e}
            assert heads <= {"1", "2", "3"} or heads <= {"4", "5"}

    def test_state_always_in_own_stratum(self):
        rng = random.Random(41)
        for _ in range(30):
            net = random_wr_network(rng)
            x = random_positive_floats(rng, net.n_species)
            aux = monomial_order(net, x)
            assert stratum_contains(net, aux, x)


class TestStratum:
    def test_contains_half_half(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        assert stratum_contains(cycle3_net, aux, [0.5, 0.5])

    def test_rejects_wrong_order(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        # values at (2, 1): (8, 1, 2) -- violates the first inequality
        assert not stratum_contains(cycle3_net, aux, [2.0, 1.0])

    def test_invalid_tree_refused(self, cycle3_net):
        bad = AuxTree(edges=(("1", "2"), ("2", "1")), kind="general")
        with pytest.raises(InvalidAuxTreeError, match="undirected cycle"):
            stratum_contains(cycle3_net, bad, [0.5, 0.5])
        with pytest.raises(InvalidAuxTreeError, match="undirected cycle"):
            region_constraints(cycle3_net, bad, "cone")

    def test_cbe_on_every_stratum_boundary(self, triangle_net):
        res = solve_cbe(triangle_net)
        x_star = list(res.witness)
        for perm in itertools.permutations(["1", "2", "3"]):
            aux = make_aux_tree(triangle_net.graph, "chain", [list(perm)])
            assert stratum_contains(triangle_net, aux, x_star)


class TestRegionConstraints:
    def test_planar_normals(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        desc = region_constraints(cycle3_net, aux, "cone")
        normals = np.asarray(desc.facet_normals, dtype=float)
        assert normals.T.tolist() == [[-2.0, 1.0], [1.0, -2.0]]
        assert np.all(np.asarray(desc.offset) == 0)

    def test_polyhedron_offset(self):
        rng = random.Random(42)
        from conftest import PLANAR_Y, running_example_graph

        ks = [rand_fraction(rng) for _ in range(4)]
        net = build_network(["X1", "X2"], PLANAR_Y, running_example_graph(*ks))
        aux = default_chain_aux(net.graph)
        desc = region_constraints(net, aux, "polyhedron")
        ln_k = np.log(net.tree_constants().as_float())
        inc = np.asarray(aux_incidence(net.graph, aux), dtype=float)
        assert np.allclose(desc.offset, inc.T @ ln_k)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", ["1e400", "1e-400"])
    def test_polyhedron_tree_constants_beyond_float_range_refused(self, k):
        # A <-> 2A: the exact tree constants are (1, k), and ln K needs floats
        g = build_digraph(["1", "2"], [("1", "2", Fraction(k)), ("2", "1", Fraction(1))])
        net, aux = build_network(["A"], [[1, 2]], g), default_chain_aux(g)
        assert region_constraints(net, aux, "cone").mode == "cone"  # needs no K
        with pytest.raises(FloatRangeError):
            region_constraints(net, aux, "polyhedron")

    def test_lineality_spans_sperp_exactly(self):
        rng = random.Random(43)
        for _ in range(20):
            net = random_wr_network(rng)
            aux = default_chain_aux(net.graph)
            desc = region_constraints(net, aux, "cone")
            sperp = net.sperp_basis
            kern = exact.nullspace(desc.facet_normals.T)
            assert sperp.shape[1] == kern.shape[1]
            if sperp.shape[1]:
                stacked = np.hstack([sperp, kern])
                assert rank(stacked) == sperp.shape[1]

    def test_log_equivalence(self):
        rng = random.Random(44)
        for _ in range(15):
            net, x_star = random_planted_network(rng)
            aux = default_chain_aux(net.graph)
            cone = region_constraints(net, aux, "cone")
            poly = region_constraints(net, aux, "polyhedron")
            normals = np.asarray(cone.facet_normals, dtype=float)
            xs = np.asarray([float(v) for v in x_star])
            for _ in range(10):
                x = np.asarray(random_positive_floats(rng, net.n_species))
                inside = stratum_contains(net, aux, list(x))
                ln_x = np.log(x)
                slack_p = normals.T @ ln_x - np.asarray(poly.offset)
                in_poly = bool(np.all(slack_p >= -1e-10 * max(1.0, np.max(np.abs(slack_p), initial=0.0))))
                slack_c = normals.T @ np.log(x / xs)
                in_cone = bool(np.all(slack_c >= -1e-10 * max(1.0, np.max(np.abs(slack_c), initial=0.0))))
                assert inside == in_poly == in_cone


class TestExactLogRatios:
    """A polyhedron's offsets are ln(K_b / K_a) on the aux edges, each exact
    ratio rounded once, K at the labels' exact values: the same route as
    `log_ratios`, on exact and float labels alike, so K itself may leave
    float64."""

    def test_offsets_are_logs_of_exact_ratios(self):
        rng = random.Random(46)
        for _ in range(30):
            net, _ = random_planted_network(rng)
            g = to_float_graph(net.graph)
            for n in (net, build_network(net.species, net.complexes.tolist(), g)):
                consts = gth_tree_constants(n.graph)  # Fractions at the labels' exact values
                chain = default_chain_aux(n.graph)
                for aux in (chain, random_general_aux(rng, n.graph)):
                    ratios = [consts[n.graph.index[b]] / consts[n.graph.index[a]] for a, b in aux.edges]
                    want = np.log(np.array([float(r) for r in ratios], dtype=float))
                    assert region_constraints(n, aux, "polyhedron").offset.tolist() == want.tolist()
                assert np.array_equal(region_constraints(n, chain, "polyhedron").offset, n.log_ratios)

    def test_float_tree_constants_beyond_float64(self):
        # every rate 1e200: K = 1e400 leaves float64, the ratios K_b / K_a = 1 do not
        g = build_digraph(["1", "2", "3"], [("1", "2", 1e200), ("2", "3", 1e200), ("3", "1", 1e200)])
        net = build_network(["X1", "X2"], PLANAR_Y, g)
        with pytest.raises(FloatRangeError):
            net.tree_constants()
        assert region_constraints(net, default_chain_aux(g), "polyhedron").offset.tolist() == [0.0, 0.0]

    def test_float_network_builds_no_graph_copy(self, monkeypatch):
        # K at float labels' exact values comes from their ints, with no
        # Fraction-labelled copy of the graph (0 -> X -> 2X -> 0: deficiency one)
        g = build_digraph(["0", "X", "2X"], [("0", "X", 1.0), ("X", "2X", 3.0), ("2X", "0", 1.5)])
        net = build_network(["X"], [[0, 1, 2]], g)
        built = []
        init = LabeledDigraph.__init__
        monkeypatch.setattr(LabeledDigraph, "__init__", lambda *a, **k: built.append(a) or init(*a, **k))
        assert net.deficiency == 1 and not net.cbe_exists and net.log_ratios.size == 2
        region_constraints(net, default_chain_aux(g), "polyhedron")
        assert built == []


def _is_trivial_cone(desc) -> bool:
    # C equals its lineality space iff 0 lies in the polar interior
    return polar_interior_contains(desc, np.zeros(desc.facet_normals.shape[0])).contains


class TestTrivialCone:
    def test_single_component_stratum_is_full(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        assert not _is_trivial_cone(region_constraints(cycle3_net, aux, "cone"))

    def test_two_component_joint_stratum_trivial(self, two_component_net):
        aux = make_aux_tree(
            two_component_net.graph, "chain", [["1", "2", "3"], ["4", "5"]]
        )
        desc = region_constraints(two_component_net, aux, "cone")
        assert _is_trivial_cone(desc)
        assert rays_by_facet_subsets(desc.facet_normals) == set()

    def test_isolated_vertices_trivial(self):
        g = build_digraph(["1", "2"], [])
        net = build_network(["A", "B"], [[1, 0], [0, 1]], g)
        aux = make_aux_tree(g, "chain", [["1"], ["2"]])
        desc = region_constraints(net, aux, "cone")
        assert _is_trivial_cone(desc)


class TestPolarInterior:
    def test_planar_f_inside(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        desc = region_constraints(cycle3_net, aux, "cone")
        report = polar_interior_contains(desc, [0.5, 0.125])
        assert report.contains
        # N = [[-2, 1], [1, -2]]: N lambda = -f at lambda = (3/8, 1/4); for
        # f / |f|_inf the smallest multiplier is 1/2
        assert report.multipliers == pytest.approx((0.375, 0.25))
        assert report.margin == pytest.approx(0.5)

    def test_zero_vector_not_interior(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        desc = region_constraints(cycle3_net, aux, "cone")
        assert not polar_interior_contains(desc, [0.0, 0.0]).contains

    def test_ray_itself_not_interior(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        desc = region_constraints(cycle3_net, aux, "cone")
        for ray in rays_by_facet_subsets(desc.facet_normals):
            assert not polar_interior_contains(desc, np.asarray(ray, dtype=float)).contains

    def test_cone_not_spanning_s_has_empty_interior(self):
        # X1 <-> 0 and X2 <-> 2 X2 with unit rates: at x = (1, 2) the first
        # component ties, so the cone keeps one normal (0, 1) while S = R^2;
        # the LP alone would accept any v with v2 < 0
        g = build_digraph(
            ["1", "2", "3", "4"],
            [("1", "2", 1), ("2", "1", 1), ("3", "4", 1), ("4", "3", 1)],
        )
        net = build_network(["X1", "X2"], [[1, 0, 0, 0], [0, 0, 1, 2]], g)
        desc = evaluation_cone(net, [1, 2])
        assert desc.edges == (("3", "4"),)
        report = polar_interior_contains(desc, [0.5, -1.0])
        assert report.margin > 0
        assert not report.contains
        assert not bdi_member_by_orders(net, [1, 2], [0.5, -1.0])


class TestRecessionCheck:
    def test_planar_positive_case(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        assert recession_polar_check(cycle3_net, aux, [0.5, 0.5])

    def test_equilibrium_fails_strictness(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        assert not recession_polar_check(cycle3_net, aux, [1.0, 1.0])

    def test_point_outside_stratum_rejected(self, cycle3_net):
        aux = default_chain_aux(cycle3_net.graph)
        with pytest.raises(PointNotInStratumError):
            recession_polar_check(cycle3_net, aux, [2.0, 1.0])

    def test_random_weakly_reversible_no_cbe_needed(self):
        rng = random.Random(47)
        checked = 0
        while checked < 25:
            net = random_wr_network(rng, n_species_max=3, n_vertices_max=5)
            x = random_positive_floats(rng, net.n_species)
            f = np.asarray(mass_action_rhs(net, x), dtype=float)
            if np.max(np.abs(f), initial=0.0) <= 1e-9:
                continue
            aux = monomial_order(net, x)
            assert recession_polar_check(net, aux, x)
            checked += 1


class TestCoverage:
    def test_every_sample_lands_in_an_enumerated_stratum(self):
        rng = random.Random(48)
        for _ in range(10):
            net = random_wr_network(rng, n_species_max=3, n_vertices_max=5)
            per_comp = [
                [list(p) for p in itertools.permutations(net.graph.component_vertices(ci))]
                for ci in range(net.graph.n_components)
            ]
            all_chains = [
                make_aux_tree(net.graph, "chain", list(combo))
                for combo in itertools.product(*per_comp)
            ]
            for _ in range(5):
                x = random_positive_floats(rng, net.n_species)
                assert any(stratum_contains(net, aux, x) for aux in all_chains)


class TestAdmissibleOrders:
    def test_generic_point_single_order(self, cycle3_net):
        assert evaluation_order(cycle3_net, [0.5, 0.5]) == [[["1"], ["2"], ["3"]]]
        assert len(tie_chain_orders(cycle3_net, [0.5, 0.5])) == 1

    def test_full_tie_enumerates_all(self, cycle3_net):
        assert evaluation_order(cycle3_net, [1.0, 1.0]) == [[["1", "2", "3"]]]
        assert len(tie_chain_orders(cycle3_net, [1.0, 1.0])) == 6  # all 3! orders

    def test_untied_cone_is_the_monomial_order_cone(self):
        rng = random.Random(49)
        for _ in range(20):
            net = random_wr_network(rng)
            x = random_positive_floats(rng, net.n_species)
            desc = evaluation_cone(net, x)
            chain = region_constraints(net, monomial_order(net, x), "cone")
            assert desc.edges == chain.edges
            assert np.array_equal(desc.facet_normals, chain.facet_normals)

    def test_tie_cone_joins_consecutive_groups(self, cycle3_net):
        # at (2, 1/2) the scaled monomials are 2, 1/4, 2: groups [2], [1, 3]
        assert evaluation_order(cycle3_net, [2, Fraction(1, 2)]) == [[["2"], ["1", "3"]]]
        desc = evaluation_cone(cycle3_net, [2, Fraction(1, 2)])
        assert desc.edges == (("2", "1"), ("2", "3"))


class TestDimensionGuard:
    def test_high_dimension_matches_oracle(self):
        # ray enumeration used to refuse above ambient dimension 10
        two = build_digraph(["1", "2"], [("1", "2", 1), ("2", "1", 1)])
        three = build_digraph(
            ["1", "2", "3"], [("1", "2", 1), ("2", "3", 2), ("3", "1", 1), ("2", "1", 1)]
        )
        nets = [
            # complexes 0 and the all-ones vector
            build_network([f"S{i}" for i in range(11)], [[0, 1]] * 11, two),
            build_network([f"S{i}" for i in range(14)], [[0, 1, i % 3] for i in range(14)], three),
        ]
        for net in nets:
            x = random_positive_floats(random.Random(net.n_species), net.n_species)
            f = np.asarray(mass_action_rhs(net, x), dtype=float)
            for aux in tie_chain_orders(net, x):
                desc = region_constraints(net, aux, "cone")
                for v in (f, -f):
                    got = polar_interior_contains(desc, v).contains
                    assert got == polar_interior_by_rays(desc, v)
            assert bdi_report(net, x, f).member
            assert not bdi_report(net, x, -f).member


def _tie_state(rng, net, x_star):
    """x = x* exp(z) with z orthogonal to y(i) - y(j) for two complexes of
    one component, so their scaled monomials tie."""
    z = np.asarray(random_positive_floats(rng, net.n_species)) - 1.0
    g = net.graph
    comps = [g.component_vertices(ci) for ci in range(g.n_components)]
    comps = [c for c in comps if len(c) > 1]
    if comps:
        i, j = rng.sample(rng.choice(comps), 2)
        yf = np.asarray(net.complexes, dtype=float)
        d = yf[:, g.index[i]] - yf[:, g.index[j]]
        z = z - d * (d @ z) / (d @ d)
    return list(np.asarray([float(v) for v in x_star]) * np.exp(z))


class TestFarkasAgainstRays:
    """The exact LP gives the ray oracle's verdict, and its multipliers are
    a certificate: f = -N lambda."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_lp_verdict_equals_ray_oracle(self, seed, tie):
        rng = random.Random(seed)
        net, x_star = random_planted_network(rng)
        if tie:
            x = _tie_state(rng, net, x_star)
        else:
            x = random_positive_floats(rng, net.n_species)
        if is_cbe(net, x).balanced:
            return
        f = np.asarray(mass_action_rhs(net, x), dtype=float)
        for aux in tie_chain_orders(net, x):
            desc = region_constraints(net, aux, "cone")
            normals = np.asarray(desc.facet_normals, dtype=float)
            rays = [np.asarray(r, dtype=float) for r in rays_by_facet_subsets(desc.facet_normals)]
            in_s = normals @ np.asarray([rng.uniform(-1, 1) for _ in range(normals.shape[1])])
            for v in [f, -f, np.zeros_like(f), in_s, f * 1e9, f * 1e-9] + rays:
                report = polar_interior_contains(desc, v)
                assert report.contains == polar_interior_by_rays(desc, v)
            report = polar_interior_contains(desc, f)
            if report.contains:
                lam = np.asarray(report.multipliers)
                assert np.all(lam > 0)
                assert np.max(np.abs(-normals @ lam - f)) <= 1e-9 * np.max(np.abs(f))


def _exact_tie_state(rng, net, x_star, tie):
    """x = x* t^w for an integer w orthogonal to y(i) - y(j) over a chosen
    set of complexes of one component (two of them, a random subset or all
    of it), so their scaled monomials tie exactly; None when only w = 0 is."""
    g = net.graph
    comps = [g.component_vertices(ci) for ci in range(g.n_components)]
    comps = [c for c in comps if len(c) > 1]
    if not comps:
        return None
    comp = rng.choice(comps)
    size = {"pair": 2, "group": rng.randint(2, len(comp)), "component": len(comp)}[tie]
    tied = rng.sample(comp, size)
    y = net.complexes
    cols = [g.index[v] for v in tied]
    diffs = exact.matrix(
        [[y[s, c] - y[s, cols[0]] for s in range(net.n_species)] for c in cols[1:]]
    )
    basis = exact.nullspace(diffs)
    if basis.shape[1] == 0:
        return None
    w = basis @ exact.vector([rng.choice([-2, -1, 1, 2]) for _ in range(basis.shape[1])])
    scale = math.lcm(*(v.denominator for v in w))
    t = Fraction(rng.choice([2, 3]), rng.choice([1, 2]))
    return [xs * t ** int(v * scale) for xs, v in zip(x_star, w)]


class TestOneConeAgainstOrders:
    """One polar check on the evaluation cone gives the verdict of the
    per-order loop over every tie-breaking chain order, with no cap."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["generic", "pair", "group", "component"]),
        st.booleans(),
    )
    def test_member_equals_per_order_oracle(self, seed, tie, as_float):
        rng = random.Random(seed)
        net, x_star = random_planted_network(rng, n_species_max=4, n_vertices_max=6)
        if tie == "generic":
            x = random_positive_fractions(rng, net.n_species)
        else:
            x = _exact_tie_state(rng, net, x_star, tie)
            if x is None:
                return
        if as_float:
            x = [float(v) for v in x]
        if is_cbe(net, x).balanced:
            return
        f = np.asarray(mass_action_rhs(net, x), dtype=float)
        s_basis = np.asarray(column_space(net.reactions), dtype=float)
        in_s = s_basis @ np.asarray([rng.uniform(-1, 1) for _ in range(s_basis.shape[1])])
        for v in (f, -f, np.zeros_like(f), in_s, f * 1e9, f * 1e-9):
            assert bdi_report(net, x, v).member == bdi_member_by_orders(net, x, v)


def _traced_polar_report(desc, f, trace: list):
    """`polar_interior_contains`, appending the (row, entering column) of
    each `exact.pivot` its simplex takes to `trace`."""
    simplex, pivot = geometry._simplex, exact.pivot

    def spy(rows, d, i, k):
        trace.append((i, k))
        return pivot(rows, d, i, k)

    def traced(*args):
        with mock.patch.object(exact, "pivot", spy):
            return simplex(*args)

    with mock.patch.object(geometry, "_simplex", traced):
        return polar_interior_contains(desc, f)


class TestIntTableauAgainstFractions:
    """The Farkas LP on ints over one common denominator takes the pivots
    of the Fraction tableau, so every report field is the same."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["generic", "pair", "group", "component"]),
        st.sampled_from(["integer", "thirds", "float"]),
    )
    def test_report_equals_fraction_oracle(self, seed, tie, y_kind):
        rng = random.Random(seed)
        net, x_star = random_planted_network(rng, n_species_max=4, n_vertices_max=7)
        if tie == "generic":
            x = random_positive_fractions(rng, net.n_species)
        else:
            x = _exact_tie_state(rng, net, x_star, tie)
            if x is None:
                return
        if y_kind != "integer":
            # Y / 3 at x^3 keeps every scaled monomial, ties included (up to
            # rounding: the monomials of a fractional Y are floats)
            y = [[Fraction(v, 3) for v in row] for row in net.complexes.tolist()]
            if y_kind == "float":
                y = [[float(v) for v in row] for row in y]
            net = build_network(net.species, y, net.graph)
            x = [v**3 for v in x]
        desc = evaluation_cone(net, x)
        f = np.asarray(mass_action_rhs(net, x), dtype=float)
        subnormal = f.copy()
        subnormal[rng.randrange(f.size)] = 5e-324
        for v in (f, -f, np.zeros_like(f), f * 1e9, f * 1e-9, f * 1e-300, subnormal):
            path, want_path = [], []
            report = _traced_polar_report(desc, v, path)
            assert report == fraction_polar_report(desc, v, want_path)
            assert path == want_path

    def test_artificial_basic_at_zero_leaves_by_negative_pivot(self):
        # phase 1 ends with the second artificial basic at zero, and the
        # first nonzero original entry of its row is -1/2: the drive-out
        # pivot flips the row's sign, then phase 2 takes one degenerate step.
        # The rows are ints over 1, so the tableau holds the oracle's values
        a = [[2, 1, 0], [1, 0, -2]]
        b = [8, 4]
        c = [-1, 0, -1]
        rows, dens = zip(*(exact.integer_row(row + [bi]) for row, bi in zip(a, b)))
        entries = []
        pivot = exact.pivot

        def spy(rows, d, i, k):
            entries.append(Fraction(rows[i][k], d))
            return pivot(rows, d, i, k)

        with mock.patch.object(exact, "pivot", spy):
            x = geometry._simplex(list(rows), list(dens), c)
        assert Fraction(-1, 2) in entries
        assert x == fraction_simplex(a, b, c) == [4, 0, 0]
