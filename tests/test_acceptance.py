"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The random corpora are seeded, so every run exercises the same
instances.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from crnlap import (
    bdi_membership,
    binomial_rhs,
    birch_intersect,
    build_digraph,
    build_network,
    core_matrix,
    cycle_decomposition,
    decrease_certificate,
    is_cbe,
    lyapunov_derivative,
    mass_action_rhs,
    monomial_order,
    recession_polar_check,
    simulate,
    solve_cbe,
    tree_constants,
    verify_core_decomposition,
)
from crnlap.cli import run_command
from crnlap.geometry import evaluation_order
from crnlap.graph import default_chain_aux
from crnlap.laplacian import laplacian_matrix

from conftest import SAMPLE_DIR, running_example_graph
from generators import (
    every_chain_aux,
    rand_fraction,
    random_general_aux,
    random_planted_network,
    random_positive_floats,
    random_positive_fractions,
    random_scc_digraph,
    random_star_aux,
    random_wr_network,
    to_float_graph,
)
from oracles import (
    column_space,
    cycle_reconstruction,
    edge_sum_rhs,
    forest_cycle_coefficient,
    kirchhoff_minors,
    tree_cut_core,
)

CORPUS_SIZE = 500


def _conclude(name: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} {detail}")
    assert not failures, f"{name}: {failures[:5]} (+{max(0, len(failures) - 5)} more)"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(987654321)
    return [random_scc_digraph(rng, n_max=6, hi=9) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def corpus_constants(corpus):
    return [tree_constants(g) for g in corpus]


def _same_exact_core(core, expected) -> bool:
    return np.array_equal(core, expected) and all(
        isinstance(v, Fraction) for v in core.flat
    )


def test_criterion_1_exact_decomposition_suite(corpus, corpus_constants):
    t0 = time.perf_counter()
    rng = random.Random(1)
    failures = []
    for gi, (g, consts) in enumerate(zip(corpus, corpus_constants)):
        auxes = list(every_chain_aux(g, full_enum_max=4))
        auxes += [random_general_aux(rng, g) for _ in range(5)]
        for aux in auxes:
            dec = core_matrix(g, aux, consts=consts)
            if not _same_exact_core(dec.core, tree_cut_core(g, aux, consts)):
                failures.append((gi, aux.kind, "oracle"))
            report = verify_core_decomposition(dec)
            if report.residual != 0.0:
                failures.append((gi, aux.kind, "residual"))
                continue
            if not report.invertible:
                failures.append((gi, aux.kind, "invertible"))
            if aux.kind == "chain" and report.chain_signs_ok is not True:
                failures.append((gi, "chain", "signs"))
        star = random_star_aux(rng, g)
        dec = core_matrix(g, star, consts=consts)
        if not _same_exact_core(dec.core, tree_cut_core(g, star, consts)):
            failures.append((gi, "star", "oracle"))
        report = verify_core_decomposition(dec)
        if report.residual != 0.0 or not report.invertible:
            failures.append((gi, "star", "identity"))
        a = laplacian_matrix(g)
        for r, (i, _) in enumerate(star.edges):
            for c, (j, _) in enumerate(star.edges):
                if g.component_index[i] != g.component_index[j]:
                    continue
                expected = -(a[g.index[i], g.index[j]] * consts.values[g.index[j]])
                if dec.core[r, c] != expected:
                    failures.append((gi, "star", "minor-formula"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _conclude(
        "1 exact decomposition suite",
        failures,
        f"({CORPUS_SIZE} graphs, {elapsed:.1f}s)",
    )


def test_criterion_2_tree_constant_backends(corpus, corpus_constants):
    failures = []
    for gi, (g, consts) in enumerate(zip(corpus, corpus_constants)):
        if consts.values.tolist() != kirchhoff_minors(g).tolist():
            failures.append((gi, "minors-mismatch"))
        if not all(isinstance(v, Fraction) for v in consts.values):
            failures.append((gi, "not-exact"))
        a = laplacian_matrix(g)
        if any(v != 0 for v in a @ consts.values):
            failures.append((gi, "kernel"))
    rng = random.Random(2)
    for _ in range(20):
        k12, k21, k23, k31 = (rand_fraction(rng) for _ in range(4))
        g = running_example_graph(k12, k21, k23, k31)
        expected = [k23 * k31 + k21 * k31, k31 * k12, k12 * k23]
        if tree_constants(g).values.tolist() != expected:
            failures.append(("closed-form",))
    _conclude("2 tree-constant oracle equivalence", failures)


def test_criterion_3_cycle_decomposition(corpus, corpus_constants):
    failures = []
    for gi, (g, consts) in enumerate(zip(corpus, corpus_constants)):
        dec = cycle_decomposition(g)
        if any(lam <= 0 for _, lam in dec.terms):
            failures.append((gi, "nonpositive-coefficient"))
        if any(lam != forest_cycle_coefficient(g, c) for c, lam in dec.terms):
            failures.append((gi, "forest-oracle"))
        m = laplacian_matrix(g) * consts.values[np.newaxis, :]
        if not np.array_equal(cycle_reconstruction(g, dec), m):
            failures.append((gi, "reconstruction"))
    rng = random.Random(3)
    for _ in range(5):
        k12, k21, k23, k31 = (rand_fraction(rng) for _ in range(4))
        g = running_example_graph(k12, k21, k23, k31)
        by_seq = {c.vertex_seq: lam for c, lam in cycle_decomposition(g).terms}
        if by_seq != {
            ("1", "2"): k12 * k21 * k31,
            ("1", "2", "3"): k12 * k23 * k31,
        }:
            failures.append(("running-example", "terms"))
    _conclude("3 cycle decomposition", failures)


def _field_scale(net_f, xf, rhs_f) -> float:
    """Natural magnitude of the vector-field sum: the result can cancel to
    zero (equilibria), so relative tolerances are taken against the largest
    per-reaction contribution |k x^{y(src)}| * span(y)."""
    from crnlap.crn import evaluate

    g = net_f.graph
    mono = np.asarray(evaluate(net_f, xf).monomials, dtype=float)
    yf = np.asarray(net_f.complexes, dtype=float)
    flow = max(
        (float(g.labels[e]) * mono[g.index[e[0]]] for e in g.edges), default=0.0
    )
    span = max(
        (
            float(np.max(np.abs(yf[:, g.index[d]] - yf[:, g.index[s]])))
            for (s, d) in g.edges
        ),
        default=0.0,
    )
    return max(float(np.max(np.abs(rhs_f))), flow * span, 1e-300)


def test_criterion_4_binomial_form_equivalence():
    rng = random.Random(4)
    failures = []
    for ni in range(100):
        net = random_wr_network(rng, n_species_max=4, n_vertices_max=6)
        gf = to_float_graph(net.graph)
        net_f = build_network(net.species, net.complexes.tolist(), gf)
        aux = default_chain_aux(net.graph)
        for si in range(20):
            x = random_positive_fractions(rng, net.n_species)
            value, _ = binomial_rhs(net, aux, x)
            rhs = mass_action_rhs(net, x)
            oracle = edge_sum_rhs(net, x, exact_mode=True)
            if not (
                np.array_equal(value, rhs) and np.array_equal(rhs, oracle)
            ):
                failures.append((ni, si, "exact"))
            xf = [float(v) for v in x]
            value_f, _ = binomial_rhs(net_f, aux, xf)
            rhs_f = np.asarray(mass_action_rhs(net_f, xf), dtype=float)
            oracle_f = edge_sum_rhs(net_f, xf, exact_mode=False)
            scale = _field_scale(net_f, xf, rhs_f)
            if (
                np.max(np.abs(value_f - rhs_f)) > 1e-12 * scale
                or np.max(np.abs(rhs_f - oracle_f)) > 1e-12 * scale
            ):
                failures.append((ni, si, "float"))
    _conclude("4 binomial-form equivalence", failures, "(100 networks x 20 states)")


def test_criterion_5_cbe_machinery():
    rng = random.Random(5)
    failures = []
    for ni in range(100):
        net, x_star = random_planted_network(rng)
        res = solve_cbe(net)
        if res.status != "found":
            failures.append((ni, "status"))
            continue
        check = is_cbe(net, list(res.witness))
        if check.residual > 1e-10 * max(check.scale, 1e-300):
            failures.append((ni, "balance-residual"))
        xs = [float(v) for v in x_star]
        xp = random_positive_floats(rng, net.n_species)
        got = birch_intersect(net, xs, xp)
        s_basis, sperp = column_space(net.reactions), net.sperp_basis
        w = np.asarray(sperp, dtype=float)
        z = np.log(got / np.asarray(xs))
        if s_basis.shape[1]:
            sf = np.asarray(s_basis, dtype=float)
            proj = sf @ np.linalg.lstsq(sf, z, rcond=None)[0]
            if np.max(np.abs(proj), initial=0.0) > 1e-10 * max(
                1.0, float(np.max(np.abs(z)))
            ):
                failures.append((ni, "manifold-residual"))
        if w.shape[1]:
            diff = got - np.asarray(xp, dtype=float)
            if np.max(np.abs(w.T @ diff)) > 1e-10 * max(
                1.0, float(np.max(np.abs(diff)))
            ):
                failures.append((ni, "class-residual"))
            second = birch_intersect(net, xs, xp, c0=np.full(w.shape[1], 0.5))
            if np.max(np.abs(got - second)) > 1e-9 * max(
                1.0, float(np.max(np.abs(got)))
            ):
                failures.append((ni, "uniqueness"))
    _conclude("5 CBE machinery", failures, "(100 planted networks)")


def test_criterion_6_stability_certificates():
    rng = random.Random(6)
    failures = []
    for ni in range(200):
        net, x_star = random_planted_network(rng)
        xs = [float(v) for v in x_star]
        for si in range(20):
            x = random_positive_floats(rng, net.n_species)
            cert = decrease_certificate(net, x, xs)
            if cert.verdict == "failure":
                failures.append((ni, si, "verdict"))
                continue
            expected = lyapunov_derivative(net, x, xs)
            tol = 1e-10 * max(abs(expected), 1.0)
            if abs(cert.value - expected) > tol:
                failures.append((ni, si, "value-mismatch"))
            if cert.verdict == "strict_decrease" and not cert.value < 0:
                failures.append((ni, si, "sign"))
    _conclude("6 stability certificates", failures, "(200 networks x 20 states)")


def _complete_component_net(rng, n_vertices=3):
    """Complete symmetric component with unit rates: complex balanced at 1,
    and the chain cores are entrywise positive, so boundary states stay
    strictly inside the polar cones."""
    ids = [str(i + 1) for i in range(n_vertices)]
    edges = [(a, b, Fraction(1)) for a in ids for b in ids if a != b]
    g = build_digraph(ids, edges)
    n_species = 2
    from generators import random_integer_complexes

    y = random_integer_complexes(rng, n_species, n_vertices)
    return build_network([f"S{i}" for i in range(n_species)], y, g)


def test_criterion_7_bdi_embedding():
    rng = random.Random(7)
    failures = []
    # 200 random complex-balanced triples
    tested = 0
    while tested < 200:
        net, x_star = random_planted_network(rng)
        xs = [float(v) for v in x_star]
        for _ in range(4):
            x = random_positive_floats(rng, net.n_species)
            if is_cbe(net, x).balanced:
                continue
            f = mass_action_rhs(net, x)
            if not bdi_membership(net, xs, x, f):
                failures.append(("interior", tested))
            tested += 1
            if tested >= 200:
                break
    # boundary-of-stratum states on complete components
    boundary_done = 0
    guard = 0
    while boundary_done < 20 and guard < 400:
        guard += 1
        net = _complete_component_net(rng)
        if not is_cbe(net, [1.0, 1.0]).balanced:
            continue
        yf = np.asarray(net.complexes, dtype=float)
        i, j = rng.sample(range(net.graph.n_vertices), 2)
        d = yf[:, i] - yf[:, j]
        if np.allclose(d, 0):
            continue
        z = np.asarray(random_positive_floats(rng, net.n_species)) - 1.0
        z = z - d * (d @ z) / (d @ d)  # exact tie between monomials i and j
        x = list(np.exp(z))
        if is_cbe(net, x).balanced:
            continue
        if all(len(grp) == 1 for groups in evaluation_order(net, x) for grp in groups):
            continue
        f = mass_action_rhs(net, x)
        if not bdi_membership(net, [1.0, 1.0], x, f):
            failures.append(("boundary", boundary_done))
        boundary_done += 1
    if boundary_done < 20:
        failures.append(("boundary-states-constructed", boundary_done))
    # recession-cone checks without any planted equilibrium
    recession_done = 0
    while recession_done < 50:
        net = random_wr_network(rng, n_species_max=3, n_vertices_max=5)
        x = random_positive_floats(rng, net.n_species)
        f = np.asarray(mass_action_rhs(net, x), dtype=float)
        if np.max(np.abs(f), initial=0.0) <= 1e-9:
            continue
        aux = monomial_order(net, x)
        if not recession_polar_check(net, aux, x):
            failures.append(("recession", recession_done))
        recession_done += 1
    _conclude(
        "7 BDI embedding",
        failures,
        f"(200 interior + {boundary_done} boundary + {recession_done} recession)",
    )


def test_criterion_8_dynamics(cycle3_net, xy_net):
    failures = []
    t0 = time.perf_counter()
    traj = simulate(cycle3_net, [0.5, 0.5], 50.0)
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    if np.max(np.abs(traj.states[-1] - 1.0)) > 1e-6:
        failures.append(("endpoint", traj.states[-1]))
    L = traj.lyapunov
    if L is None or any(L[i + 1] > L[i] + 1e-9 for i in range(len(L) - 1)):
        failures.append(("lyapunov-monotonicity",))
    # conservation on a network with dim S < n
    for net, x0 in ((xy_net, [0.3, 1.1]),):
        sperp = net.sperp_basis
        w = np.asarray(sperp, dtype=float)
        traj2 = simulate(net, x0, 30.0)
        c0 = w.T @ traj2.states[0]
        worst = max(
            float(np.max(np.abs(w.T @ s - c0), initial=0.0)) for s in traj2.states
        )
        if worst > 1e-7:
            failures.append(("conservation", worst))
    _conclude("8 dynamics", failures, f"(trajectory {elapsed:.2f}s)")


def test_criterion_9_cli_determinism(capsys):
    failures = []
    runs = [
        ["analyze", str(SAMPLE_DIR / "triangle.json")],
        ["analyze", str(SAMPLE_DIR / "two_component.json")],
        ["certify", str(SAMPLE_DIR / "cycle3.json"), "--x", "0.5,0.5"],
        ["equilibria", str(SAMPLE_DIR / "cycle3.json"), "--samples", "3", "--seed", "11"],
    ]
    for argv in runs:
        code1 = run_command(argv)
        out1 = capsys.readouterr().out
        code2 = run_command(argv)
        out2 = capsys.readouterr().out
        if code1 != code2 or out1 != out2:
            failures.append((argv[0], "non-deterministic"))
        if code1 != 0:
            failures.append((argv[0], f"exit={code1}"))
        json.loads(out1)  # reports must be valid JSON
    _conclude("9 CLI determinism", failures)
