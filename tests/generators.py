"""Seeded random instances: digraphs, aux trees, networks, planted equilibria."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from crnlap import LabeledDigraph, ReactionNetwork, build_digraph, build_network
from crnlap.graph import general_aux_tree, make_aux_tree


def rand_fraction(rng: random.Random, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def random_component_sizes(rng: random.Random, n_total: int) -> list[int]:
    sizes = []
    left = n_total
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    return sizes


def random_scc_digraph(
    rng: random.Random, n_max: int = 6, extra_p: float = 0.35, hi: int = 9
) -> LabeledDigraph:
    """Digraph whose components are strongly connected, rational labels."""
    n_total = rng.randint(1, n_max)
    sizes = random_component_sizes(rng, n_total)
    vertices = [str(i + 1) for i in range(n_total)]
    edges = []
    base = 0
    for size in sizes:
        comp = vertices[base : base + size]
        base += size
        if size == 1:
            continue
        cyc = comp[:]
        rng.shuffle(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edges.append((a, b))
        for a, b in itertools.permutations(comp, 2):
            if (a, b) not in edges and rng.random() < extra_p:
                edges.append((a, b))
    return build_digraph(vertices, [(a, b, rand_fraction(rng, hi)) for a, b in edges])


def to_float_graph(g: LabeledDigraph) -> LabeledDigraph:
    return build_digraph(
        g.vertex_ids, [(s, d, float(g.labels[(s, d)])) for (s, d) in g.edges]
    )


def every_chain_aux(g: LabeledDigraph, full_enum_max: int = 4):
    """All chain trees, enumerating permutations only of small components."""
    per_component = []
    for ci in range(g.n_components):
        verts = g.component_vertices(ci)
        if len(verts) <= full_enum_max:
            per_component.append([list(p) for p in itertools.permutations(verts)])
        else:
            per_component.append([verts])
    for combo in itertools.product(*per_component):
        yield make_aux_tree(g, "chain", list(combo))


def random_general_aux(rng: random.Random, g: LabeledDigraph):
    """Random spanning tree per component with random edge orientations."""
    edges = []
    for ci in range(g.n_components):
        verts = g.component_vertices(ci)
        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        needed = len(verts) - 1
        while needed:
            a, b = rng.sample(verts, 2)
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            parent[ra] = rb
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
            needed -= 1
    return general_aux_tree(g, edges)


def random_star_aux(rng: random.Random, g: LabeledDigraph):
    roots = [rng.choice(g.component_vertices(ci)) for ci in range(g.n_components)]
    return make_aux_tree(g, "star", roots)


def random_integer_complexes(
    rng: random.Random, n_species: int, n_vertices: int, max_entry: int = 3
):
    # widen the entry range until distinct columns are even possible
    while (max_entry + 1) ** n_species < n_vertices:
        max_entry += 1
    cols: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(cols) < n_vertices:
        col = tuple(rng.randint(0, max_entry) for _ in range(n_species))
        if col not in seen:
            seen.add(col)
            cols.append(col)
    return [[cols[j][i] for j in range(n_vertices)] for i in range(n_species)]


def random_wr_network(
    rng: random.Random, n_species_max: int = 4, n_vertices_max: int = 6
) -> ReactionNetwork:
    g = random_scc_digraph(rng, n_max=n_vertices_max)
    n_species = rng.randint(1, n_species_max)
    y = random_integer_complexes(rng, n_species, g.n_vertices)
    return build_network([f"S{i}" for i in range(n_species)], y, g)


def random_positive_fractions(rng: random.Random, n: int, hi: int = 8):
    return [rand_fraction(rng, hi) for _ in range(n)]


def random_positive_floats(rng: random.Random, n: int, spread: float = 1.2):
    return [float(np.exp(rng.uniform(-spread, spread))) for _ in range(n)]


def _shortest_path(g: LabeledDigraph, src: str, dst: str) -> list[tuple[str, str]]:
    """BFS path src -> dst as an edge list (within src's component)."""
    if src == dst:
        return []
    prev = {src: None}
    queue = [src]
    while queue:
        v = queue.pop(0)
        for (a, b) in g.edges:
            if a == v and b not in prev:
                prev[b] = v
                if b == dst:
                    path = []
                    w = dst
                    while prev[w] is not None:
                        path.append((prev[w], w))
                        w = prev[w]
                    return list(reversed(path))
                queue.append(b)
    raise AssertionError(f"no path {src} -> {dst} in a strongly connected component")


def plant_cbe(rng: random.Random, net: ReactionNetwork):
    """Replace labels so a chosen positive rational state is complex balanced.

    Builds a positive integer circulation (one cycle through every edge) and
    sets k_e = circulation_e / x*^{y(source(e))}; then A_k (x*)^Y = 0 exactly.
    """
    from crnlap.crn import evaluate

    g = net.graph
    x_star = random_positive_fractions(rng, net.n_species, hi=4)
    psi = evaluate(net, x_star).monomials
    circulation = {e: 0 for e in g.edges}
    for (s, d) in g.edges:
        circulation[(s, d)] += 1
        for e in _shortest_path(g, d, s):
            circulation[e] += 1
    new_edges = [
        (s, d, Fraction(circulation[(s, d)]) / Fraction(psi[g.index[s]]))
        for (s, d) in g.edges
    ]
    g2 = build_digraph(g.vertex_ids, new_edges)
    net2 = build_network(net.species, net.complexes.tolist(), g2)
    return net2, x_star


def random_planted_network(rng: random.Random, n_species_max: int = 3, n_vertices_max: int = 5):
    net = random_wr_network(rng, n_species_max, n_vertices_max)
    return plant_cbe(rng, net)
