"""Seeded input generators for the benchmark workloads.

Generators use ``random.Random`` and ``fractions.Fraction`` only and
return plain data (vertex ids, labelled edges, complexes), so crnlap
receives nothing but the generated inputs.  The same seed gives the same
inputs.  Fixed fault fixtures do not depend on the seed at all.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GraphSpec:
    """A labelled digraph: vertex ids in order, (source, target, label) edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    size_class: str  # "large" marks the workload's top size class
    label: str


@dataclass(frozen=True)
class NetworkSpec:
    """A mass-action network with a planted complex-balanced equilibrium."""

    species: tuple[str, ...]
    graph: GraphSpec
    complexes: dict  # vertex id -> exponent tuple over species
    x_star: tuple[Fraction, ...]

    def complex_matrix(self) -> list[list[int]]:
        """Species x vertices exponent matrix in vertex order."""
        return [
            [self.complexes[v][i] for v in self.graph.vertices]
            for i in range(len(self.species))
        ]


def rate(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _cycle_edges(vs: list[str], rng: random.Random) -> set[tuple[str, str]]:
    order = vs[:]
    rng.shuffle(order)
    return {(a, b) for a, b in zip(order, order[1:] + order[:1])}


def complete_component(vs: list[str]) -> set[tuple[str, str]]:
    return set(itertools.permutations(vs, 2))


def chorded_component(vs: list[str], rng: random.Random, p: float) -> set[tuple[str, str]]:
    """A random Hamiltonian cycle plus each other ordered pair with probability p."""
    edges = _cycle_edges(vs, rng)
    for a, b in itertools.permutations(vs, 2):
        if (a, b) not in edges and rng.random() < p:
            edges.add((a, b))
    return edges


def sparse_component(vs: list[str], rng: random.Random, chords: int) -> set[tuple[str, str]]:
    """A random Hamiltonian cycle plus `chords` distinct extra edges."""
    edges = _cycle_edges(vs, rng)
    while len(edges) < len(vs) + chords:
        a, b = rng.sample(vs, 2)
        edges.add((a, b))
    return edges


def assemble(rng, parts, size_class: str, label: str) -> GraphSpec:
    """Join components given as (size, builder) into one graph with fresh labels."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for size, build in parts:
        vs = [str(len(vertices) + i + 1) for i in range(size)]
        vertices += vs
        edges += sorted(build(vs))
    return GraphSpec(
        tuple(vertices), tuple((a, b, rate(rng)) for a, b in edges), size_class, label
    )


# -- dense-exact --------------------------------------------------------------

DENSE_SIZES = (3, 4, 5, 6)
DENSE_CHORD_P = 0.6
DENSE_TOP = 6


def dense_round(rng: random.Random) -> list[GraphSpec]:
    """One round: K_n and a chorded graph for n = 3..6 (two K_6), plus two
    2-component graphs.

    The top size class is the complete K_6 only, so its median is taken over
    graphs of one shape rather than straddling two cost clusters.
    """
    out = []
    for n in DENSE_SIZES:
        for _ in range(2 if n == DENSE_TOP else 1):
            cls = "large" if n == DENSE_TOP else "normal"
            out.append(assemble(rng, [(n, complete_component)], cls, f"K{n}"))
        out.append(
            assemble(
                rng,
                [(n, lambda vs: chorded_component(vs, rng, DENSE_CHORD_P))],
                "normal",
                f"R{n}",
            )
        )
    for a, b in ((3, 4), (4, 5)):
        out.append(
            assemble(
                rng,
                [(a, complete_component), (b, lambda vs: chorded_component(vs, rng, DENSE_CHORD_P))],
                "normal",
                f"K{a}+R{b}",
            )
        )
    return out


def _fixed_edges(text: str) -> tuple[tuple[str, str, Fraction], ...]:
    out = []
    for item in text.split():
        ends, k = item.split(":")
        a, b = ends.split(">")
        out.append((a, b, Fraction(k)))
    return tuple(out)


def star_sign_fixtures() -> list[GraphSpec]:
    """Fixed graphs whose float copies make the float star check of
    verify_core_decomposition reject a correct decomposition.

    Each is an 8-cycle through the star root 1 with chords among vertices
    3..8 only, so six vertices have no edge to or from the root: the star
    core has exact zeros and rows and columns whose dominance holds with
    equality, and float rounding pushes some of them past the exact tests.
    Both failed in float (and passed exactly) under every one of 122 string
    hash seeds tried, so the failure does not hinge on summation order.
    """
    return [
        GraphSpec(
            tuple("12345678"),
            _fixed_edges("1>2:4/5 2>3:29/10 3>4:5/2 4>3:1/5 4>5:11/5 5>3:5/2 5>6:8/5 "
                         "6>7:1 7>8:27/10 8>1:6/5 8>6:3/5 8>7:1/5"),
            "fault",
            "star-fixture-a",
        ),
        GraphSpec(
            tuple("12345678"),
            _fixed_edges("1>2:1/5 2>3:4/5 3>4:19/10 4>5:9/10 5>6:23/10 5>7:4/5 6>4:8/5 "
                         "6>7:11/5 7>6:7/10 7>8:13/5 8>1:23/10 8>6:7/5 8>7:1/5"),
            "fault",
            "star-fixture-b",
        ),
    ]


# -- sparse-exact -------------------------------------------------------------

SPARSE_SINGLE = (8, 10, 12, 14, 16, 16)
SPARSE_PAIRS = ((6, 8), (7, 9))
SPARSE_TOP = 16
SPARSE_CHORDS = 3


def sparse_round(rng: random.Random) -> list[GraphSpec]:
    """One round: directed cycles of 6..16 vertices with 3 chords each,
    single-component and two-component.  Top class: the two 16-cycles."""
    out = []
    for n in SPARSE_SINGLE:
        cls = "large" if n == SPARSE_TOP else "normal"
        out.append(
            assemble(rng, [(n, lambda vs: sparse_component(vs, rng, SPARSE_CHORDS))], cls, f"C{n}")
        )
    for a, b in SPARSE_PAIRS:
        out.append(
            assemble(
                rng,
                [(a, lambda vs: sparse_component(vs, rng, SPARSE_CHORDS)),
                 (b, lambda vs: sparse_component(vs, rng, SPARSE_CHORDS))],
                "normal",
                f"C{a}+C{b}",
            )
        )
    return out


# -- planted mass-action networks ---------------------------------------------


def _path(edges, src: str, dst: str) -> list[tuple[str, str]]:
    """Shortest path src -> dst by breadth-first search."""
    prev = {src: None}
    todo = deque([src])
    while todo:
        v = todo.popleft()
        for a, b in edges:
            if a == v and b not in prev:
                prev[b] = a
                todo.append(b)
    path, w = [], dst
    while prev[w] is not None:
        path.append((prev[w], w))
        w = prev[w]
    return path[::-1]


def plant(rng, species, vertices, edges, complexes, x_star) -> NetworkSpec:
    """Rates that make x_star complex balanced.

    A positive integer circulation (each edge closed into a cycle by the
    shortest path back, with a random weight) divided by the source
    monomial: k_e = c_e / x*^{y(source)} gives A_k x*^Y = 0 exactly.
    """
    circ = {e: 0 for e in edges}
    for s, d in edges:
        w = rng.randint(1, 4)
        for e in [(s, d)] + _path(edges, d, s):
            circ[e] += w
    labelled = []
    for s, d in edges:
        mono = Fraction(1)
        for xi, e in zip(x_star, complexes[s]):
            mono *= xi ** e
        labelled.append((s, d, Fraction(circ[(s, d)]) / mono))
    return NetworkSpec(
        tuple(species),
        GraphSpec(tuple(vertices), tuple(labelled), "normal", ""),
        dict(complexes),
        tuple(x_star),
    )


def distinct_complexes(rng, n_species: int, vertices, max_entry: int = 3) -> dict:
    seen: set[tuple[int, ...]] = set()
    out = {}
    for v in vertices:
        while True:
            col = tuple(rng.randint(0, max_entry) for _ in range(n_species))
            if col not in seen:
                break
        seen.add(col)
        out[v] = col
    return out


def planted_network(rng, n_complexes: int, n_classes: int, n_species: int,
                    label: str = "") -> NetworkSpec:
    """Weakly reversible network with `n_classes` linkage classes of >= 2
    complexes; each class is a random cycle plus size // 2 chords."""
    sizes = [n_complexes // n_classes] * n_classes
    for i in range(n_complexes % n_classes):
        sizes[i] += 1
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for size in sizes:
        vs = [str(len(vertices) + i + 1) for i in range(size)]
        vertices += vs
        chords = min(size // 2, size * (size - 2))
        edges += sorted(sparse_component(vs, rng, chords))
    species = [f"X{i + 1}" for i in range(n_species)]
    complexes = distinct_complexes(rng, n_species, vertices)
    x_star = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in species]
    spec = plant(rng, species, vertices, edges, complexes, x_star)
    top = "large" if n_complexes == DYNAMICS_COMPLEXES[-1] else "normal"
    return NetworkSpec(
        spec.species,
        GraphSpec(spec.graph.vertices, spec.graph.edges, top, label),
        spec.complexes,
        spec.x_star,
    )


DYNAMICS_COMPLEXES = (5, 6, 7, 8)
# (linkage classes, species) of the networks of each size
DYNAMICS_SHAPES = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4))


def dynamics_pool(rng: random.Random) -> list[NetworkSpec]:
    """Two networks of each fixed shape for each of 5..8 complexes (64 in
    all); the seed draws the chords, complexes, equilibrium and rates."""
    pool = []
    for n in DYNAMICS_COMPLEXES:
        for j, (classes, species) in enumerate(DYNAMICS_SHAPES):
            for copy in "ab":
                classes = min(classes, n // 2)
                pool.append(planted_network(rng, n, classes, species, label=f"N{n}.{j}{copy}"))
    return pool


def overflow_fixtures() -> list[tuple[NetworkSpec, tuple[float, ...]]]:
    """Fixed planted networks whose complexes have total degree about 300,
    with states at which x^Y overflows a float (x* = (1, 1), unit circulation)."""
    out = []
    for cx in (((300, 0), (0, 300), (150, 150)), ((290, 10), (5, 295), (150, 149))):
        vertices = ("1", "2", "3")
        complexes = dict(zip(vertices, cx))
        edges = (("1", "2", Fraction(1)), ("2", "3", Fraction(1)), ("3", "1", Fraction(1)))
        spec = NetworkSpec(
            ("X1", "X2"),
            GraphSpec(vertices, edges, "fault", "degree-300"),
            complexes,
            (Fraction(1), Fraction(1)),
        )
        for x in ((20.0, 10.0), (10.0, 20.0)):
            out.append((spec, x))
    return out


def perturbed_state(rng: random.Random, x_star, spread: float) -> list[float]:
    """x* scaled entrywise by exp(u), u uniform in [-spread, spread]."""
    return [float(v) * math.exp(rng.uniform(-spread, spread)) for v in x_star]


# -- documents -------------------------------------------------------------


def _num(v: Fraction):
    return int(v) if v.denominator == 1 else {"num": v.numerator, "den": v.denominator}


def network_document(spec: NetworkSpec) -> str:
    """A crnlap network document (JSON) for the spec."""
    obj = {
        "species": list(spec.species),
        "vertices": [
            {"id": v, "complex": {s: c for s, c in zip(spec.species, spec.complexes[v]) if c}}
            for v in spec.graph.vertices
        ],
        "edges": [{"from": a, "to": b, "k": _num(k)} for a, b, k in spec.graph.edges],
        "metadata": {"name": spec.graph.label},
    }
    return json.dumps(obj, indent=1, sort_keys=True)


def dense_network(rng: random.Random, n: int, label: str) -> NetworkSpec:
    """Complete K_n with two species and planted rates (so equilibria exist)."""
    vertices = [str(i + 1) for i in range(n)]
    edges = sorted(complete_component(vertices))
    complexes = distinct_complexes(rng, 2, vertices)
    x_star = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(2)]
    spec = plant(rng, ["X1", "X2"], vertices, edges, complexes, x_star)
    return NetworkSpec(
        spec.species,
        GraphSpec(spec.graph.vertices, spec.graph.edges, "large" if n == 6 else "normal", label),
        spec.complexes,
        spec.x_star,
    )
