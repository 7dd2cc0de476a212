"""The benchmark's workloads: set-up, one round of operations, output checks.

A round is a fixed list of operations, so every run attempts whole rounds
and the share of failed operations is the same whatever the seed and the
run length.  Library calls go through the ``crnlap`` package attributes so
that the traced run's wrappers see them.  Every output is checked with
``reference`` (stdlib only) after its timing has been taken.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crnlap
import inputs
import reference as ref
from crnlap.errors import CrnlapError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"


@dataclass
class Op:
    kind: str  # "op" (the workload's operation), "side" or "fault"
    label: str
    size_class: str
    seconds: float
    failed: bool
    side: float | None  # seconds of the side operation, if the op has one
    start: float  # perf_counter at the start of the op
    probe_s: float  # local probe time bracketing the op


@dataclass
class Record:
    """Timings, failures and problems of one run's operations."""

    probe: object
    tracer: object = None
    ops: list[Op] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        self.tracer.run_id = len(self.ops)
        return self.tracer.span(name)

    def add(self, kind, label, size_class, t0, t1, failed=False, problems=(), side=None):
        """Record an op timed from perf_counter t0 to t1, then probe the host."""
        self.ops.append(
            Op(kind, label, size_class, t1 - t0, failed, side, t0, self.probe.bracket())
        )
        if problems and not failed:
            self.problems += [f"{label}: {p}" for p in problems]

    def note(self, key: str) -> None:
        self.notes[key] = self.notes.get(key, 0) + 1


def _spanning_tree(rng: random.Random, vertices: list[str]) -> list[tuple[str, str]]:
    """Random spanning tree of the vertex set with random edge orientations."""
    order = vertices[:]
    rng.shuffle(order)
    edges = []
    for i in range(1, len(order)):
        a, b = order[i], order[rng.randrange(i)]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    return edges


# -- dense-exact and sparse-exact -------------------------------------------


@dataclass
class Case:
    spec: inputs.GraphSpec
    graph: object
    float_graph: object
    roots: list[str]
    general: list[tuple[str, str]]
    labels: dict
    largest: int


class ExactWorkload:
    """Exact decomposition path for seeded digraphs.

    Operation: tree constants; chain, star and general cores with their
    verification; the cycle decomposition for components of <= 6 vertices.
    Side operation: a float copy of the same graph decomposed and verified
    with the star tree; its metric is taken on the top size class.
    """

    pool = 16  # distinct rounds of inputs; later rounds repeat them

    def __init__(self, name: str, make_round, fixtures):
        self.name = name
        self.make_round = make_round
        self.fixtures = fixtures

    def setup(self, seed: int, tiny: bool = False) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.rounds = []
        for _ in range(1 if tiny else self.pool):
            specs = self.make_round(rng)
            if tiny:
                specs = specs[:3]
            self.rounds.append([self._case(s, rng) for s in specs + self.fixtures()])

    @staticmethod
    def _case(spec: inputs.GraphSpec, rng: random.Random) -> Case:
        g = crnlap.build_digraph(spec.vertices, spec.edges)
        gf = crnlap.build_digraph(spec.vertices, [(a, b, float(k)) for a, b, k in spec.edges])
        comps = [g.component_vertices(ci) for ci in range(g.n_components)]
        general = [e for comp in comps for e in _spanning_tree(rng, comp)]
        return Case(
            spec, g, gf, [c[0] for c in comps], general,
            {(a, b): k for a, b, k in spec.edges}, max(map(len, comps)),
        )

    def run_round(self, r: int, rec: Record) -> None:
        for case in self.rounds[r % len(self.rounds)]:
            self._analyze(case, rec)

    def _analyze(self, case: Case, rec: Record) -> None:
        g, gf = case.graph, case.float_graph
        fixture = case.spec.size_class == "fault"
        with rec.span("op.analyze"):
            t0 = time.perf_counter()
            consts = crnlap.tree_constants(g)
            decs = []
            for aux in (
                crnlap.default_chain_aux(g),
                crnlap.make_aux_tree(g, "star", case.roots),
                crnlap.general_aux_tree(g, case.general),
            ):
                dec = crnlap.core_matrix(g, aux, consts=consts)
                decs.append((dec, crnlap.verify_core_decomposition(dec)))
            cycles = crnlap.cycle_decomposition(g) if case.largest <= 6 else None
            t1 = time.perf_counter()
        vs, labels = g.vertex_ids, case.labels
        problems = ref.check_tree_constants(vs, labels, list(consts.values))
        for dec, rep in decs:
            problems += ref.check_core(vs, labels, list(consts.values), dec.aux.edges,
                                       dec.aux.kind, dec.core.tolist())
            if not rep.passed:
                problems.append(f"exact {dec.aux.kind} decomposition reported as failing")
        if cycles is not None:
            problems += ref.check_cycles(vs, labels, list(consts.values),
                                         [(c.edges, k) for c, k in cycles.terms])
        rec.add("fault" if fixture else "op", case.spec.label, case.spec.size_class,
                t0, t1, False, problems)

        with rec.span("op.float"):
            t0 = time.perf_counter()
            fdec = crnlap.core_matrix(gf, crnlap.make_aux_tree(gf, "star", case.roots))
            frep = crnlap.verify_core_decomposition(fdec)
            t1 = time.perf_counter()
        star_dec, star_rep = decs[1]
        problems = ref.check_float_core(star_dec.core.tolist(), fdec.core.tolist(),
                                        list(consts.values), list(fdec.tree_constants.values))
        if not (frep.residual_ok and frep.invertible):
            problems.append("float copy fails its residual or invertibility check")
        mismatch = frep.passed != star_rep.passed
        if fixture:
            rec.add("fault", case.spec.label, "fault", t0, t1, mismatch, problems)
            return
        if mismatch:
            # The float star verdict depends on rounding at exact zeros and
            # ties, so on seeded graphs it fails for a seed-dependent share;
            # it is recorded here and counted as failed only on the fixtures.
            rec.note("float_star_verdict_mismatch")
        large = case.spec.size_class == "large"
        rec.add("side", case.spec.label, case.spec.size_class, t0, t1, False, problems,
                side=t1 - t0 if large else None)


# -- dynamics -------------------------------------------------------------------


@dataclass
class Planted:
    spec: inputs.NetworkSpec
    net: object
    ref: ref.NetworkRef
    x_star: list[float]


def _planted(spec: inputs.NetworkSpec) -> Planted:
    g = crnlap.build_digraph(spec.graph.vertices, spec.graph.edges)
    net = crnlap.build_network(spec.species, spec.complex_matrix(), g)
    net.tree_constants()
    return Planted(
        spec,
        net,
        ref.NetworkRef(spec.species, spec.graph.vertices,
                       {(a, b): k for a, b, k in spec.graph.edges}, spec.complexes),
        [float(v) for v in spec.x_star],
    )


class DynamicsWorkload:
    """Many float states on planted complex-balanced networks.

    Operation: one state x through decrease_certificate, bdi_membership of
    f(x) and of -f(x), and birch_intersect.  Side operation: a short
    simulate trajectory.  Fault operations: certificates on degree-300
    networks, where x^Y overflows.
    """

    name = "dynamics"
    t_end = 0.25

    def setup(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        pool = inputs.dynamics_pool(random.Random(f"dynamics:{seed}"))
        self.pool = [_planted(s) for s in (pool[::21] if tiny else pool)]
        self.faults = [(_planted(s), x) for s, x in inputs.overflow_fixtures()]

    def run_round(self, r: int, rec: Record) -> None:
        rng = random.Random(f"dynamics:{self.seed}:{r}")
        for p in self.pool:
            self._state(p, inputs.perturbed_state(rng, p.spec.x_star, 1.5), rec)
        for p in self.pool:
            self._trajectory(p, inputs.perturbed_state(rng, p.spec.x_star, 1.0), rec)
        for p, x in self.faults:
            self._fault(p, list(x), rec)

    def _state(self, p: Planted, x: list[float], rec: Record) -> None:
        net, xs = p.net, p.x_star
        with rec.span("op.state"):
            t0 = time.perf_counter()
            try:
                cert = crnlap.decrease_certificate(net, x, xs)
                f = np.asarray(crnlap.mass_action_rhs(net, x), dtype=float)
                member_f = crnlap.bdi_membership(net, xs, x, f)
                member_neg = crnlap.bdi_membership(net, xs, x, -f)
                x_hat = crnlap.birch_intersect(net, xs, x)
            except CrnlapError as e:
                rec.note(f"{type(e).__name__} at {p.spec.graph.label}")
                rec.add("op", p.spec.graph.label, p.spec.graph.size_class, t0, t0, True)
                return
            t1 = time.perf_counter()
        problems = ref.check_certificate(p.ref, x, xs, cert.value, cert.verdict)
        problems += ref.check_membership(member_f, member_neg)
        problems += ref.check_birch(p.ref, [float(v) for v in x_hat], x, xs)
        rec.add("op", p.spec.graph.label, p.spec.graph.size_class, t0, t1, False, problems)

    def _trajectory(self, p: Planted, x0: list[float], rec: Record) -> None:
        with rec.span("op.trajectory"):
            t0 = time.perf_counter()
            try:
                traj = crnlap.simulate(p.net, x0, self.t_end, x_star=p.x_star)
            except CrnlapError as e:
                rec.note(f"{type(e).__name__} at {p.spec.graph.label}")
                rec.add("side", p.spec.graph.label, "normal", t0, t0, True)
                return
            t1 = time.perf_counter()
        problems = ref.check_trajectory(p.ref, [list(map(float, s)) for s in traj.states], p.x_star)
        if traj.times[-1] < self.t_end * (1 - 1e-12):
            problems.append("trajectory stops before t_end")
        rec.add("side", p.spec.graph.label, "normal", t0, t1, False, problems, side=t1 - t0)

    def _fault(self, p: Planted, x: list[float], rec: Record) -> None:
        with rec.span("op.fault"):
            t0 = time.perf_counter()
            try:
                cert = crnlap.decrease_certificate(p.net, x, p.x_star)
                problems = ref.check_certificate(p.ref, x, p.x_star, cert.value, cert.verdict)
            except CrnlapError as e:
                problems = [f"{type(e).__name__}: {e}"]
            t1 = time.perf_counter()
        rec.add("fault", p.spec.graph.label, "fault", t0, t1, bool(problems))


# -- cli ----------------------------------------------------------------------


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliWorkload:
    """One fresh `python -m crnlap.cli` process at a time, closed loop.

    Operation: one subcommand on one document.  Side operation: `--version`
    (interpreter start-up and imports).  The top size class is the K6
    document.
    """

    name = "cli"
    versions_per_round = 10
    timeout_s = 120

    def setup(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        rng = random.Random(f"cli:{seed}")
        specs = [
            inputs.planted_network(rng, 5, 2, 2, label="P5"),
            inputs.planted_network(rng, 6, 1, 3, label="P6"),
            inputs.dense_network(rng, 5, "K5"),
            inputs.dense_network(rng, 6, "K6"),
        ]
        if tiny:
            specs = specs[:1]
        self.dir = RUNS_DIR / f"cli-docs-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.docs = []
        for spec in specs:
            path = self.dir / f"{spec.graph.label}.json"
            path.write_text(inputs.network_document(spec), encoding="utf-8")
            nref = ref.NetworkRef(spec.species, spec.graph.vertices,
                                  {(a, b): k for a, b, k in spec.graph.edges}, spec.complexes)
            self.docs.append((spec, path, nref))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def cleanup(self) -> None:
        for p in self.dir.glob("*"):
            p.unlink()
        self.dir.rmdir()

    def commands(self, r: int):
        """(label, size class, argv, checker) for one round."""
        rng = random.Random(f"cli:{self.seed}:{r}")
        out = [("version", "side", ["--version"], _check_version)] * self.versions_per_round
        for spec, path, nref in self.docs:
            doc, label = str(path), spec.graph.label
            cls = spec.graph.size_class
            vs = spec.graph.vertices
            out.append((label, cls, ["analyze", doc], _checker(_check_analyze, nref)))
            if label.startswith("P"):
                x = inputs.perturbed_state(rng, spec.x_star, 1.5)
                x0 = inputs.perturbed_state(rng, spec.x_star, 1.0)
                xs = [float(v) for v in spec.x_star]
                exact_xs = ",".join(str(v) for v in spec.x_star)
                out += [
                    (label, cls, ["decompose", doc, "--aux", _star_spec(spec)],
                     _checker(_check_decompose, nref)),
                    (label, cls, ["equilibria", doc, "--samples", "2", "--seed", str(r)],
                     _checker(_check_equilibria, nref)),
                    (label, cls, ["certify", doc, "--x", _fmt(x), "--x-star", exact_xs],
                     _checker(_check_certify, nref, x, xs)),
                    (label, cls, ["bdi-check", doc, "--x", _fmt(x), "--x-star", exact_xs],
                     _checker(_check_bdi, nref)),
                    (label, cls, ["simulate", doc, "--x0", _fmt(x0), "--t", "1",
                                  "--x-star", exact_xs],
                     _checker(_check_simulate, nref, xs)),
                ]
            else:
                out += [
                    (label, cls, ["decompose", doc, "--aux", "chain:" + ",".join(vs)],
                     _checker(_check_decompose, nref)),
                    (label, cls, ["equilibria", doc], _checker(_check_equilibria, nref)),
                ]
        return out

    def run_round(self, r: int, rec: Record) -> None:
        for label, cls, argv, check in self.commands(r):
            self._run(label, cls, argv, check, rec)

    def _run(self, label, cls, argv, check, rec: Record) -> None:
        traced = rec.tracer is not None
        if traced:
            spans_path = self.dir / "child-spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "crnlap.cli", *argv]
        with rec.span("op.cli"):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=self.timeout_s)
            t1 = time.perf_counter()
            if traced:
                child = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
                rec.tracer.merge(child["totals"], child["spans"], child["import_s"])
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        else:
            problems = check(proc.stdout)
        what = f"{label} {argv[0]}"
        if cls == "side":
            rec.add("side", what, "side", t0, t1, False, problems, side=t1 - t0)
        else:
            rec.add("op", what, cls, t0, t1, False, problems)


def _star_spec(spec: inputs.NetworkSpec) -> str:
    """star:root=<first vertex of each linkage class>."""
    comps = ref.components(list(spec.graph.vertices), [(a, b) for a, b, _ in spec.graph.edges])
    return "star:" + ";".join(f"root={c[0]}" for c in comps)


def _checker(fn, *args):
    def check(stdout: str) -> list[str]:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as e:
            return [f"stdout is not JSON: {e}"]
        return fn(report, *args)

    return check


def _check_version(stdout: str) -> list[str]:
    return [] if stdout.startswith("crnlap ") else [f"unexpected --version output {stdout!r}"]


def _check_decomposition(report, nref: ref.NetworkRef, consts) -> list[str]:
    aux = [tuple(e) for e in report["aux"]["edges"]]
    problems = ref.check_core(nref.vertex_ids, nref.labels, consts, aux,
                              report["aux"]["kind"], report["core"])
    if not report["checks"]["passed"]:
        problems.append("decomposition checks reported as failing")
    return problems


def _check_analyze(report, nref: ref.NetworkRef) -> list[str]:
    vs = nref.vertex_ids
    problems = []
    want = ref.edge_laplacian(vs, nref.labels)
    got = [[ref.frac(v) for v in row] for row in report["laplacian"]]
    if got != want:
        problems.append("analyze Laplacian differs from the edge-list Laplacian")
    for backend in ("enumeration", "minors"):
        values = [report["tree_constants"][backend][v] for v in vs]
        problems += ref.check_tree_constants(vs, nref.labels, values)
    consts = [report["tree_constants"]["enumeration"][v] for v in vs]
    return problems + _check_decomposition(report["decomposition"], nref, consts)


def _check_decompose(report, nref: ref.NetworkRef) -> list[str]:
    consts = [ref.kirchhoff_constants(nref.vertex_ids, nref.labels)[v] for v in nref.vertex_ids]
    return _check_decomposition(report, nref, consts)


def _check_equilibria(report, nref: ref.NetworkRef) -> list[str]:
    if report["status"] != "found":
        return [f"equilibria status {report['status']!r}"]
    problems = ref.check_cbe(nref, report["witness"])
    for x in report.get("manifold_samples", []):
        problems += ref.check_cbe(nref, x)
    return problems


def _check_certify(report, nref: ref.NetworkRef, x, xs) -> list[str]:
    return ref.check_certificate(nref, x, xs, report["value"], report["verdict"])


def _check_bdi(report, nref: ref.NetworkRef) -> list[str]:
    if report["on_manifold"]:
        return ["bdi-check places an off-manifold state on the manifold"]
    return [] if report["member"] is True else ["f(x) reported outside the differential inclusion"]


def _check_simulate(report, nref: ref.NetworkRef, xs) -> list[str]:
    traj = report["trajectory"]
    problems = ref.check_trajectory(nref, traj["states"], xs)
    if report["final_time"] < float(report["t_end"]) * (1 - 1e-12):
        problems.append("simulate stops before t_end")
    return problems


WORKLOADS = {
    "dense-exact": lambda: ExactWorkload("dense-exact", inputs.dense_round, inputs.star_sign_fixtures),
    "sparse-exact": lambda: ExactWorkload("sparse-exact", inputs.sparse_round, lambda: []),
    "dynamics": DynamicsWorkload,
    "cli": CliWorkload,
}

