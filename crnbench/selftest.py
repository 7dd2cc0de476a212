"""Self-test of the benchmark (``python3 crnbench/run.py --self-test``).

1. Each reference check accepts a correct output and rejects the same
   output with one entry corrupted: a core entry, a tree constant, a star
   core entry, a cycle coefficient, a certificate sign and verdict, a
   membership flag, a Birch point and a trajectory.
2. Every workload runs one round at a tiny size with all checks on, once
   untraced and once traced; only the fixed fault fixtures may fail.
3. BENCHMARK.json names exactly the workloads and metrics the code reports.
"""

from __future__ import annotations

import json
import random

import crnlap
import numpy as np

import inputs
import layertrace
import reference as ref
from probe import Probe
from workloads import ROOT, WORKLOADS, Record

EXPECTED_FAILED = {"dense-exact": 2, "sparse-exact": 0, "dynamics": 4, "cli": 0}


class Results:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, what: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)

    def accepts(self, what: str, problems: list[str]) -> None:
        self.expect(f"accepts {what}", not problems)
        for p in problems:
            print(f"       {p}")

    def rejects(self, what: str, problems: list[str]) -> None:
        self.expect(f"rejects {what}", bool(problems))


def corrupted_outputs(res: Results) -> None:
    rng = random.Random("self-test")
    spec = inputs.assemble(rng, [(4, inputs.complete_component)], "normal", "K4")
    g = crnlap.build_digraph(spec.vertices, spec.edges)
    vs, labels = g.vertex_ids, {(a, b): k for a, b, k in spec.edges}
    consts = crnlap.tree_constants(g)
    k = list(consts.values)
    res.accepts("tree constants", ref.check_tree_constants(vs, labels, k))
    bad = k[:]
    bad[0] += 1
    res.rejects("a corrupted tree constant", ref.check_tree_constants(vs, labels, bad))

    for aux in (crnlap.default_chain_aux(g), crnlap.make_aux_tree(g, "star", ["1"])):
        core = crnlap.core_matrix(g, aux, consts=consts).core.tolist()
        res.accepts(f"a {aux.kind} core", ref.check_core(vs, labels, k, aux.edges, aux.kind, core))
        core[1][0] += 1
        res.rejects(f"a corrupted {aux.kind} core entry",
                    ref.check_core(vs, labels, k, aux.edges, aux.kind, core))
    star = crnlap.make_aux_tree(g, "star", ["1"])
    core = crnlap.core_matrix(g, star, consts=consts).core.tolist()
    core[0][0], core[1][1] = core[1][1], core[0][0]  # breaks only the closed form
    res.rejects("a star core off its closed form", ref.check_core(vs, labels, k, star.edges, "star", core))

    terms = [(c.edges, w) for c, w in crnlap.cycle_decomposition(g).terms]
    res.accepts("a cycle decomposition", ref.check_cycles(vs, labels, k, terms))
    terms[0] = (terms[0][0], terms[0][1] + 1)
    res.rejects("a corrupted cycle coefficient", ref.check_cycles(vs, labels, k, terms))

    spec = inputs.planted_network(rng, 5, 2, 2)
    g = crnlap.build_digraph(spec.graph.vertices, spec.graph.edges)
    net = crnlap.build_network(spec.species, spec.complex_matrix(), g)
    nref = ref.NetworkRef(spec.species, spec.graph.vertices,
                          {(a, b): w for a, b, w in spec.graph.edges}, spec.complexes)
    xs = [float(v) for v in spec.x_star]
    x = inputs.perturbed_state(rng, spec.x_star, 1.5)
    cert = crnlap.decrease_certificate(net, x, xs)
    res.accepts("a certificate", ref.check_certificate(nref, x, xs, cert.value, cert.verdict))
    res.rejects("a certificate with its sign flipped",
                ref.check_certificate(nref, x, xs, -cert.value, cert.verdict))
    res.rejects("a certificate with a wrong verdict",
                ref.check_certificate(nref, x, xs, cert.value, "equilibrium"))

    f = np.asarray(crnlap.mass_action_rhs(net, x), dtype=float)
    m_f = crnlap.bdi_membership(net, xs, x, f)
    m_neg = crnlap.bdi_membership(net, xs, x, -f)
    res.accepts("membership flags", ref.check_membership(m_f, m_neg))
    res.rejects("a flipped membership flag for f(x)", ref.check_membership(not m_f, m_neg))
    res.rejects("a flipped membership flag for -f(x)", ref.check_membership(m_f, not m_neg))

    x_hat = [float(v) for v in crnlap.birch_intersect(net, xs, x)]
    res.accepts("a Birch point", ref.check_birch(nref, x_hat, x, xs))
    res.rejects("a displaced Birch point", ref.check_birch(nref, [v * 1.01 for v in x_hat], x, xs))

    traj = crnlap.simulate(net, x, 1.0, x_star=xs)
    states = [list(map(float, s)) for s in traj.states]
    res.accepts("a trajectory", ref.check_trajectory(nref, states, xs))
    res.rejects("a trajectory run backwards", ref.check_trajectory(nref, states[::-1], xs))


def tiny_runs(res: Results) -> None:
    for name, make in WORKLOADS.items():
        for traced in (False, True):
            wl = make()
            wl.setup(1, tiny=True)
            tracer = layertrace.Tracer() if traced else None
            if tracer:
                tracer.install()
            rec = Record(Probe(), tracer)
            try:
                wl.run_round(0, rec)
            finally:
                if tracer:
                    tracer.uninstall()
                if hasattr(wl, "cleanup"):
                    wl.cleanup()
            kind = "traced" if traced else "untraced"
            res.accepts(f"every output of a tiny {kind} {name} round", rec.problems)
            failed = sum(o.failed for o in rec.ops)
            res.expect(f"tiny {kind} {name} round: {failed} failed of {len(rec.ops)}, "
                       f"expected {EXPECTED_FAILED[name]}", failed == EXPECTED_FAILED[name])
            if tracer:
                res.expect(f"traced {name} round records spans and layer calls",
                           bool(tracer.spans) and any(n.startswith(("laplacian.", "cli."))
                                                      for n in tracer.calls))


def benchmark_json(res: Results) -> None:
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    res.expect("BENCHMARK.json workloads match the code",
               [w["name"] for w in spec["workloads"]] == list(WORKLOADS))
    res.expect("BENCHMARK.json end-to-end metrics match the code",
               {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END)
    layers = {n: (u, b) for n, (u, b, _) in layertrace.PER_LAYER.items()} | layertrace.EXTRA
    res.expect("BENCHMARK.json per-layer metrics match the code",
               {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers)


def main() -> int:
    res = Results()
    corrupted_outputs(res)
    tiny_runs(res)
    benchmark_json(res)
    print(f"self-test: {len(res.failures)} failure(s)")
    return 1 if res.failures else 0
