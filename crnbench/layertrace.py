"""Per-layer tracing of crnlap from outside the library.

``Tracer.install`` wraps every public function of the layer modules, and
the ``crn.ReactionNetwork`` constructor, at every place a crnlap module
binds it, so calls made inside the library are traced too.  Each call
becomes a span (name, start, end, parent, run id) kept in memory; self
time is a span's duration minus its child spans.  A few wrappers also
count the sizes of what the function returns (arborescences, cycles,
admissible orders, rays, integrator steps).

Tracing is only installed for the traced run; end-to-end metrics are
always taken with the original functions in place.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("graph", "exact", "laplacian", "crn", "equilibria", "geometry", "stability", "io", "cli")

# Ancestors under which calls are also counted, for per-operation ratios.
WITHIN = (
    "stability.decrease_certificate",
    "stability.bdi_membership",
    "cli.cmd_analyze",
)


def _count_len(key):
    def hook(tracer, args, result, pre):
        tracer.counts[key] += len(result)

    return hook


def _rays(tracer, args, result, pre):
    tracer.counts["geometry.rays"] += len(result)
    if pre:  # the cone's ray cache was empty, so the rays were enumerated
        tracer.counts["geometry.ray_enumerations"] += 1
        if tracer.active["stability.bdi_membership"]:
            tracer.counts["geometry.ray_enumerations.in_bdi"] += 1


def _steps(tracer, args, result, pre):
    tracer.counts["stability.rk_accepted"] += result.accepted
    tracer.counts["stability.rk_rejected"] += result.rejected


HOOKS = {
    "graph.enumerate_arborescences": (None, _count_len("graph.arborescences")),
    "graph.enumerate_cycles": (None, _count_len("graph.cycles")),
    "geometry.admissible_chain_orders": (None, _count_len("geometry.admissible_orders")),
    "geometry.extreme_rays": (lambda args: args[0]._rays is None, _rays),
    "stability.simulate": (None, _steps),
}


class Tracer:
    """Spans and per-function totals for one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.keep_spans = True
        self.run_id = 0
        self.stack: list[list] = []  # [name, start, child seconds, span index]
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.within: Counter = Counter()  # "name@ancestor" -> calls
        self.import_samples: list[float] = []  # child processes' crnlap.cli import
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        index = -1
        if self.keep_spans:
            parent = self.stack[-1][3] if self.stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.run_id])
        for anc in WITHIN:
            if self.active[anc]:
                self.within[f"{name}@{anc}"] += 1
        self.active[name] += 1
        frame = [name, 0.0, 0.0, index]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, index = frame
        self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self.active[name] == 0:  # count recursive calls' time once
            self.incl[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- installation ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        pre_hook, post_hook = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = pre_hook(args) if pre_hook else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post_hook:
                post_hook(tracer, args, result, pre)
            return result

        return traced

    def install(self) -> None:
        """Replace each public layer function wherever a crnlap module binds it."""
        modules = {"crnlap": importlib.import_module("crnlap")}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(f"crnlap.{layer}")
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("crnlap"):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        cls = modules["crn"].ReactionNetwork
        self._patches.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("crn.ReactionNetwork", cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """Per-function calls and seconds, plus counters, as plain data."""
        return as_json(self.snapshot())

    def merge(self, other: dict, spans: list, import_s: float | None = None) -> None:
        """Fold a child process's totals and spans into this tracer."""
        for n, f in other["functions"].items():
            self.calls[n] += f["calls"]
            self.incl[n] += f["incl_s"]
            self.self_s[n] += f["self_s"]
        self.counts.update(other["counts"])
        self.within.update(other["within"])
        if self.keep_spans:
            parent = self.stack[-1][3] if self.stack else -1
            base = len(self.spans)
            for name, start, end, p, _ in spans:
                self.spans.append([name, start, end, parent if p < 0 else base + p, self.run_id])
        if import_s is not None:
            self.import_samples.append(import_s)

    def snapshot(self) -> dict:
        return {
            "calls": Counter(self.calls),
            "self_s": dict(self.self_s),
            "incl": dict(self.incl),
            "counts": Counter(self.counts),
            "within": Counter(self.within),
        }


def as_json(totals: dict) -> dict:
    """A snapshot or delta as plain data: per-function calls and seconds, counters."""
    return {
        "functions": {
            n: {"calls": c, "incl_s": totals["incl"].get(n, 0.0), "self_s": totals["self_s"].get(n, 0.0)}
            for n, c in sorted(totals["calls"].items())
        },
        "counts": dict(totals["counts"]),
        "within": dict(totals["within"]),
    }


def delta(after: dict, before: dict) -> dict:
    """Totals accumulated between two snapshots."""
    return {
        "calls": after["calls"] - before["calls"],
        "self_s": {k: v - before["self_s"].get(k, 0.0) for k, v in after["self_s"].items()},
        "incl": {k: v - before["incl"].get(k, 0.0) for k, v in after["incl"].items()},
        "counts": after["counts"] - before["counts"],
        "within": after["within"] - before["within"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better, extractor over one traced pass's totals)
def _self(fn):
    return "s", "lower", lambda t: t["self_s"].get(fn, 0.0)


def _incl(fn):
    return "s", "lower", lambda t: t["incl"].get(fn, 0.0)


def _calls(fn):
    return "count", "lower", lambda t: t["calls"].get(fn, 0)


def _count(key):
    return "count", "lower", lambda t: t["counts"].get(key, 0)


def _per(fn, anc):
    return "ratio", "lower", lambda t: _ratio(t["within"].get(f"{fn}@{anc}", 0), t["calls"].get(anc, 0))


PER_LAYER = {
    "graph.enumerate_arborescences.self_s": _self("graph.enumerate_arborescences"),
    "graph.arborescences": _count("graph.arborescences"),
    "graph.enumerate_cycles.self_s": _self("graph.enumerate_cycles"),
    "graph.cycles": _count("graph.cycles"),
    "graph.validate_aux_tree.self_s": _self("graph.validate_aux_tree"),
    "laplacian.tree_constants.calls": _calls("laplacian.tree_constants"),
    "laplacian.tree_constants.self_s": _self("laplacian.tree_constants"),
    "laplacian.tree_constants.calls_per_analyze": _per("laplacian.tree_constants", "cli.cmd_analyze"),
    "laplacian.cycle_decomposition.self_s": _self("laplacian.cycle_decomposition"),
    "laplacian.laplacian_matrix.calls": _calls("laplacian.laplacian_matrix"),
    "laplacian.laplacian_matrix.self_s": _self("laplacian.laplacian_matrix"),
    "laplacian.core_matrix.self_s": _self("laplacian.core_matrix"),
    "laplacian.verify_core_decomposition.self_s": _self("laplacian.verify_core_decomposition"),
    "laplacian.laplacian_matrix.calls_per_certificate": _per(
        "laplacian.laplacian_matrix", "stability.decrease_certificate"
    ),
    "laplacian.laplacian_matrix.calls_per_bdi_check": _per(
        "laplacian.laplacian_matrix", "stability.bdi_membership"
    ),
    "exact.rref.calls": _calls("exact.rref"),
    "exact.rref.self_s": _self("exact.rref"),
    "exact.det.calls": _calls("exact.det"),
    "exact.det.self_s": _self("exact.det"),
    "exact.solve.calls": _calls("exact.solve"),
    "crn.monomial_vector.calls": _calls("crn.monomial_vector"),
    "crn.scaled_monomials.calls_per_certificate": _per(
        "crn.scaled_monomials", "stability.decrease_certificate"
    ),
    "crn.mass_action_rhs.self_s": _self("crn.mass_action_rhs"),
    "crn.ReactionNetwork.incl_s": _incl("crn.ReactionNetwork"),
    "equilibria.is_cbe.calls": _calls("equilibria.is_cbe"),
    "equilibria.is_cbe.self_s": _self("equilibria.is_cbe"),
    "equilibria.birch_intersect.self_s": _self("equilibria.birch_intersect"),
    "equilibria.solve_cbe.self_s": _self("equilibria.solve_cbe"),
    "geometry.monomial_order.self_s": _self("geometry.monomial_order"),
    "geometry.admissible_orders": _count("geometry.admissible_orders"),
    "geometry.extreme_rays.self_s": _self("geometry.extreme_rays"),
    "geometry.rays": _count("geometry.rays"),
    "geometry.ray_enumerations_per_bdi_check": (
        "ratio",
        "lower",
        lambda t: _ratio(
            t["counts"].get("geometry.ray_enumerations.in_bdi", 0),
            t["calls"].get("stability.bdi_membership", 0),
        ),
    ),
    "stability.decrease_certificate.self_s": _self("stability.decrease_certificate"),
    "stability.bdi_membership.self_s": _self("stability.bdi_membership"),
    "stability.simulate.self_s": _self("stability.simulate"),
    "stability.rk_accepted": _count("stability.rk_accepted"),
    "stability.rk_rejected": _count("stability.rk_rejected"),
    "io.parse_network.self_s": _self("io.parse_network"),
    "cli.emit.self_s": _self("cli.emit"),
    "cli.run_command.self_s": _self("cli.run_command"),
}

# Filled from the run rather than from one pass's totals.
EXTRA = {
    "cli.import_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_metrics(setup: dict, passes: list[dict]) -> dict:
    """Set-up totals plus the median over traced passes of each metric."""
    out = {}
    for name, (unit, _, extract) in PER_LAYER.items():
        if unit == "ratio":  # per-operation ratios come from the passes alone
            value = statistics.median_low(extract(p) for p in passes)
        else:
            value = extract(setup) + statistics.median_low(extract(p) for p in passes)
        out[name] = {"value": value, "unit": unit}
    return out


def write(path, tracer: Tracer, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "spans": tracer.spans}, fh)
