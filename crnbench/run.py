#!/usr/bin/env python3
"""Benchmark for crnlap: one workload per invocation.

    python3 crnbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 crnbench/run.py --self-test

Run from the repository root.  It benchmarks the crnlap sources under
``src/`` of the checkout it sits in and fails when they are missing.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
run record (raw seconds, probe series, sample counts) is written under
``crnbench/runs/``.  See README.md.
"""

from __future__ import annotations

import os
import sys

# Fixed string hashing: set iteration order inside crnlap (for example the
# edge order of an arborescence's frozenset) decides float rounding, and
# the counted float faults must fail the same way in every run.  The
# interpreter reads the variable only at start, so re-execute in place.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

# One BLAS thread: the benchmark starts no threads, and crnlap's matrices are tiny.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9

# name -> (unit, better); every workload reports every one of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "large_op_p50_ms": ("ms", "lower"),
    "side_op_p50_ms": ("ms", "lower"),
}


def import_crnlap():
    """Put the checkout's src/ first on the path and import crnlap from it."""
    if not (SRC / "crnlap" / "__init__.py").is_file():
        sys.exit(f"crnbench: no crnlap sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import crnlap

    if Path(crnlap.__file__).resolve().parent != SRC / "crnlap":
        sys.exit(f"crnbench: crnlap was imported from {crnlap.__file__}, not {SRC}")
    return crnlap


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def write_record(name: str, record: dict) -> None:
    from workloads import RUNS_DIR

    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RUNS_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def timed_setup(wl, seed: int, host) -> list[tuple[float, float]]:
    """(seconds, local probe seconds) of each repeated set-up."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(seed)
        out.append((time.perf_counter() - t0, host.bracket()))
    return out


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: whole rounds until `seconds` have passed."""
    import probe
    from workloads import WORKLOADS, Record

    wl = WORKLOADS[name]()
    host = probe.Probe()
    setups = timed_setup(wl, seed, host)
    rec = Record(host)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        wl.run_round(rounds, rec)
        rounds += 1
    if hasattr(wl, "cleanup"):
        wl.cleanup()

    def figures(adjust: bool) -> dict:
        def t(seconds, probe_s):
            return seconds * host.factor(probe_s) if adjust else seconds

        ok = [o for o in rec.ops if o.kind == "op" and not o.failed]
        prim = [t(o.seconds, o.probe_s) for o in ok]
        large = [t(o.seconds, o.probe_s) for o in ok if o.size_class == "large"]
        side = [t(o.side, o.probe_s) for o in rec.ops if o.side is not None]
        return {
            "setup_s": statistics.median(t(s, p) for s, p in setups),
            "peak_rss_mb": peak_rss_mb(children=name == "cli"),
            "ops_per_s": len(prim) / sum(prim),
            "op_p50_ms": 1e3 * statistics.median(prim),
            "large_op_p50_ms": 1e3 * statistics.median(large),
            "side_op_p50_ms": 1e3 * statistics.median(side),
        }

    raw = figures(adjust=False)
    adjusted = figures(adjust=True)
    ok = [o for o in rec.ops if o.kind == "op" and not o.failed]
    samples = {
        "setup_s": len(setups),
        "ops_per_s": len(ok),
        "op_p50_ms": len(ok),
        "large_op_p50_ms": sum(o.size_class == "large" for o in ok),
        "side_op_p50_ms": sum(o.side is not None for o in rec.ops),
    }
    failed = sum(o.failed for o in rec.ops)
    write_record(
        f"{name}-seed{seed}.json",
        {
            **environment(seed),
            "workload": name,
            "seconds": seconds,
            "rounds": rounds,
            "attempted": len(rec.ops),
            "failed": failed,
            "probe_reference_s": probe.REFERENCE_S,
            "probe_samples_s": host.samples,
            "probe_at_s": host.at,
            "setup": [{"raw_s": s, "probe_s": p} for s, p in setups],
            "raw_metrics": raw,
            "metrics": adjusted,
            "samples": samples,
            "notes": rec.notes,
            "problems": rec.problems[:100],
            "ops": [
                {"kind": o.kind, "label": o.label, "class": o.size_class, "raw_s": o.seconds,
                 "side_raw_s": o.side, "start_s": o.start - host.start, "probe_s": o.probe_s,
                 "failed": o.failed}
                for o in rec.ops
            ],
        },
    )
    return {
        "correct": not rec.problems,
        "attempted": len(rec.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in adjusted.items()},
    }


def traced(name: str, seed: int, seconds: float) -> dict:
    """Traced run: traced set-up, then untraced and traced passes over round 0."""
    import layertrace
    import probe
    from workloads import WORKLOADS, Record

    wl = WORKLOADS[name]()
    host = probe.Probe()
    tracer = layertrace.Tracer()
    tracer.install()
    before = tracer.snapshot()
    wl.setup(seed)
    setup_totals = layertrace.delta(tracer.snapshot(), before)
    passes, plain_s, traced_s = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tracer.uninstall()
        plain = Record(host)
        wl.run_round(0, plain)
        tracer.install()
        before = tracer.snapshot()
        rec = Record(host, tracer)
        wl.run_round(0, rec)
        passes.append(layertrace.delta(tracer.snapshot(), before))
        tracer.keep_spans = False  # spans of set-up and the first traced pass only
        plain_s.append(_op_seconds(plain, host))
        traced_s.append(_op_seconds(rec, host))
        for r in (plain, rec):
            attempted += len(r.ops)
            failed += sum(o.failed for o in r.ops)
            problems += r.problems
    tracer.uninstall()
    if hasattr(wl, "cleanup"):
        wl.cleanup()

    metrics = layertrace.per_layer_metrics(setup_totals, passes)
    imports = tracer.import_samples
    metrics["cli.import_s"] = {
        "value": statistics.median(imports) if imports else 0.0,
        "unit": "s",
    }
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
        "unit": "ratio",
    }
    summary = {
        **environment(seed),
        "workload": name,
        "passes": len(passes),
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "setup": layertrace.as_json(setup_totals),
        "first_pass": layertrace.as_json(passes[0]),
        "metrics": metrics,
        "problems": problems[:100],
    }
    from workloads import RUNS_DIR

    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    layertrace.write(RUNS_DIR / f"trace-{name}-seed{seed}.json", tracer, summary)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _op_seconds(rec, host) -> float:
    """Total host-adjusted operation time of a pass."""
    return sum(o.seconds * host.factor(o.probe_s) for o in rec.ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    import_crnlap()
    sys.path.insert(0, str(BENCH_DIR))
    if args.self_test:
        import selftest

        return selftest.main()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    run = traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
