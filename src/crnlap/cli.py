"""Command-line interface: JSON reports over network document files.

Subcommands: analyze, decompose, equilibria, certify, bdi-check, simulate.
Reports go to stdout as deterministic JSON (sorted keys); errors go to
stderr as structured JSON.  Exit codes: 0 success, 2 validation error
(values outside the float64 range included), 3 infeasible analysis.
Only the commands whose checks read it take `--tol`.  Set
CRNLAP_LOG=debug|info|warning for log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import __version__, exact
from .crn import ReactionNetwork, mass_action_rhs, stoichiometric_subspace
from .equilibria import cbe_manifold_sample, is_cbe, require_cbe, solve_cbe
from .errors import (
    CrnlapError,
    NoConvergenceError,
    SchemaError,
    SemanticError,
    StepSizeUnderflowError,
)
from .graph import AuxTree, make_aux_tree, default_chain_aux
from .io import number_to_json, parse_network
from .laplacian import core_matrix, laplacian_matrix, verify_core_decomposition
from .stability import bdi_report, decrease_certificate, lyapunov_value, simulate

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def jsonable(value):
    """Recursively convert report values to JSON-serializable objects."""
    if isinstance(value, Fraction):
        return number_to_json(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def emit(report: dict, out: str | None) -> None:
    text = json.dumps(jsonable(report), indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def emit_error(kind: str, message: str, path: str = "") -> None:
    obj = {"error": {"type": kind, "message": message}}
    if path:
        obj["error"]["path"] = path
    print(json.dumps(obj, indent=2, sort_keys=True), file=sys.stderr)


def _load(args) -> ReactionNetwork:
    with open(args.network, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_network(text, mode=args.mode)[1]


def _parse_state(text: str) -> list:
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            values.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            try:
                values.append(float(tok))
            except ValueError:
                raise SemanticError(f"malformed number {tok!r} in {text!r}") from None
    return values


def _parse_aux(spec: str, graph) -> AuxTree:
    kind, sep, rest = spec.partition(":")
    if not sep or kind not in ("chain", "star"):
        raise SemanticError(f"aux spec must be chain:... or star:root=..., got {spec!r}")
    groups = rest.split(";")
    if kind == "chain":
        orders = [[v.strip() for v in grp.split(",") if v.strip()] for grp in groups]
        return make_aux_tree(graph, "chain", orders)
    roots = []
    for grp in groups:
        grp = grp.strip()
        if not grp.startswith("root="):
            raise SemanticError(f"star spec components must be root=<id>, got {grp!r}")
        roots.append(grp[len("root="):])
    return make_aux_tree(graph, "star", roots)


def _aux_report(aux: AuxTree) -> dict:
    return {"kind": aux.kind, "edges": [[a, b] for a, b in aux.edges]}


def _mode_name(net) -> str:
    return "exact" if net.exact else "float"


def _decomposition_report(net, aux, tol) -> dict:
    # off weakly reversible networks core_matrix raises NotStronglyConnectedError
    consts = net.tree_constants() if net.is_weakly_reversible() else None
    dec = core_matrix(net.graph, aux, consts=consts)
    checks = verify_core_decomposition(dec, tol=tol)
    return {
        "aux": _aux_report(aux),
        "core": dec.core,
        "residual": dec.residual,
        "checks": {
            "residual_ok": checks.residual_ok,
            "invertible": checks.invertible,
            "chain_signs_ok": checks.chain_signs_ok,
            "star_signs_ok": checks.star_signs_ok,
            "passed": checks.passed,
        },
    }


def cmd_analyze(args) -> int:
    net = _load(args)
    g = net.graph
    s_basis, sperp_basis = stoichiometric_subspace(net)
    report = {
        "command": "analyze",
        "mode": _mode_name(net),
        "species": list(net.species),
        "components": [sorted(c) for c in g.scc_partition],
        "weakly_reversible": net.is_weakly_reversible(),
        "laplacian": laplacian_matrix(g),
        "stoichiometric_dim": int(s_basis.shape[1]),
        "conservation_dim": int(sperp_basis.shape[1]),
    }
    if net.is_weakly_reversible():
        consts = net.tree_constants().values
        by_vertex = {v: consts[g.index[v]] for v in g.vertex_ids}
        # both keys of the report format hold the one computed result
        report["tree_constants"] = {"enumeration": by_vertex, "minors": by_vertex}
        report["decomposition"] = _decomposition_report(
            net, default_chain_aux(g), args.tol
        )
    emit(report, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    net = _load(args)
    aux = (
        _parse_aux(args.aux, net.graph) if args.aux else default_chain_aux(net.graph)
    )
    report = {
        "command": "decompose",
        "mode": _mode_name(net),
        **_decomposition_report(net, aux, args.tol),
    }
    emit(report, args.out)
    return EXIT_OK


def cmd_equilibria(args) -> int:
    net = _load(args)
    result = solve_cbe(net)
    report = {
        "command": "equilibria",
        "mode": _mode_name(net),
        "status": result.status,
        "log_residual": result.log_residual,
    }
    if result.status == "found":
        check = is_cbe(net, list(result.witness), tol=args.tol)
        report["witness"] = result.witness
        report["balance_residual"] = check.residual
        report["balance_scale"] = check.scale
        if args.samples:
            samples = cbe_manifold_sample(
                net, list(result.witness), args.samples, args.seed
            )
            report["manifold_samples"] = samples
        emit(report, args.out)
        return EXIT_OK
    emit(report, args.out)
    return EXIT_INFEASIBLE


def _resolve_x_star(args, net):
    if args.x_star:
        return _parse_state(args.x_star)
    result = solve_cbe(net)
    if result.status != "found":
        raise NoConvergenceError(
            "network has no complex-balanced equilibrium; pass --x-star"
        )
    return list(result.witness)


def cmd_certify(args) -> int:
    net = _load(args)
    x = _parse_state(args.x)
    x_star = _resolve_x_star(args, net)
    cert = decrease_certificate(net, x, x_star)
    report = {
        "command": "certify",
        "mode": _mode_name(net),
        "x": [float(v) for v in x],
        "x_star": [float(v) for v in x_star],
        "aux": _aux_report(cert.aux),
        "a": cert.a,
        "b": cert.b,
        "core": cert.core,
        "value": cert.value,
        "verdict": cert.verdict,
        "witness_edge": list(cert.witness_edge) if cert.witness_edge else None,
        "lyapunov_value": lyapunov_value(x, x_star),
    }
    emit(report, args.out)
    return EXIT_OK if cert.verdict != "failure" else EXIT_INFEASIBLE


def cmd_bdi_check(args) -> int:
    net = _load(args)
    x = _parse_state(args.x)
    # no CBE: NoConvergenceError, exit 3; a given x* that is not one: exit 2
    require_cbe(net, _resolve_x_star(args, net))
    if args.v:
        v = np.asarray([float(t) for t in _parse_state(args.v)], dtype=float)
    else:
        v = np.asarray(mass_action_rhs(net, x), dtype=float)
    bdi = bdi_report(net, x, v, tol=args.tol)
    report = {
        "command": "bdi-check",
        "mode": _mode_name(net),
        "x": [float(t) for t in x],
        "v": v,
        "on_manifold": bdi.on_manifold,
        "member": bdi.member,
        "cone": None if bdi.cone is None else {"edges": bdi.cone[0], **asdict(bdi.cone[1])},
    }
    emit(report, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    net = _load(args)
    x0 = _parse_state(args.x0)
    x_star = _parse_state(args.x_star) if args.x_star else None
    traj = simulate(
        net, x0, args.t, rtol=args.rtol, atol=args.atol, x_star=x_star
    )
    trajectory = {
        "times": traj.times,
        "states": traj.states,
        "lyapunov": traj.lyapunov,
        "accepted": traj.accepted,
        "rejected": traj.rejected,
    }
    report = {
        "command": "simulate",
        "mode": _mode_name(net),
        "t_end": float(args.t),
        "final_time": traj.times[-1],
        "final_state": traj.states[-1],
        "final_lyapunov": traj.lyapunov[-1] if traj.lyapunov else None,
        "accepted": traj.accepted,
        "rejected": traj.rejected,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(jsonable(trajectory), fh, indent=2, sort_keys=True)
            fh.write("\n")
        report["trajectory_file"] = args.out
        emit(report, None)
    else:
        report["trajectory"] = trajectory
        emit(report, None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnlap",
        description="Graph-Laplacian core decomposition and mass-action analysis",
    )
    parser.add_argument("--version", action="version", version=f"crnlap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("network", help="network document (JSON)")
        p.add_argument(
            "--mode",
            choices=("auto", "exact", "float"),
            default="auto",
            help="numeric mode for parsing document numbers",
        )
        p.add_argument("--seed", type=int, default=0, help="seed for sampling")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("analyze", help="components, tree constants, decomposition")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="core matrix for a given aux tree")
    common(p)
    p.add_argument(
        "--aux",
        default=None,
        help='aux tree spec: "chain:1,2,3;4,5" or "star:root=1;root=4"',
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("equilibria", help="solve for a complex-balanced equilibrium")
    common(p)
    p.add_argument("--samples", type=int, default=0, help="manifold samples to draw")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("certify", help="Lyapunov decrease certificate at a state")
    common(p)
    p.add_argument("--x", required=True, help="state, comma separated")
    p.add_argument("--x-star", default=None, help="equilibrium (default: solved)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bdi-check", help="differential-inclusion membership")
    common(p)
    p.add_argument("--x", required=True, help="state, comma separated")
    p.add_argument("--v", default=None, help="vector to test (default: f_k(x))")
    p.add_argument("--x-star", default=None, help="equilibrium (default: solved)")
    p.set_defaults(func=cmd_bdi_check)

    p = sub.add_parser("simulate", help="integrate the mass-action ODE")
    common(p)
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--t", type=float, required=True, help="end time")
    p.add_argument("--x-star", default=None, help="reference equilibrium for L(x)")
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--atol", type=float, default=1e-10)
    p.set_defaults(func=cmd_simulate)
    for name in ("analyze", "decompose", "equilibria", "bdi-check"):
        sub.choices[name].add_argument("--tol", type=float, help="override check tolerance")
    return parser


def run_command(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        exact.check_tol(getattr(args, "tol", None))
        return args.func(args)
    except (SchemaError, SemanticError) as e:
        emit_error(type(e).__name__, str(e), getattr(e, "path", ""))
        return EXIT_VALIDATION
    except (NoConvergenceError, StepSizeUnderflowError) as e:
        emit_error(type(e).__name__, str(e))
        return EXIT_INFEASIBLE
    except FileNotFoundError as e:
        emit_error("FileNotFound", str(e))
        return EXIT_VALIDATION
    except CrnlapError as e:
        emit_error(type(e).__name__, str(e))
        return EXIT_VALIDATION


def main() -> None:
    level = os.environ.get("CRNLAP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
