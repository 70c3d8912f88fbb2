"""Command-line interface.

Commands: ``info`` (derived invariants), ``diagram`` (minimal or complete
diagram as text, JSON or DOT), ``mu`` (Milnor number, optionally checked
against the weighted-homogeneous oracle), ``jump`` (full jump report),
``adjacent`` (bounded linear-adjacency verdict between two germs),
``verify`` (bounded maximality verification) and ``enumerate`` (stream all
minimal diagrams within bounds).

Exit codes: 0 success, 1 domain error (bad spec, invalid diagram,
enumeration cap), 2 usage error, 3 a maximality contradiction found by
``verify``.  Results go to stdout, errors to stderr.  A command whose
stdout reader closes early stops at its next write with exit code 1 and
no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .adjacency import GeqWitness, linear_adjacent
from .diagram import DiagramError, WeightedDiagram, diagram_type, milnor_number
from .enumeration import enumerate_minimal_diagrams
from .jump import lambda_lin, lambda_lin_semi, verify_maximality
from .quasihomogeneous import (
    build_enriques_diagram,
    derived_invariants,
    milnor_orlik,
    minimal_diagram,
    parse_spec,
)
from .serialize import (
    _jump_report_json,
    _witness_arrays,
    diagram_to_dict,
    diagram_to_dot,
    diagram_to_json,
    diagram_to_text,
)

__all__ = ["run", "parse_spec", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enriques",
        description="Enriques diagrams, Milnor numbers and jumps of quasihomogeneous plane curve singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print the derived invariants of a germ")
    p_info.add_argument("spec", help="germ, as k,l,p,q or polynomial like x^6+y^9")

    p_diagram = sub.add_parser("diagram", help="print the Enriques diagram of a germ")
    which = p_diagram.add_mutually_exclusive_group()
    which.add_argument("--minimal", action="store_true", help="minimal diagram (default)")
    which.add_argument("--complete", action="store_true", help="complete diagram")
    p_diagram.add_argument(
        "--format", choices=("text", "json", "dot"), default="text", help="output format"
    )
    p_diagram.add_argument("spec")

    p_mu = sub.add_parser("mu", help="print the Milnor number of a germ")
    p_mu.add_argument(
        "--check", action="store_true", help="also print the independent oracle value"
    )
    p_mu.add_argument("spec")

    p_jump = sub.add_parser("jump", help="print the jump report of a germ")
    p_jump.add_argument(
        "--semi",
        action="store_true",
        help="input is the declared quasihomogeneous initial part of a semi-quasihomogeneous germ",
    )
    p_jump.add_argument("--format", choices=("text", "json"), default="text")
    p_jump.add_argument("spec")

    p_adj = sub.add_parser(
        "adjacent", help="decide bounded linear adjacency between two germ types"
    )
    p_adj.add_argument("source")
    p_adj.add_argument("target")
    p_adj.add_argument(
        "--extra-bound",
        type=int,
        default=None,
        help="max added free weight-1 vertices (default: target diagram size)",
    )

    p_verify = sub.add_parser(
        "verify", help="bounded verification that the jump is maximal"
    )
    p_verify.add_argument("spec")
    p_verify.add_argument("--max-vertices", type=int, default=None)
    p_verify.add_argument("--max-weight", type=int, default=None)
    p_verify.add_argument("--extra-bound", type=int, default=None)

    p_enum = sub.add_parser(
        "enumerate", help="stream all minimal diagrams within bounds"
    )
    p_enum.add_argument("--max-vertices", type=int, required=True)
    p_enum.add_argument("--max-weight", type=int, required=True)
    p_enum.add_argument("--format", choices=("text", "json"), default="text")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`run` reuses, built on its first call."""
    return build_parser()


def _print_witness(upper: WeightedDiagram, lower: WeightedDiagram, witness: GeqWitness) -> None:
    for field, array in _witness_arrays(upper, lower, witness).items():
        print(f"witness {field} {json.dumps(array)}")


def _cmd_info(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    inv = derived_invariants(spec)
    print(f"spec {spec.k},{spec.l},{spec.p},{spec.q}")
    print(f"polynomial {spec.polynomial}")
    for field in ("d_tilde", "r", "s", "d", "t", "w", "w_x", "w_y", "W"):
        print(f"{field} {getattr(inv, field)}")
    print(f"mu {milnor_orlik(spec)}")
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    diagram = build_enriques_diagram(spec) if args.complete else minimal_diagram(spec)
    if args.format == "json":
        sys.stdout.write(diagram_to_json(diagram))
    elif args.format == "dot":
        sys.stdout.write(diagram_to_dot(diagram))
    else:
        sys.stdout.write(diagram_to_text(diagram))
    return 0


def _cmd_mu(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    mu = milnor_number(build_enriques_diagram(spec))
    print(mu)
    if args.check:
        oracle = milnor_orlik(spec)
        print(f"oracle {oracle} {'match' if oracle == mu else 'MISMATCH'}")
        if oracle != mu:
            return 1
    return 0


def _cmd_jump(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    report = lambda_lin_semi(spec) if args.semi else lambda_lin(spec)
    if args.format == "json":
        sys.stdout.writelines(_jump_report_json(report))
        sys.stdout.write("\n")
        return 0
    print(f"spec {spec.k},{spec.l},{spec.p},{spec.q}")
    print(f"polynomial {spec.polynomial}")
    for field in ("d", "t", "w", "mu_D", "mu_E", "lambda_lin"):
        label = {"mu_D": "mu", "mu_E": "mu_E"}.get(field, field)
        print(f"{label} {getattr(report, field)}")
    print("E_D:")
    sys.stdout.write(diagram_to_text(report.E_D, indent="  "))
    _print_witness(report.representative, report.E_D, report.adjacency_witness)
    print("maximality unverified")
    if report.semi:
        print("semi true")
    return 0


def _cmd_adjacent(args: argparse.Namespace) -> int:
    source = diagram_type(minimal_diagram(parse_spec(args.source)))
    target = diagram_type(minimal_diagram(parse_spec(args.target)))
    verdict = linear_adjacent(source, target, args.extra_bound)
    if not verdict.holds:
        print(f"NoUpToBound extra_vertex_bound={verdict.extra_vertex_bound}")
        return 0
    print(f"Yes extra_vertex_bound={verdict.extra_vertex_bound}")
    print("representative:")
    sys.stdout.write(diagram_to_text(verdict.representative, indent="  "))
    _print_witness(verdict.representative, target.representative, verdict.witness)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    report = verify_maximality(
        spec,
        max_vertices=args.max_vertices,
        max_weight=args.max_weight,
        extra_bound=args.extra_bound,
    )
    print(f"spec {spec.k},{spec.l},{spec.p},{spec.q}")
    print(
        f"bounds max_vertices={report.max_vertices} "
        f"max_weight={report.max_weight} extra_bound={report.extra_bound}"
    )
    print(f"mu {report.mu_D}")
    print(f"lambda_lin {report.lambda_lin}")
    print(f"threshold {report.mu_D - report.lambda_lin}")
    print(f"examined {report.examined}")
    print(f"refuted {report.refuted}")
    print(f"attained_max_mu {report.attained_max_mu}")
    for key, mu in report.contradictions:
        print(f"contradiction {key} mu={mu}")
    print(f"status {report.status}")
    return 3 if report.status == "contradiction" else 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for diagram in enumerate_minimal_diagrams(args.max_vertices, args.max_weight):
        if args.format == "json":
            print(json.dumps(diagram_to_dict(diagram)))
        else:
            print(diagram.key)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "diagram": _cmd_diagram,
    "mu": _cmd_mu,
    "jump": _cmd_jump,
    "adjacent": _cmd_adjacent,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
}


def run(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DiagramError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(run())
