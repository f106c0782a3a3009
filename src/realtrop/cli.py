"""Command line front end.

One subcommand per computation; every input is a path, "-" for stdin,
or an inline literal, and every output is deterministic JSON on stdout.
Exit code 0 means the computation ran (axiom reports may still say
"ok": false), 1 is a structured library error, 2 a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import jsonio
from .matroids import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_PAIR_CAP,
    EnumerationCapError,
    check_covector_axioms,
    check_gp_relations,
    circuits_from_matrix,
    cocircuits_from_gp,
    covector_closure,
    gp_from_matrix,
    ground_from_matrix,
    sign_vector_str,
)
from .puiseux import as_series, parse_puiseux
from .seminorms import (
    DiagonalSeminorm,
    compose,
    diagonalize,
    flag_of,
    nondiag_fixture,
    phi_abs,
    project_point,
    reconstruct_from_family,
)
from .tropical import (
    LinearEmbedding,
    ProjPoint,
    bergman_fan,
    linear_space_member,
    trop_r_point,
)


def _read_arg(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _load(arg: str):
    """File, stdin, or inline; JSON when it looks like JSON."""
    text = _read_arg(arg).strip()
    if text.startswith("{") or text.startswith("["):
        return json.loads(text)
    return text


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_matrix(arg: str):
    obj = _load(arg)
    if isinstance(obj, str):
        raise ValueError("expected a JSON matrix (list of rows)")
    return jsonio.matrix_from_json(obj)


def _load_point(arg: str):
    obj = _load(arg)
    pt = jsonio.parse_point_literal(obj) if isinstance(obj, str) else jsonio.point_from_json(obj)
    return pt if isinstance(pt, ProjPoint) else trop_r_point(pt)


def _load_vector(arg: str):
    return jsonio.vector_from_json(_load(arg))


def _report_json(report) -> dict:
    out = {"ok": report.ok, "violations": [dict(v) for v in report.violations]}
    out.update(report.info)
    return out


# -- subcommand handlers -------------------------------------------------------


def _cmd_circuits(args) -> dict:
    ground = ground_from_matrix(_load_matrix(args.matrix))
    circuits = circuits_from_matrix(ground, cap=args.cap)
    return {"circuits": jsonio.circuits_to_json(circuits)}


def _cmd_gp_check(args) -> dict:
    obj = _load(args.gp)
    if isinstance(obj, dict):
        gp = jsonio.gp_from_json(obj, cap=args.cap)
    else:
        gp = gp_from_matrix(
            ground_from_matrix(jsonio.matrix_from_json(obj)), tuple_cap=args.cap
        )
    return _report_json(check_gp_relations(gp, pair_cap=args.cap))


def _cmd_tropicalize(args) -> dict:
    pt = _load_point(args.point)
    return {"point": jsonio.point_to_json(pt, args.convention)}


def _cmd_member(args) -> dict:
    emb = LinearEmbedding.from_matrix(_load_matrix(args.matrix))
    pt = _load_point(args.point)
    # membership reads every circuit: enumerate them within --cap, once
    emb.enumerate_circuits(args.cap)
    return {"member": linear_space_member(pt, emb)}


def _covectors_of(args):
    """The cocircuits of the matrix argument's sign chirotope and their
    covector closure, every stage within ``--cap``, and the closure within
    ``DEFAULT_CLOSURE_CAP`` too: the poset builds one bitset per covector."""
    ground = ground_from_matrix(_load_matrix(args.matrix))
    gp = gp_from_matrix(ground, target="S", tuple_cap=args.cap)
    cocircuits = cocircuits_from_gp(gp, cap=args.cap)
    return cocircuits, covector_closure(cocircuits, cap=min(args.cap, DEFAULT_CLOSURE_CAP))


def _cmd_covectors(args) -> dict:
    cocircuits, poset = _covectors_of(args)
    return {
        "cocircuits": [sign_vector_str(v) for v in cocircuits],
        "poset": jsonio.poset_to_json(poset),
        "axioms": _report_json(check_covector_axioms(poset)),
    }


def _cmd_bergman(args) -> dict:
    return jsonio.fan_to_json(bergman_fan(_covectors_of(args)[1], cap=args.cap))


def _cmd_seminorm(args) -> dict:
    action = args.action
    if action == "compose":
        left = jsonio.seminorm_from_json(_load(args.inputs[0]))
        right = jsonio.seminorm_from_json(_load(args.inputs[1]))
        return {"seminorm": jsonio.seminorm_to_json(compose(left, right))}
    s = jsonio.seminorm_from_json(_load(args.inputs[0]))
    if action == "eval":
        vec = _load_vector(args.inputs[1])
        return jsonio.displayed_to_json(s.value(vec), args.convention)
    if action == "project":
        emb = LinearEmbedding.from_matrix(_load_matrix(args.inputs[1]))
        return {"point": jsonio.point_to_json(project_point(s, emb), args.convention)}
    if action == "diagonalize":
        return {"seminorm": jsonio.seminorm_to_json(diagonalize(s))}
    if action == "flags":
        diag = s if isinstance(s, DiagonalSeminorm) else diagonalize(s)
        return {"flag": jsonio.flag_to_json(flag_of(diag))}
    if action == "phi":
        image = phi_abs(s)
        duals = [
            tuple(as_series(1 if i == j else 0) for i in range(s.dim))
            for j in range(s.dim)
        ]
        return {
            "abs_on_duals": [jsonio.value_to_json(image.value(f)) for f in duals],
            "flag": jsonio.unsigned_flag_to_json(image.flag) if image.flag else None,
        }
    raise ValueError(f"unknown seminorm action {action!r}")


def _cmd_limit(args) -> dict:
    fam, probes = jsonio.family_from_json(_load(args.family))
    out = {"members": len(fam.members), "morphisms": len(fam.morphisms), "ok": True}
    if probes:
        values = reconstruct_from_family(fam, probes)
        out["table"] = [
            {"probe": jsonio.vector_to_json(p), **jsonio.displayed_to_json(v, args.convention)}
            for p, v in zip(probes, values)
        ]
    return out


def _cmd_fixture(args) -> dict:
    sign = nondiag_fixture(parse_puiseux(args.x), parse_puiseux(args.y))
    return {"sign": jsonio.value_to_json(sign)}


# -- parser ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only parses
    with it, so repeated in-process calls share it."""
    parser = argparse.ArgumentParser(
        prog="realtrop",
        description="Exact computations with real tropical linear spaces, "
        "oriented valuated matroids, and signed seminorms.",
    )
    parser.add_argument(
        "--convention",
        choices=("mult", "val"),
        default="mult",
        help="display convention for sign-and-valuation values",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_PAIR_CAP,
        help="bound on enumeration loops (minors, circuits, relations, closures); "
        f"covector closures stop at {DEFAULT_CLOSURE_CAP} whatever it is",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("circuits", help="signed valuated circuits of a matrix")
    p.add_argument("matrix")
    p.set_defaults(run=_cmd_circuits)

    p = sub.add_parser("gp-check", help="verify the exchange relations")
    p.add_argument("gp", help="a Grassmann-Plucker JSON object or a matrix")
    p.set_defaults(run=_cmd_gp_check)

    p = sub.add_parser("tropicalize", help="signed valuation of a coordinate vector")
    p.add_argument("point")
    p.set_defaults(run=_cmd_tropicalize)

    p = sub.add_parser("member", help="membership in a real tropical linear space")
    p.add_argument("point")
    p.add_argument("matrix")
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("covectors", help="cocircuits, covector poset, axiom report")
    p.add_argument("matrix")
    p.set_defaults(run=_cmd_covectors)

    p = sub.add_parser("bergman", help="chains-of-covectors fan of a matrix")
    p.add_argument("matrix")
    p.set_defaults(run=_cmd_bergman)

    p = sub.add_parser("seminorm", help="evaluate and transform seminorms")
    p.add_argument(
        "action",
        choices=("eval", "compose", "diagonalize", "flags", "phi", "project"),
    )
    p.add_argument("inputs", nargs="+")
    p.set_defaults(run=_cmd_seminorm)

    p = sub.add_parser("limit", help="compatible family operations")
    p.add_argument("verb", choices=("check",))
    p.add_argument("family")
    p.set_defaults(run=_cmd_limit)

    p = sub.add_parser("fixture", help="reference maps used in tests")
    p.add_argument("name", choices=("nondiag",))
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(run=_cmd_fixture)

    return parser


_EXPECTED_INPUTS = {"eval": 2, "compose": 2, "project": 2, "diagonalize": 1, "flags": 1, "phi": 1}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "seminorm":
        expected = _EXPECTED_INPUTS[args.action]
        if len(args.inputs) != expected:
            parser.error(f"seminorm {args.action} takes {expected} input(s)")
    try:
        _emit(args.run(args))
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, EnumerationCapError):
            error.update(required=exc.required, cap=exc.cap, stage=exc.stage)
        _emit({"error": error})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
