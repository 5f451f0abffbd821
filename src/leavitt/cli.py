"""Command-line interface.

Every command is deterministic for fixed inputs and flags.  Text output is
human-oriented and may change between versions; JSON is the stable surface.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

from . import twovertex
from .elements import format_element, graded_components, mul, parse_element
from .errors import LpaError, ParseError
from .graphs import (
    Graph,
    classify_vertex,
    condition_k,
    all_hereditary_saturated_sets,
    hereditary_saturated_closure,
    parse_graph,
)
from .ideals import (
    contains,
    extract_vertex,
    generator_set_from_json,
    graded_lattice,
    lambda_reduce,
    lattice_dot,
    nongraded_witness,
    reduction_to_json,
)


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _read_text(path: str) -> str:
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _load_ideal_arg(g: Graph, spec: str):
    """An ideal argument is inline JSON (starts with '{') or a file path."""
    text = spec if spec.lstrip().startswith("{") else _read_text(spec)
    return generator_set_from_json(g, text)


def _set_str(g: Graph, members) -> str:
    return "{" + ", ".join(g.sort_vertices(members)) + "}"


def _cmd_check_k(args) -> int:
    g = _load_graph(args.graph)
    ok, offenders = condition_k(g)
    if args.format == "json":
        print(_dump({"condition_k": ok, "k1_vertices": list(offenders)}))
    else:
        print("true" if ok else f"false: K1 vertices [{', '.join(offenders)}]")
    return 0


def _cmd_classify_vertex(args) -> int:
    g = _load_graph(args.graph)
    vc = classify_vertex(g, args.vertex)
    if args.format == "json":
        payload = {"class": vc.kind}
        if vc.cycle is not None:
            payload["cycle"] = list(vc.cycle.edges)
        print(_dump(payload))
    else:
        print(vc.kind if vc.cycle is None else f"{vc.kind} cycle ({vc.cycle})")
    return 0


def _cmd_closure(args) -> int:
    g = _load_graph(args.graph)
    xs = [v for v in args.vertices.split(",") if v] if args.vertices else []
    t = hereditary_saturated_closure(g, xs)
    if args.format == "json":
        print(_dump({"closure": list(t.sorted_members())}))
    else:
        print(_set_str(g, t.members))
    return 0


def _cmd_hs_sets(args) -> int:
    g = _load_graph(args.graph)
    sets = all_hereditary_saturated_sets(g)
    if args.format == "json":
        print(_dump({"sets": [list(s.sorted_members()) for s in sets]}))
    else:
        for s in sets:
            print(_set_str(g, s.members))
    return 0


def _cmd_graded_lattice(args) -> int:
    g = _load_graph(args.graph)
    poset = graded_lattice(g)
    if args.format == "dot":
        print(lattice_dot(g, poset), end="")
    elif args.format == "json":
        print(
            _dump(
                {
                    "nodes": [
                        list(node.generators.sorted_members())
                        for node in poset.elements
                    ],
                    "covers": [list(c) for c in poset.covers()],
                }
            )
        )
    else:
        for node in poset.elements:
            print(str(node))
        for i, j in poset.covers():
            print(f"{poset.elements[i]} < {poset.elements[j]}")
    return 0


def _cmd_normalize(args) -> int:
    g = _load_graph(args.graph)
    x = parse_element(g, args.element)
    if args.format == "json":
        print(_dump({"normal_form": format_element(x)}))
    else:
        print(format_element(x))
    return 0


def _cmd_mul(args) -> int:
    g = _load_graph(args.graph)
    x = parse_element(g, args.left)
    y = parse_element(g, args.right)
    z = mul(x, y)
    if args.format == "json":
        print(_dump({"product": format_element(z)}))
    else:
        print(format_element(z))
    return 0


def _cmd_grade(args) -> int:
    g = _load_graph(args.graph)
    x = parse_element(g, args.element)
    dec = graded_components(x)
    if args.format == "json":
        print(
            _dump(
                {
                    "components": {
                        str(d): format_element(e) for d, e in dec.components
                    }
                }
            )
        )
    else:
        if not dec.components:
            print("0")
        for d, e in dec.components:
            print(f"{d}: {format_element(e)}")
    return 0


def _cmd_lambda_reduce(args) -> int:
    g = _load_graph(args.graph)
    gens = _load_ideal_arg(g, args.ideal)
    red = lambda_reduce(g, gens)
    if args.format == "json":
        print(_dump(reduction_to_json(red)))
    else:
        print(str(red))
    return 0


def _cmd_contains(args) -> int:
    g = _load_graph(args.graph)
    a = lambda_reduce(g, _load_ideal_arg(g, args.ideal_a))
    b = lambda_reduce(g, _load_ideal_arg(g, args.ideal_b))
    result = contains(g, a, b)
    if args.format == "json":
        print(_dump({"contains": result}))
    else:
        print("true" if result else "false")
    return 0


def _cmd_extract_vertex(args) -> int:
    g = _load_graph(args.graph)
    a = parse_element(g, args.element)
    w = extract_vertex(g, a)
    if args.format == "json":
        print(
            _dump(
                {
                    "vertex": w.vertex,
                    "scalar": str(w.scalar),
                    "left": [str(m) for m in w.left],
                    "right": [str(m) for m in w.right],
                }
            )
        )
    else:
        left = ", ".join(str(m) for m in w.left) or "-"
        right = ", ".join(str(m) for m in w.right) or "-"
        print(f"{w.scalar}*{w.vertex} via left [{left}] right [{right}]")
    return 0


def _cmd_nongraded_witness(args) -> int:
    g = _load_graph(args.graph)
    w = nongraded_witness(g)
    if args.format == "json":
        if w is None:
            print(_dump({"witness": None}))
        else:
            v, lam, gen = w
            print(
                _dump(
                    {
                        "witness": {
                            "vertex": v,
                            "cycle": list(lam.edges),
                            "generator": format_element(gen),
                        }
                    }
                )
            )
    else:
        if w is None:
            print("none")
        else:
            v, lam, gen = w
            print(f"({v}, ({lam}), {format_element(gen)})")
    return 0


def _cmd_count2(args) -> int:
    k = args.edges
    formula = twovertex.count_closed_form(k)
    if args.verify:
        oracle = len(twovertex.enumerate_up_to_iso(k))
        if formula != oracle:
            print(
                f"mismatch: {formula} (formula) != {oracle} (enumeration)",
                file=sys.stderr,
            )
            return 1
        if args.format == "json":
            print(_dump({"count": formula, "enumeration": oracle, "verified": True}))
        else:
            print(f"{formula} (formula) == {oracle} (enumeration)")
    else:
        if args.format == "json":
            print(_dump({"count": formula}))
        else:
            print(formula)
    return 0


def _cmd_enum2(args) -> int:
    shapes = twovertex.enumerate_up_to_iso(args.edges)
    if args.format == "json":
        print(_dump({"shapes": [list(s.astuple()) for s in shapes]}))
    else:
        for s in shapes:
            print("(%d,%d,%d,%d)" % s.astuple())
    return 0


def _cmd_classify2(args) -> int:
    g = _load_graph(args.graph)
    result = twovertex.classify(g)
    if args.format == "dot":
        print(result.skeleton.to_dot(), end="")
    elif args.format == "json":
        payload = {
            "class": result.label,
            "type": result.canonical.id,
            "shape": list(result.canonical.shape.astuple()),
        }
        if result.note:
            payload["note"] = result.note
        print(_dump(payload))
    else:
        line = f"class {result.label} (type [{result.canonical.id}])"
        if result.note:
            line += f"\nnote: {result.note}"
        print(line)
    return 0


def _add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=choices, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpa",
        description="Analyze Leavitt path algebras of finite directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text, graph=True, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        if graph:
            p.add_argument("--graph", required=True, help="graph file")
        _add_format(p, formats)
        p.set_defaults(fn=fn)
        return p

    cmd("check-k", _cmd_check_k, "test Condition (K)")

    p = cmd("classify-vertex", _cmd_classify_vertex, "K-classify one vertex")
    p.add_argument("--vertex", required=True)

    p = cmd("closure", _cmd_closure, "hereditary saturated closure of vertices")
    p.add_argument("--vertices", default="", help="comma-separated vertex names")

    cmd("hs-sets", _cmd_hs_sets, "all hereditary saturated sets")

    cmd(
        "graded-lattice",
        _cmd_graded_lattice,
        "lattice of graded ideals",
        formats=("text", "json", "dot"),
    )

    p = cmd("normalize", _cmd_normalize, "normal form of an element")
    p.add_argument("element")

    p = cmd("mul", _cmd_mul, "product of two elements")
    p.add_argument("left")
    p.add_argument("right")

    p = cmd("grade", _cmd_grade, "homogeneous components of an element")
    p.add_argument("element")

    p = cmd("lambda-reduce", _cmd_lambda_reduce, "canonical generating set of an ideal")
    p.add_argument("--ideal", required=True, help="ideal JSON (file or inline)")

    p = cmd("contains", _cmd_contains, "ideal containment (first inside second)")
    p.add_argument("ideal_a", help="ideal JSON (file or inline)")
    p.add_argument("ideal_b", help="ideal JSON (file or inline)")

    p = cmd("extract-vertex", _cmd_extract_vertex, "reduce an element to a vertex")
    p.add_argument("element")

    cmd("nongraded-witness", _cmd_nongraded_witness, "non-graded ideal generator, if any")

    p = cmd("count2", _cmd_count2, "count two-vertex graphs with k edges", graph=False)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="check formula against enumeration")

    p = cmd("enum2", _cmd_enum2, "enumerate two-vertex shapes with k edges", graph=False)
    p.add_argument("--edges", type=int, required=True)

    cmd(
        "classify2",
        _cmd_classify2,
        "ideal-lattice class of a two-vertex graph",
        formats=("text", "json", "dot"),
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LpaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
