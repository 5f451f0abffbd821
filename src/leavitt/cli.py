"""Command-line interface.

Every command is deterministic for fixed inputs and flags.  Text output is
human-oriented and may change between versions; JSON is the stable surface.
Exit codes: 0 success, 1 domain error, 2 usage error.

Commands live in one table, ``COMMANDS``.  Each entry names the command, its
help text and its own arguments, and holds a function that takes the parsed
``--graph`` (``None`` for commands without one) and the parsed arguments and
returns an :class:`Output`: the JSON payload, the text lines, and for the
commands that offer ``--format dot`` a DOT renderer.  Every command offers
``text`` and ``json``.  :func:`main` loads the graph, runs the command,
prints the chosen format, and maps library and file errors to exit 1.

The graph layer, which every other layer builds on, is imported here; each
command function imports the other layers it uses itself, so an ``lpa``
process loads only its own command's layers.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from .errors import DomainError, LpaError, ParseError
from .graphs import (
    Graph, all_hereditary_saturated_sets, classify_vertex, condition_k,
    hereditary_saturated_closure, parse_graph,
)


Output = namedtuple("Output", "payload lines dot", defaults=(None,))
Output.__doc__ = "What a command returns; ``dot`` is called only under ``--format dot``."


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _ideal(g: Graph, spec: str):
    """Reduced ideal of an argument given as inline JSON (starts with '{') or a file path."""
    from .ideals import generator_set_from_json, lambda_reduce
    text = spec if spec.lstrip().startswith("{") else _read_text(spec)
    return lambda_reduce(g, generator_set_from_json(g, text))


def _check_k(g, args):
    ok, offenders = condition_k(g)
    text = "true" if ok else f"false: K1 vertices [{', '.join(offenders)}]"
    return Output({"condition_k": ok, "k1_vertices": list(offenders)}, [text])


def _classify_vertex(g, args):
    vc = classify_vertex(g, args.vertex)
    if vc.cycle is None:
        return Output({"class": vc.kind}, [vc.kind])
    payload = {"class": vc.kind, "cycle": list(vc.cycle.edges)}
    return Output(payload, [f"{vc.kind} cycle ({vc.cycle})"])


def _closure(g, args):
    t = hereditary_saturated_closure(g, [v for v in args.vertices.split(",") if v])
    return Output({"closure": list(t.sorted_members())}, [str(t)])


def _hs_sets(g, args):
    sets = all_hereditary_saturated_sets(g)
    return Output({"sets": [list(s.sorted_members()) for s in sets]}, [str(s) for s in sets])


def _graded_lattice(g, args):
    from .ideals import graded_lattice, lattice_dot
    poset = graded_lattice(g)
    nodes, covers = poset.elements, poset.covers()
    members = [node.vertex_part.sorted_members() for node in nodes]
    payload = {"nodes": [list(ms) for ms in members], "covers": [list(c) for c in covers]}
    names = ["<" + (", ".join(ms) or "0") + ">" for ms in members]
    lines = names + [f"{names[i]} < {names[j]}" for i, j in covers]
    return Output(payload, lines, lambda: lattice_dot(g, poset))


def _normalize(g, args):
    from .elements import format_element, parse_element
    text = format_element(parse_element(g, args.element))
    return Output({"normal_form": text}, [text])


def _mul(g, args):
    from .elements import format_element, mul, parse_element
    text = format_element(mul(parse_element(g, args.left), parse_element(g, args.right)))
    return Output({"product": text}, [text])


def _grade(g, args):
    from .elements import format_element, graded_components, parse_element
    dec = graded_components(parse_element(g, args.element))
    parts = [(str(d), format_element(e)) for d, e in dec.components]
    return Output({"components": dict(parts)}, [f"{d}: {e}" for d, e in parts] or ["0"])


def _lambda_reduce(g, args):
    from .ideals import reduction_to_json
    red = _ideal(g, args.ideal)
    return Output(reduction_to_json(red), [str(red)])


def _contains(g, args):
    from .ideals import contains
    result = contains(g, _ideal(g, args.ideal_a), _ideal(g, args.ideal_b))
    return Output({"contains": result}, ["true" if result else "false"])


def _extract_vertex(g, args):
    from .elements import parse_element
    from .ideals import extract_vertex
    w = extract_vertex(g, parse_element(g, args.element))
    left, right = [str(m) for m in w.left], [str(m) for m in w.right]
    payload = {"vertex": w.vertex, "scalar": str(w.scalar), "left": left, "right": right}
    via = f"left [{', '.join(left) or '-'}] right [{', '.join(right) or '-'}]"
    return Output(payload, [f"{w.scalar}*{w.vertex} via {via}"])


def _nongraded_witness(g, args):
    from .elements import format_element
    from .ideals import nongraded_witness
    w = nongraded_witness(g)
    if w is None:
        return Output({"witness": None}, ["none"])
    v, lam, gen = w
    witness = {"vertex": v, "cycle": list(lam.edges), "generator": format_element(gen)}
    return Output({"witness": witness}, [f"({v}, ({lam}), {witness['generator']})"])


def _count2(g, args):
    from . import twovertex
    formula = twovertex.count_closed_form(args.edges)
    try:
        text = str(formula)
    except ValueError as exc:  # beyond the interpreter's int() digit limit
        raise DomainError(f"the count has more than {sys.get_int_max_str_digits()} digits") from exc
    if not args.verify:
        return Output({"count": formula}, [text])
    oracle = len(twovertex.enumerate_up_to_iso(args.edges))
    if formula != oracle:
        raise LpaError(f"mismatch: {formula} (formula) != {oracle} (enumeration)")
    payload = {"count": formula, "enumeration": oracle, "verified": True}
    return Output(payload, [f"{formula} (formula) == {oracle} (enumeration)"])


def _enum2(g, args):
    from . import twovertex
    shapes = [s.astuple() for s in twovertex.enumerate_up_to_iso(args.edges)]
    return Output({"shapes": [list(s) for s in shapes]}, ["(%d,%d,%d,%d)" % s for s in shapes])


def _classify2(g, args):
    from . import twovertex
    result = twovertex.classify(g)
    label, canonical = result.label, result.canonical
    payload = {"class": label, "type": canonical.id, "shape": list(canonical.shape.astuple())}
    lines = [f"class {label} (type [{canonical.id}])"]
    if result.note:
        payload["note"] = result.note
        lines.append(f"note: {result.note}")
    return Output(payload, lines, result.skeleton.to_dot)


Command = namedtuple("Command", "name help run arguments graph dot", defaults=((), True, False))
Command.__doc__ = """One command: ``run(graph, args)`` returns an :class:`Output`; ``arguments``
holds ``arg(...)`` tuples; with ``graph`` False, run gets None and there is no ``--graph``;
with ``dot`` True, ``--format dot`` is offered."""


def arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call of a command."""
    return flags, options


_IDEAL_HELP = "ideal JSON (file or inline)"
_DASHED = "; one that begins with '-' goes after --"  # else argparse reads it as an option
_ELEMENT_HELP, _IDEAL_ARG_HELP = "element expression" + _DASHED, _IDEAL_HELP + _DASHED
_ELEMENT = arg("element", help=_ELEMENT_HELP)
_EDGES = arg("--edges", type=int, required=True)
_VERIFY = arg("--verify", action="store_true", help="check formula against enumeration")

COMMANDS = (
    Command("check-k", "test Condition (K)", _check_k),
    Command("classify-vertex", "K-classify one vertex", _classify_vertex,
            (arg("--vertex", required=True),)),
    Command("closure", "hereditary saturated closure of vertices", _closure,
            (arg("--vertices", default="", help="comma-separated vertex names"),)),
    Command("hs-sets", "all hereditary saturated sets", _hs_sets),
    Command("graded-lattice", "lattice of graded ideals", _graded_lattice, dot=True),
    Command("normalize", "normal form of an element", _normalize, (_ELEMENT,)),
    Command("mul", "product of two elements", _mul,
            (arg("left", help=_ELEMENT_HELP), arg("right", help=_ELEMENT_HELP))),
    Command("grade", "homogeneous components of an element", _grade, (_ELEMENT,)),
    Command("lambda-reduce", "canonical generating set of an ideal", _lambda_reduce,
            (arg("--ideal", required=True, help=_IDEAL_HELP),)),
    Command("contains", "ideal containment (first inside second)", _contains,
            (arg("ideal_a", help=_IDEAL_ARG_HELP), arg("ideal_b", help=_IDEAL_ARG_HELP))),
    Command("extract-vertex", "reduce an element to a vertex", _extract_vertex, (_ELEMENT,)),
    Command("nongraded-witness", "non-graded ideal generator, if any", _nongraded_witness),
    Command("count2", "count two-vertex graphs with k edges", _count2,
            (_EDGES, _VERIFY), graph=False),
    Command("enum2", "enumerate two-vertex shapes with k edges", _enum2, (_EDGES,), graph=False),
    Command("classify2", "ideal-lattice class of a two-vertex graph", _classify2, dot=True),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpa",
        description="Analyze Leavitt path algebras of finite directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        if cmd.graph:
            p.add_argument("--graph", required=True, help="graph file")
        formats = ("text", "json", "dot") if cmd.dot else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        for flags, options in cmd.arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(cmd=cmd)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.cmd
    try:
        g = parse_graph(_read_text(args.graph)) if cmd.graph else None
        out = cmd.run(g, args)
        if args.format == "json":
            print(json.dumps(out.payload, indent=2, sort_keys=True))
        elif args.format == "dot":
            print(out.dot(), end="")
        else:
            print("\n".join(out.lines))
    except (LpaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
