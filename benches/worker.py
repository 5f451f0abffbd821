"""Benchmark worker: one caller running a workload's operations in a closed loop.

Loads only ``leavitt`` and the standard library, so its peak memory is the
program's.  Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src``:

    python3 benches/worker.py --workload W --seed N --mode setup
    python3 benches/worker.py --workload W --seed N --seconds S --mode run|trace

``setup`` prints ``READY`` once ``leavitt`` is imported and the inputs are
built, then exits.  ``run`` makes one untimed round whose outputs are sent
back for the oracle checks, then times whole rounds until ``--seconds`` have
passed; every timed output must equal the checked one.  ``trace`` times half
the budget untraced, then the same number of rounds with spans around the
layers' public functions.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from fractions import Fraction

import workloads
from leavitt import elements, graphs, ideals, twovertex


# --- operations -------------------------------------------------------------
#
# Each *_op function turns an operation dict into (call, serialize): ``call`` is the
# timed work, ``serialize`` turns its result into plain data outside the
# timed region.  Calls look functions up on their modules at call time, so
# the tracer's wrappers are seen.


def family_op(op):
    text, kind = op["graph"], op["kind"]
    parse = lambda: graphs.parse_graph(text)
    if kind == "condition_k":
        return lambda: graphs.condition_k(parse()), lambda r: [r[0], list(r[1])]
    if kind == "classify_vertex":
        v = op["vertex"]
        return (
            lambda: graphs.classify_vertex(parse(), v),
            lambda r: [r.kind, list(r.cycle.edges) if r.cycle else None],
        )
    if kind == "closure":
        start = op["start"]
        return lambda: graphs.hereditary_saturated_closure(parse(), start), lambda r: list(r.sorted_members())
    if kind == "hs_sets":
        return (
            lambda: graphs.all_hereditary_saturated_sets(parse()),
            lambda r: [list(s.sorted_members()) for s in r],
        )
    if kind == "lattice":
        def call():
            g = parse()
            return ideals.lattice_dot(g, ideals.graded_lattice(g))
        return call, lambda r: r
    if kind == "k1_cycles":
        return lambda: graphs.k1_cycles(parse()), lambda r: [list(c.edges) for c in r]
    if kind == "nongraded_witness":
        return (
            lambda: ideals.nongraded_witness(parse()),
            lambda r: r and [r[0], list(r[1].edges), elements.format_element(r[2])],
        )
    if kind == "lambda_reduce":
        def call():
            g = parse()
            return ideals.lambda_reduce(g, ideals.generator_set_from_json(g, op["ideal"]))
        return call, lambda r: ideals.reduction_to_json(r)
    if kind == "contains":
        def call():
            g = parse()
            a = ideals.lambda_reduce(g, ideals.generator_set_from_json(g, op["ideal_a"]))
            b = ideals.lambda_reduce(g, ideals.generator_set_from_json(g, op["ideal_b"]))
            return ideals.contains(g, a, b)
        return call, lambda r: r
    raise ValueError(f"unknown families operation {kind!r}")


class AlgebraInputs:
    """Shared graphs and pre-parsed elements, as a library user keeps them."""

    def __init__(self):
        self.graphs = {
            name: graphs.validate_graph(vs, es) for name, (vs, es) in workloads.ALGEBRA_GRAPHS.items()
        }
        self._parsed = {}

    def element(self, graph, text):
        key = (graph, text)
        if key not in self._parsed:
            self._parsed[key] = elements.parse_element(self.graphs[graph], text)
        return self._parsed[key]

    def raw(self, graph, terms):
        g = self.graphs[graph]
        return elements.Element.of(
            g, [(elements.monomial(g, alpha, beta), Fraction(c)) for alpha, beta, c in terms]
        )


def _fmt(x):
    return elements.format_element(x)


def algebra_op(op, inputs: AlgebraInputs):
    kind, name = op["kind"], op["graph"]
    g = inputs.graphs[name]
    el = lambda key: inputs.element(name, op[key])
    if kind in ("parse", "unit_sum"):
        text = op["text"]
        return lambda: elements.parse_element(g, text), _fmt
    if kind == "mul":
        x, y = el("x"), el("y")
        return lambda: elements.mul(x, y), _fmt
    if kind == "power":
        x, n = el("x"), op["n"]

        def call():
            y = x
            for _ in range(n - 1):
                y = elements.mul(y, x)
            return y
        return call, _fmt
    if kind == "mul_left":
        x, y, z = el("x"), el("y"), el("z")
        return lambda: elements.mul(elements.mul(x, y), z), _fmt
    if kind == "mul_right":
        x, y, z = el("x"), el("y"), el("z")
        return lambda: elements.mul(x, elements.mul(y, z)), _fmt
    if kind == "normalize":
        raw = inputs.raw(name, op["raw"])
        return lambda: elements.normalize(raw), _fmt
    if kind == "format":
        x = el("x")
        return lambda: elements.format_element(x), lambda r: r
    if kind == "graded":
        x = el("x")
        return (
            lambda: elements.graded_components(x),
            lambda r: {"components": [[d, _fmt(e)] for d, e in r.components], "whole": _fmt(x)},
        )
    if kind == "extract":
        x = el("x")
        return (
            lambda: ideals.extract_vertex(g, x),
            lambda w: [w.vertex, str(w.scalar), [str(m) for m in w.left], [str(m) for m in w.right]],
        )
    raise ValueError(f"unknown algebra operation {kind!r}")


def census_op(op):
    if op["kind"] == "enumerate":
        k = op["k"]
        return (
            lambda: (twovertex.count_closed_form(k), twovertex.enumerate_up_to_iso(k)),
            lambda r: [r[0], [list(s.astuple()) for s in r[1]]],
        )
    edges = [tuple(e) for e in op["edges"]]
    return (
        lambda: twovertex.classify(graphs.validate_graph(("u", "v"), edges)),
        lambda r: [r.label, r.canonical.id],
    )


def cli_op(op, directory):
    from leavitt import cli

    argv = [a.replace("{dir}", directory) for a in op["argv"]]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code:
            raise RuntimeError(f"lpa exited with {code}")
        return out.getvalue()
    return call, lambda r: r


def build(workload, seed, root):
    """Operation list as (call, serialize) pairs, plus a clean-up callback."""
    ops = workloads.operations(workload, seed)
    if workload == "families":
        return [family_op(op) for op in ops], None
    if workload == "algebra":
        inputs = AlgebraInputs()
        return [algebra_op(op, inputs) for op in ops], None
    if workload == "census":
        return [census_op(op) for op in ops], None
    directory = workloads.write_cli_files(seed, root)
    return [cli_op(op, directory) for op in ops], lambda: shutil.rmtree(directory, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = p.parse_args(argv)
    root = os.getcwd()

    ops, cleanup = build(args.workload, args.seed, root)
    try:
        if args.mode == "setup":
            print("READY", flush=True)
            return 0
        outputs, failures = workloads.check_round(ops)
        result = {"outputs": outputs, "check_failures": failures}
        if args.mode == "run":
            result["timed"] = workloads.summary(workloads.timed_rounds(ops, outputs, seconds=args.seconds))
        else:
            import spans

            plain = workloads.summary(workloads.timed_rounds(ops, outputs, seconds=args.seconds / 2))
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = workloads.timed_rounds(ops, outputs, rounds=plain["rounds"], tracer=tracer)
            finally:
                tracer.uninstall()
            result["timed"] = plain
            result["traced"] = workloads.summary(traced)
            result["layers"] = tracer.summary(plain["rounds"])
            result["spans_file"] = tracer.dump(
                os.path.join(root, ".bench_out", f"spans-{args.workload}-seed{args.seed}")
            )
        print(json.dumps(result))
    finally:
        if cleanup:
            cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
