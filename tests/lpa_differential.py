"""Differential check of the ``lpa`` command line between two source trees.

Usage, from the root of a checkout::

    python tests/lpa_differential.py --base REV [--graphs N]

The ``src/`` of REV is extracted with ``git archive`` and compared with the
working tree's ``src/``.  One worker process per tree runs
``leavitt.cli.main`` in process for every argument list, every command of
``COMMANDS`` in every format it offers, and records stdout, stderr and the
exit code (a crash as its exception type and message).  The inputs are
drawn from a fixed seed: random multigraphs with at most six vertices,
loops and parallel edges, under shuffled names and order; every two-vertex
shape with at most six edges, and random ones beyond; elements built by
walks on each graph; ideal JSON on each graph's K1 cycles, which the
cycle-counting oracle of ``helpers`` finds, not ``k1_cycles``, so that a
change to the library does not change the inputs; with
fractional, decimal and padded coefficient texts and, now and then, two
polynomials of degree 20 to 60 with a planted common factor on one cycle,
or a ``contains`` pair whose divisor has a non-unit leading coefficient;
and some malformed arguments, with each command's ``--help``, a trailing
unknown option and an extra positional.  Each differing argument list is
printed with the fields that differ, and the exit status is 1 on any
difference, 0 otherwise.

It uses the standard library, ``git``, the working tree's ``leavitt`` and
``tests/helpers.py`` only, and is not collected by pytest.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEAD_SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HEAD_SRC)

from helpers import k1_cycles_by_cycle_count
from leavitt import validate_graph
from leavitt.cli import COMMANDS

SEED = 0

# Run by ``python -s -c WORKER SRC CASES RESULTS``: import ``leavitt`` from
# SRC, run every argument list of CASES, write the outcomes to RESULTS.
WORKER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from leavitt import cli
with open(sys.argv[2], encoding="utf-8") as fh:
    cases = json.load(fh)
results = []
for argv in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "crash: %s: %s" % (type(exc).__name__, exc)
    results.append([out.getvalue(), err.getvalue(), code])
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""

FIELDS = ("stdout", "stderr", "exit")  # of each outcome the worker records

VERTEX_NAMES = ["u", "v", "w", "x", "y", "z", "a1", "b_2", "_c", "V0", "node", "q"]
EDGE_NAMES = ["e", "f", "g", "h", "k", "m", "p", "r", "s", "t", "e1", "f_2", "loop", "E", "d"]


def random_graph(rng: random.Random) -> tuple[list[str], list[tuple[str, str, str]]]:
    """At most six vertices and twelve edges, names drawn and ordered at random."""
    n = rng.randint(1, 6)
    vertices = rng.sample(VERTEX_NAMES, n)
    m = rng.randint(0, min(12, 2 * n + 1))
    names = rng.sample(EDGE_NAMES, m)
    edges = [(name, rng.choice(vertices), rng.choice(vertices)) for name in names]
    return vertices, edges


def two_vertex_graph(counts: tuple[int, int, int, int], rng: random.Random):
    """A two-vertex graph of edge multiplicities (loops u, loops v, u->v, v->u),
    its vertex names swapped or renamed and its edges shuffled."""
    u, v = rng.sample(VERTEX_NAMES, 2) if rng.random() < 0.5 else ("u", "v")
    ends = [(u, u)] * counts[0] + [(v, v)] * counts[1] + [(u, v)] * counts[2] + [(v, u)] * counts[3]
    rng.shuffle(ends)
    names = [f"e{i}" for i in range(len(ends))]
    rng.shuffle(names)
    vertices = [u, v] if rng.random() < 0.5 else [v, u]
    return vertices, [(name, s, r) for name, (s, r) in zip(names, ends)]


def graph_text(vertices, edges, rng: random.Random) -> str:
    lines = ["vertices: " + " ".join(vertices)] + [f"edge {e}: {s} -> {r}" for e, s, r in edges]
    if rng.random() < 0.2:
        lines.insert(0, "# a comment")
        lines.append("")
    return "\n".join(lines) + "\n"


def word(vertices, edges, rng: random.Random) -> str:
    """A walk: real edges forward from a vertex, then ghost edges backward;
    now and then a factor that does not compose."""
    here = rng.choice(vertices)
    factors = []
    for _ in range(rng.randint(0, 2)):
        out = [e for e, s, _ in edges if s == here]
        if not out:
            break
        e = rng.choice(out)
        factors.append(e)
        here = next(r for name, _, r in edges if name == e)
    for _ in range(rng.randint(0, 2)):
        into = [e for e, _, r in edges if r == here]
        if not into:
            break
        e = rng.choice(into)
        factors.append(e + "*'")
        here = next(s for name, s, _ in edges if name == e)
    if rng.random() < 0.05 and edges:
        factors.append(rng.choice(edges)[0])
    return ".".join(factors) or here


def element(vertices, edges, rng: random.Random) -> str:
    terms = []
    for i in range(rng.randint(1, 3)):
        sign = rng.choice(["+ ", "- "]) if i else rng.choice(["", "", "", "-"])
        coeff = rng.choice(["", "", "2*", "1/2*", "3/4*", "10*", "1/3*", "5/6*", "7/12*", "100/7*",
                            "6/4*"])
        terms.append(sign + coeff + word(vertices, edges, rng))
    return " ".join(terms)


# JSON text of each coefficient: strings (fractions, one unreduced,
# decimals, and integers padded, signed or with leading zeros), integers, and
# numbers whose literal differs from their float (1e5 is 100000.0,
# 0.0000001 is 1e-07).
COEFFS = ['"1"', '"-1"', '"2"', '"0"', '"1/2"', '"-3/4"', '"0.25"', "1", "-2", "0.5", "3",
          "1e5", "1.5E2", "1e-5", "0.0000001", "1.0000000000000001", "0.50",
          '"1/3"', '"-5/6"', '"6/4"', '"-1.50"', '" 3 "', '"+3"', '"007"']


def ideal(vertices, cycles, rng: random.Random) -> str:
    """Ideal JSON text over the K1 ``cycles``, each a list of ``(edge,
    source)`` pairs, rotated and based at random."""
    parts = []
    if rng.random() < 0.5:
        named = rng.sample(vertices, rng.randint(0, min(2, len(vertices))))
        parts.append('"vertices": ' + json.dumps(named))
    polys = []
    for cycle in cycles:
        if rng.random() < 0.6:
            k = rng.randrange(len(cycle))
            entry = {"cycle": [e for e, _ in cycle[k:] + cycle[:k]]}
            if rng.random() < 0.5:
                entry["base"] = rng.choice(cycle)[1]
            coeffs = ", ".join(rng.choice(COEFFS) for _ in range(rng.randint(1, 4)))
            polys.append(json.dumps(entry)[:-1] + f', "coeffs": [{coeffs}]}}')
    if polys or rng.random() < 0.5:
        parts.append('"polys": [' + ", ".join(polys) + "]")
    if rng.random() < 0.04:
        parts.append(f'"{rng.choice(["extra", "polys"])}": "e"')  # a later "polys" wins
    return "{" + ", ".join(parts) + "}"


def _random_poly(degree: int, rng: random.Random) -> list[Fraction]:
    """Ascending coefficients p/q, |p| <= 9 and q <= 4, of exactly ``degree``."""
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    return cs + [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))]


def _times(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def planted_ideal(cycles, rng: random.Random) -> str:
    """Ideal JSON text with two polynomials on one of the K1 ``cycles``, each
    of degree 20 to 60, sharing a planted factor of degree 1 to 6."""
    cycle = rng.choice(cycles)
    factor = _random_poly(rng.randint(1, 6), rng)
    polys = []
    for _ in range(2):
        p = _times(_random_poly(rng.randint(20, 60) - len(factor) + 1, rng), factor)
        polys.append({"cycle": [e for e, _ in cycle], "coeffs": [str(c) for c in p]})
    return json.dumps({"polys": polys})


def inexact_pair(cycles, rng: random.Random) -> list[str]:
    """Two ideal JSON texts with one integer polynomial each on the same K1
    cycle: a divisor whose leading coefficient is 2, 3 or 5 and a dividend
    of degree 3 to 20 whose leading coefficient that one does not divide,
    so an exact trial division stops at its first step; or, now and then,
    the divisor times a cofactor, which it divides."""
    cycle = [e for e, _ in rng.choice(cycles)]
    lead = rng.choice((2, 3, 5))
    divisor = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [lead]
    if rng.random() < 0.25:
        cofactor = [rng.choice((-1, 1))] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        dividend = [int(c) for c in _times(divisor, cofactor + [1])]
    else:
        rest = [rng.randint(-9, 9) for _ in range(rng.randint(2, 19))]
        dividend = [rng.choice((-1, 1))] + rest + [rng.choice([n for n in range(-9, 10) if n % lead])]
    return [json.dumps({"polys": [{"cycle": cycle, "coeffs": cs}]}) for cs in (dividend, divisor)]


def graph_cases(path: str, vertices, edges, rng: random.Random) -> dict[str, list[list[str]]]:
    """Argument lists, without ``--format``, keyed by command."""
    g = ["--graph", path]
    el = lambda: element(vertices, edges, rng)
    source = {e: s for e, s, _ in edges}
    found = k1_cycles_by_cycle_count(validate_graph(vertices, edges))
    cycles = [[(e, source[e]) for e in c] for c in found]
    subset = lambda: ",".join(rng.sample(vertices, rng.randint(0, len(vertices))))
    planted = [planted_ideal(cycles, rng) for _ in range(2)] if cycles and rng.random() < 0.2 else []
    inexact = inexact_pair(cycles, rng) if cycles and rng.random() < 0.3 else []
    return {
        "check-k": [g],
        "classify-vertex": [g + ["--vertex", v] for v in vertices] + [g + ["--vertex", "nope"]],
        "closure": [g, g + ["--vertices", subset()], g + ["--vertices", subset() + ",nope"]],
        "hs-sets": [g],
        "graded-lattice": [g],
        "normalize": [g + [el()], g + ["--", el()]],
        "mul": [g + [el(), el()]],
        "grade": [g + [el()]],
        "lambda-reduce": [g + ["--ideal", ideal(vertices, cycles, rng)]]
        + [g + ["--ideal", text] for text in planted],
        "contains": [g + [ideal(vertices, cycles, rng), ideal(vertices, cycles, rng)]]
        + ([g + planted] if planted else [])
        + ([g + inexact, g + inexact[::-1]] if inexact else []),
        "extract-vertex": [g + [el()]],
        "nongraded-witness": [g],
        "classify2": [g],
    }


def build_cases(directory: str, graphs: int) -> list[list[str]]:
    commands = {cmd.name: cmd for cmd in COMMANDS}
    rng = random.Random(SEED)
    by_command: dict[str, list[list[str]]] = {name: [] for name in commands}
    inputs = [random_graph(rng) for _ in range(graphs)]
    shapes = [(a, b, c, d) for a in range(4) for b in range(4) for c in range(4) for d in range(4)]
    inputs += [two_vertex_graph(s, rng) for s in shapes if sum(s) <= 6]
    inputs += [two_vertex_graph(tuple(rng.randint(0, 5) for _ in range(4)), rng) for _ in range(40)]
    for i, (vertices, edges) in enumerate(inputs):
        path = os.path.join(directory, f"g{i}.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graph_text(vertices, edges, rng))
        for name, argvs in graph_cases(path, vertices, edges, rng).items():
            by_command[name] += argvs
    counts = [["--edges", str(k)] for k in range(-1, 11)] + [["--edges", "x"], []]
    by_command["count2"] = counts + [a + ["--verify"] for a in counts[:10]]
    by_command["enum2"] = counts
    missing = sorted(name for name, argvs in by_command.items() if not argvs)
    if missing:
        raise SystemExit(f"no inputs for commands {missing}: add them to graph_cases")
    missing_graph = os.path.join(directory, "missing.graph")
    cases = [[name, "--graph", missing_graph] for name, cmd in commands.items() if cmd.graph]
    cases += [[], ["nope"], ["check-k"], ["--help"]]
    for name, cmd in commands.items():
        formats = ("text", "json", "dot") if cmd.dot else ("text", "json")
        for argv in by_command[name]:
            cases += [[name, "--format", f, *argv] for f in formats]  # before any "--"
        first = by_command[name][0]
        cases += [[name, "--format", "yaml", *first], [name, "--help"],
                  [name, *first, "--bogus"], [name, *first, "extra"]]
    return cases


def extract(rev: str, directory: str) -> str:
    """The ``src/`` of a revision, unpacked under ``directory``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev, "src"], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(directory, filter="data")
        else:
            tar.extractall(directory)
    return os.path.join(directory, "src")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--base", required=True, help="revision to compare against")
    p.add_argument("--graphs", type=int, default=300, help="random multigraphs")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract(args.base, os.path.join(tmp, "base")), "head": HEAD_SRC}
        inputs = os.path.join(tmp, "inputs")
        os.mkdir(inputs)
        cases = build_cases(inputs, args.graphs)
        case_file = os.path.join(tmp, "cases.json")
        with open(case_file, "w", encoding="utf-8") as fh:
            json.dump(cases, fh)
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        workers = {}
        for side, src in trees.items():
            out = os.path.join(tmp, f"{side}.json")
            cmd = [sys.executable, "-s", "-c", WORKER, src, case_file, out]
            workers[side] = (subprocess.Popen(cmd, env=env), out)
        failed = [side for side, (proc, _) in workers.items() if proc.wait() != 0]
        if failed:
            print(f"error: the {' and '.join(failed)} worker failed", file=sys.stderr)
            return 2
        results = {}
        for side, (_, out) in workers.items():
            with open(out, encoding="utf-8") as fh:
                results[side] = json.load(fh)
    differences = 0
    for argv, base, head in zip(cases, results["base"], results["head"]):
        differing = [i for i in range(3) if base[i] != head[i]]
        if differing:
            differences += 1
            pick = lambda outcome: {FIELDS[i]: outcome[i] for i in differing}
            print(json.dumps({"argv": argv, "base": pick(base), "head": pick(head)}))
    print(f"{len(cases)} argument lists, {differences} differing", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
