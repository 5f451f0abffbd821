"""Seeded inputs for the benchmark workloads.

Standard library only: ``run.py`` (which loads the oracle
libraries) and the worker (which loads only ``leavitt``) both import this
module, and the same seed gives both the same operation list.

An operation is a dict with a ``kind`` and plain-data arguments.  Graphs are
carried as text in the ``lpa`` graph format, elements as text in the element
grammar, ideals as the JSON wire format.  One *round* is the whole list; a
run attempts whole rounds only, so the share of failing operations is the
same in every run.  The closed loop that times the rounds is here too, so
that in-process calls and ``lpa`` processes are timed by the same code.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import statistics
import time
from array import array

WORKLOADS = ("families", "algebra", "census", "cli")


# --- graph families ---------------------------------------------------------


def graph_text(vertices, edges) -> str:
    lines = ["vertices: " + " ".join(vertices)]
    lines += [f"edge {e}: {s} -> {r}" for e, s, r in edges]
    return "\n".join(lines) + "\n"


def shuffled(rng: random.Random, vertices, edges):
    """Same graph with the input order of vertices and edges permuted."""
    vs, es = list(vertices), list(edges)
    rng.shuffle(vs)
    rng.shuffle(es)
    return vs, es


def complete(n):
    vs = [f"v{i}" for i in range(n)]
    return vs, [(f"e{i}_{j}", vs[i], vs[j]) for i in range(n) for j in range(n) if i != j]


def path(n):
    vs = [f"v{i}" for i in range(n)]
    return vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]


def cycle(n):
    vs = [f"v{i}" for i in range(n)]
    return vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]


def isolated(n):
    return [f"v{i}" for i in range(n)], []


def loop_chains(chains, length):
    """Disjoint chains x_c_0 -> ... -> x_c_{L-1}, a loop at every vertex.

    Every vertex is K1: its loop is its only cycle and the chain edge leaving
    it never returns.
    """
    vs, es = [], []
    for c in range(chains):
        for i in range(length):
            vs.append(f"x{c}_{i}")
            es.append((f"l{c}_{i}", f"x{c}_{i}", f"x{c}_{i}"))
            if i:
                es.append((f"d{c}_{i}", f"x{c}_{i - 1}", f"x{c}_{i}"))
    return vs, es


def random_multigraph(rng: random.Random, n, m):
    vs = [f"v{i}" for i in range(n)]
    return vs, [(f"e{j}", rng.choice(vs), rng.choice(vs)) for j in range(m)]


def rose(k, pad=0):
    vs = ["v"] + [f"z{i}" for i in range(pad)]
    return vs, [(f"e{i + 1}", "v", "v") for i in range(k)]


def return_chain(m):
    """w -> c1 -> ... -> c_{m-1} -> w with two parallel edges at every step.

    Condition (K) holds; the closed simple paths at w number 2^m, all of
    length m, which is what the extraction search has to wade through.
    """
    seq = ["w"] + [f"c{i}" for i in range(1, m)] + ["w"]
    es = []
    for i in range(m):
        es.append((f"a{i}", seq[i], seq[i + 1]))
        es.append((f"b{i}", seq[i], seq[i + 1]))
    return seq[:-1], es


# --- cycle-polynomial ideals --------------------------------------------------

# Ascending coefficient lists with a nonzero constant term.
_FACTORS = (
    (-1, 1), (1, 1), (-2, 1), (2, 1), (3, 2), (1, 0, 1), (-1, 0, 1), (1, 1, 1),
)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def random_poly(rng: random.Random, factors=None):
    fs = factors if factors is not None else rng.sample(range(len(_FACTORS)), rng.randint(1, 3))
    p = [rng.choice((1, 2, -3))]
    for f in fs:
        p = _poly_mul(p, _FACTORS[f])
    return [str(c) for c in p], list(fs)


def random_ideal(rng: random.Random, chains, length, with_vertex):
    """Generators on a loop-chain forest: two polynomials on one loop and one
    on each of two more, plus a vertex at a chain's end when asked.

    The shape is fixed and the seed draws the loops and the polynomials, so
    the cost of a reduction varies little with the seed.
    """
    polys = []
    for n, c in zip((2, 1, 1), rng.sample(range(chains), 3)):
        i = rng.randrange(length)
        for _ in range(n):
            coeffs, _ = random_poly(rng)
            polys.append({"cycle": [f"l{c}_{i}"], "base": f"x{c}_{i}", "coeffs": coeffs})
    vertices = [f"x{rng.randrange(chains)}_{length - 1}"] if with_vertex else []
    return {"vertices": vertices, "polys": polys}


def ideal_pair(rng: random.Random, chains, length, with_vertex):
    """Two ideals with the same vertex generators and the same three loops.

    Each of b's polynomials is a product of some of the factors of a's on
    the same loop (so it often divides it) or a fresh random polynomial.
    """
    a_polys, b_polys = [], []
    for c in rng.sample(range(chains), 3):
        i = rng.randrange(length)
        coeffs, fs = random_poly(rng)
        a_polys.append({"cycle": [f"l{c}_{i}"], "base": f"x{c}_{i}", "coeffs": coeffs})
        if rng.random() < 0.7:
            sub = rng.sample(fs, rng.randint(1, len(fs)))
            b_coeffs, _ = random_poly(rng, sub)
        else:
            b_coeffs, _ = random_poly(rng)
        b_polys.append({"cycle": [f"l{c}_{i}"], "base": f"x{c}_{i}", "coeffs": b_coeffs})
    vertices = [f"x{rng.randrange(chains)}_{length - 1}"] if with_vertex else []
    return {"vertices": vertices, "polys": a_polys}, {"vertices": vertices, "polys": b_polys}


# --- elements -----------------------------------------------------------------


def random_coeff(rng: random.Random) -> str:
    return rng.choice(("1", "2", "3", "1/2", "-1", "-2", "5/3"))


def random_word(rng: random.Random, edges, lo, hi) -> str:
    """A product of real and ghost edges; in a rose every word composes."""
    factors = [rng.choice(edges) + rng.choice(("", "*'")) for _ in range(rng.randint(lo, hi))]
    return ".".join(factors)


def random_element(rng: random.Random, edges, terms, lo=1, hi=3) -> str:
    text = ""
    for i in range(terms):
        c = random_coeff(rng)
        body = f"{c.lstrip('-')}*{random_word(rng, edges, lo, hi)}"
        neg = c.startswith("-")
        text += (("-" if neg else "") if i == 0 else (" - " if neg else " + ")) + body
    return text


def matrix_unit(n, i, j) -> str:
    """E_ij = p_i.p_j*' in P_n, with p_i the path from v_i to the sink."""
    alpha = [f"e{t}" for t in range(i, n - 1)]
    beta = [f"e{t}*'" for t in reversed(range(j, n - 1))]
    return ".".join(alpha + beta) or f"v{n - 1}"


# --- workloads ------------------------------------------------------------------

FAMILY_RANDOM = 8   # random multigraphs per query kind and round
IDEAL_CHAINS, IDEAL_LENGTH = 4, 3
LONG_CYCLE = 1500   # condition_k fails here: recursive cycle search


def families(seed: int) -> list[dict]:
    """Graph- and ideal-layer queries on ladders of family sizes.

    Each family comes in several sizes, so operation costs form a ladder
    rather than a few far-apart values, which the latency quantiles would
    jump between.
    The seed permutes the input order of vertices and edges, picks start
    vertices where the cost does not depend on the choice, and draws the
    ideals and the small random multigraphs.
    """
    rng = random.Random(seed)

    def g(vs_es):
        return graph_text(*shuffled(rng, *vs_es))

    ops = []

    def op(kind, text, **kw):
        ops.append(dict(kind=kind, graph=text, **kw))

    chain = lambda n: loop_chains(1, n)
    ladders = {
        "condition_k": [(complete, (3, 4, 5, 6, 7)), (cycle, (50, 100, 150, 200)), (chain, (20, 40, 60))],
        "k1_cycles": [(chain, (10, 20, 30, 40)), (cycle, (10, 20, 30, 40, 50))],
        "nongraded_witness": [(chain, (10, 20, 30, 40)), (cycle, (20, 40, 60, 80, 100))],
        "hs_sets": [(path, range(8, 15)), (complete, (5, 6, 7, 8)), (isolated, range(6, 11))],
        "lattice": [(isolated, range(3, 8)), (path, range(6, 11))],
    }
    for kind, ladder in ladders.items():
        for make, sizes in ladder:
            for n in sizes:
                op(kind, g(make(n)), **({"family": make.__name__} if kind == "hs_sets" else {}))
    for n in (5, 6, 7):
        op("classify_vertex", g(complete(n)), vertex=f"v{rng.randrange(n)}")
    for n in (100, 200, 300):
        op("classify_vertex", g(cycle(n)), vertex=f"v{rng.randrange(n)}")
    for n in (20, 40, 60):
        op("classify_vertex", g(loop_chains(1, n)), vertex="x0_0")
    for n in (50, 100, 150, 200, 250, 300):
        op("closure", g(path(n)), start=[f"v{n - 1}"])
    for n in (5, 6, 7):
        op("closure", g(complete(n)), start=[f"v{rng.randrange(n)}"])

    for _ in range(FAMILY_RANDOM):
        op("condition_k", g(random_multigraph(rng, 6, 9)))
        op("classify_vertex", g(random_multigraph(rng, 6, 9)), vertex=f"v{rng.randrange(6)}")
        op("closure", g(random_multigraph(rng, 8, 10)), start=[f"v{rng.randrange(8)}"])

    chains = g(loop_chains(IDEAL_CHAINS, IDEAL_LENGTH))
    for i in range(12):
        op("lambda_reduce", chains, ideal=random_ideal(rng, IDEAL_CHAINS, IDEAL_LENGTH, i % 2))
    for i in range(12):
        a, b = ideal_pair(rng, IDEAL_CHAINS, IDEAL_LENGTH, i % 2)
        op("contains", chains, ideal_a=a, ideal_b=b)
    op("condition_k", graph_text(*cycle(LONG_CYCLE)))
    return ops


PAD = 500
P_N = 8
ALGEBRA_GRAPHS = {
    "R1": rose(1),
    "R3": rose(3),
    "R3pad": rose(3, PAD),
    "P": path(P_N),
    "chain8": return_chain(8),
    "chain10": return_chain(10),
    "chain12": return_chain(12),
}
R1_EDGES, R3_EDGES = ["e1"], ["e1", "e2", "e3"]


def algebra(seed: int) -> list[dict]:
    """Element-layer operations on a few shared graphs.

    Elements named in ``x``/``y``/``z`` are parsed once at set-up; only
    ``parse`` and ``unit_sum`` operations parse inside the timed call.
    Operations with a ``pair`` refer to the unpadded twin whose output must
    be byte-identical.
    """
    rng = random.Random(seed)
    ops = []

    def op(kind, graph, **kw):
        ops.append(dict(kind=kind, graph=graph, **kw))
        return len(ops) - 1

    for _ in range(3):
        op("parse", "R1", text=random_element(rng, R1_EDGES, 20, 1, 4))
    for _ in range(3):
        op("parse", "R3", text=random_element(rng, R3_EDGES, 12))
    for _ in range(10):
        op("mul", "R1", x=random_element(rng, R1_EDGES, 4, 1, 4), y=random_element(rng, R1_EDGES, 4, 1, 4))
    for i in range(10):
        x, y = power_base(rng, POWER_PATTERNS[i % 8]), power_base(rng, POWER_PATTERNS[(i + 3) % 8])
        twin = op("mul", "R3", x=x, y=y)
        op("mul", "R3pad", x=x, y=y, pair=twin)
    for _ in range(12):
        i, j, l = (rng.randrange(P_N) for _ in range(3))
        k = j if rng.random() < 0.5 else rng.randrange(P_N)
        op("mul", "P", x=matrix_unit(P_N, i, j), y=matrix_unit(P_N, k, l), units=[i, j, k, l])
    for pattern in POWER_PATTERNS:
        x = power_base(rng, pattern)
        twin = op("power", "R3", x=x, n=5)
        op("power", "R3pad", x=x, n=5, pair=twin)
    for _ in range(2):
        op("power", "R1", x=random_element(rng, R1_EDGES, 3, 1, 2), n=5)
    for i in range(4):
        x, y, z = (power_base(rng, POWER_PATTERNS[(2 * i + j) % 8]) for j in range(3))
        twin = op("mul_left", "R3", x=x, y=y, z=z)
        op("mul_right", "R3", x=x, y=y, z=z, pair=twin)
    for _ in range(6):
        op("normalize", "R3", raw=random_raw(rng, R3_EDGES, 6))
    for _ in range(2):
        op("normalize", "R1", raw=random_raw(rng, R1_EDGES, 6))
    for _ in range(4):
        op("format", "R3", x=random_element(rng, R3_EDGES, 10))
    for _ in range(2):
        op("format", "R1", x=random_element(rng, R1_EDGES, 10, 1, 4))
    for _ in range(6):
        op("graded", "R3", x=random_element(rng, R3_EDGES, 8))
    op("unit_sum", "P", text=" + ".join(matrix_unit(P_N, i, i) for i in rng.sample(range(P_N), P_N)))
    for graph, shapes in (("chain8", (0, 1)), ("chain10", (0, 1)), ("chain12", (0,))):
        for shape in shapes:
            op("extract", graph, x=extraction_input(rng, graph, shape))
    return ops


# Edge patterns (e, f, g, h) of the multiplied and powered R_3 elements.  The
# seed draws only their coefficients, which leave the number of terms of every
# product unchanged, so a slot costs the same under every seed.
POWER_PATTERNS = (
    ("e1", "e2", "e3", "e1"), ("e2", "e1", "e1", "e2"), ("e3", "e3", "e2", "e1"), ("e1", "e1", "e1", "e1"),
    ("e2", "e3", "e3", "e3"), ("e3", "e1", "e2", "e2"), ("e2", "e2", "e1", "e3"), ("e1", "e3", "e2", "e1"),
)


def power_base(rng: random.Random, pattern) -> str:
    """c1*e + c2*f*' - c3*g.h in R_3 for the edge pattern (e, f, g, h)."""
    e, f, g, h = pattern
    c1, c2, c3 = (random_coeff(rng).lstrip("-") for _ in range(3))
    return f"{c1}*{e} + {c2}*{f}*' - {c3}*{g}.{h}"


def random_raw(rng: random.Random, edges, terms):
    """Raw (alpha, beta, coeff) monomials in a rose, often with reducible turns."""
    out = []
    for _ in range(terms):
        tail = rng.choice(edges[:1] * 2 + edges)  # favour the special edge
        alpha = [rng.choice(edges) for _ in range(rng.randint(0, 2))] + [tail]
        beta = [rng.choice(edges) for _ in range(rng.randint(0, 2))] + [tail]
        out.append([alpha, beta, random_coeff(rng)])
    return out


def extraction_input(rng: random.Random, graph: str, shape: int) -> str:
    """An element with closed paths at w, so extraction needs two closed simple paths."""
    m = int(graph[len("chain"):])
    word = lambda: ".".join(f"{rng.choice('ab')}{i}" for i in range(m))
    if shape == 0:
        return f"{random_coeff(rng).lstrip('-')}*w + {word()}"
    return f"2*w - {word()} + 3*{word()}.{word()}"


def census_shapes(k: int) -> list[tuple[int, int, int, int]]:
    """(loops_u, loops_v, uv, vu) with k edges, one per vertex-swap orbit."""
    out = set()
    for lu, lv, uv in itertools.product(range(k + 1), repeat=3):
        vu = k - lu - lv - uv
        if vu >= 0:
            t = (lu, lv, uv, vu)
            out.add(max(t, (lv, lu, vu, uv)))
    return sorted(out, reverse=True)


CENSUS_MAX_EDGES = 12


def shape_edges(shape):
    lu, lv, uv, vu = shape
    return (
        [(f"p{i + 1}", "u", "u") for i in range(lu)]
        + [(f"q{i + 1}", "v", "v") for i in range(lv)]
        + [(f"a{i + 1}", "u", "v") for i in range(uv)]
        + [(f"b{i + 1}", "v", "u") for i in range(vu)]
    )


def swapped_copy(rng: random.Random, edges):
    """The same graph with u and v exchanged, edges renamed and reordered."""
    swap = {"u": "v", "v": "u"}
    es = [(s, r) for _, s, r in edges]
    rng.shuffle(es)
    return [(f"x{i}", swap[s], swap[r]) for i, (s, r) in enumerate(es)]


def census(seed: int) -> list[dict]:
    """Every shape for k <= 12 edges next to its swapped, reordered copy.

    The shape order is shuffled, so no size ordering is timed.
    """
    rng = random.Random(seed)
    shapes = [s for k in range(CENSUS_MAX_EDGES + 1) for s in census_shapes(k)]
    rng.shuffle(shapes)
    ops = [dict(kind="enumerate", k=k) for k in range(CENSUS_MAX_EDGES + 1)]
    for shape in shapes:
        edges = shape_edges(shape)
        ops.append(dict(kind="classify", shape=list(shape), edges=edges))
        ops.append(dict(kind="classify", shape=list(shape), edges=swapped_copy(rng, edges), pair=len(ops) - 1))
    return ops


def cli_files(seed: int) -> dict[str, str]:
    """Input files for the ``cli`` workload, by file name."""
    rng = random.Random(seed)
    shape = rng.choice(census_shapes(rng.randint(2, 6)))
    two = shape_edges(shape)
    a1, b1 = ideal_pair(rng, IDEAL_CHAINS, IDEAL_LENGTH, False)
    a2, b2 = ideal_pair(rng, IDEAL_CHAINS, IDEAL_LENGTH, True)
    return {
        "rand1.graph": graph_text(*random_multigraph(rng, 6, 9)),
        "rand2.graph": graph_text(*random_multigraph(rng, 6, 9)),
        "two.graph": graph_text(["u", "v"], two),
        "two_swapped.graph": graph_text(["u", "v"], swapped_copy(rng, two)),
        "r1.graph": graph_text(*rose(1)),
        "p.graph": graph_text(*path(P_N)),
        "chains.graph": graph_text(*shuffled(rng, *loop_chains(IDEAL_CHAINS, IDEAL_LENGTH))),
        "iso4.graph": graph_text(*shuffled(rng, *isolated(4))),
        "rand_lattice.graph": graph_text(*random_multigraph(rng, 5, 6)),
        "a1.json": json.dumps(a1),
        "b1.json": json.dumps(b1),
        "a2.json": json.dumps(a2),
        "b2.json": json.dumps(b2),
    }


def cli(seed: int) -> list[dict]:
    """``lpa`` command lines; ``{dir}`` stands for the input directory."""
    rng = random.Random(seed + 1)
    files = cli_files(seed)
    ops = []

    def op(kind, *argv, fmt="json", **kw):
        argv = [a if not a.endswith((".graph", ".json")) else "{dir}/" + a for a in argv]
        ops.append(dict(kind=kind, argv=[*argv, "--format", fmt], **kw))

    def ideal(name):
        return json.loads(files[name])

    for name in ("rand1.graph", "rand2.graph"):
        op("check-k", "check-k", "--graph", name, graph=files[name])
    op("classify2", "classify2", "--graph", "two.graph")
    op("classify2", "classify2", "--graph", "two_swapped.graph", pair=len(ops) - 1)
    # Four terms, so the texts contain spaces: argparse then takes one that
    # starts with "-" as a positional argument, not as an unknown option.
    x, y = (random_element(rng, R1_EDGES, 4, 1, 4) for _ in range(2))
    op("mul", "mul", "--graph", "r1.graph", x, y, graph="R1", x=x, y=y)
    i, j, l = (rng.randrange(P_N) for _ in range(3))
    op("mul", "mul", "--graph", "p.graph", matrix_unit(P_N, i, j), matrix_unit(P_N, j, l), graph="P", units=[i, j, j, l])
    for name in ("a1.json", "b2.json"):
        op("lambda_reduce", "lambda-reduce", "--graph", "chains.graph", "--ideal", name,
           graph=files["chains.graph"], ideal=ideal(name))
    for a, b in (("a1.json", "b1.json"), ("a2.json", "b2.json")):
        op("contains", "contains", "--graph", "chains.graph", a, b,
           graph=files["chains.graph"], ideal_a=ideal(a), ideal_b=ideal(b))
    for name in ("iso4.graph", "rand_lattice.graph"):
        op("lattice", "graded-lattice", "--graph", name, fmt="dot", graph=files[name])
    for k in (rng.randint(0, 6), rng.randint(7, CENSUS_MAX_EDGES)):
        op("count2", "count2", "--edges", str(k), "--verify", k=k)
    return ops


OPERATIONS = {"families": families, "algebra": algebra, "census": census, "cli": cli}


def operations(workload: str, seed: int) -> list[dict]:
    return OPERATIONS[workload](seed)


def write_cli_files(seed, root):
    """Write the ``cli`` input files to a fresh directory under ROOT/.bench_out."""
    directory = os.path.join(root, ".bench_out", f"cli-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    for name, text in cli_files(seed).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return directory


# --- the closed loop -----------------------------------------------------------


def check_round(ops):
    """One untimed round; it also warms caches, as a library user's first call does."""
    outputs, failures = [], {}
    for i, (call, serialize) in enumerate(ops):
        try:
            outputs.append(serialize(call()))
        except Exception as exc:  # counted, never hidden: run.py reports failures
            outputs.append(None)
            failures[i] = f"{type(exc).__name__}: {str(exc)[:200]}"
    return outputs, failures


MIN_OPS = 100  # so that at least ten latencies lie beyond p90


def timed_rounds(ops, expected, seconds=None, rounds=None, tracer=None, reference_each_op=False):
    """Whole rounds until ``seconds`` have passed and at least MIN_OPS
    operations have been timed (or exactly ``rounds``).

    ``latencies`` holds every operation's time in seconds, round after
    round, NaN where it raised.  ``refs`` holds the reference loop's time at
    every boundary between timed units, first and last included; a unit is a
    round, or an operation with ``reference_each_op``.  Both are flat arrays,
    so the bookkeeping adds little to the process's memory.  A ``tracer``
    records spans during the calls only, not while outputs are compared.
    """
    latencies, refs, failed, mismatched, done = array("d"), array("d", [reference_seconds()]), 0, 0, 0
    start = time.perf_counter()
    while True:
        for i, (call, serialize) in enumerate(ops):
            if tracer:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                result = call()
                elapsed = time.perf_counter() - t0
            except Exception:
                elapsed = math.nan
            if tracer:
                tracer.end_op()
            latencies.append(elapsed)
            if math.isnan(elapsed):
                failed += 1
            elif serialize(result) != expected[i]:
                mismatched += 1
            if reference_each_op:
                refs.append(reference_seconds())
        done += 1
        if not reference_each_op:
            refs.append(reference_seconds())
        if rounds is not None and done >= rounds:
            break
        if rounds is None and time.perf_counter() - start >= seconds and done * len(ops) >= MIN_OPS:
            break
    return {"rounds": done, "ops": len(ops), "latencies": latencies, "refs": refs,
            "per_op_refs": reference_each_op, "failed": failed, "mismatched": mismatched}


# --- nominal interpreter speed -----------------------------------------------------
#
# On a shared machine the same pure-Python loop runs 1.2 to 1.9 times slower
# from one second to the next, as neighbours load the CPU.  Every time the
# benchmark reports is therefore scaled to a nominal speed, at which the
# reference loop below takes REF_NOMINAL_S: a time t measured between
# reference times r0 and r1 is reported as t * REF_NOMINAL_S / ((r0 + r1) / 2).

REF_NOMINAL_S = 2.5e-3


def _reference_work():
    acc = {}
    for i in range(3000):
        key = (i % 97, str(i))
        acc[key] = acc.get(key, 0) + i
    return sorted(acc.items())[0]


def reference_seconds():
    """Best of three runs of a fixed pure-Python loop (dict, str, tuple, sort)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def nominal(seconds, ref_before, ref_after):
    """A time scaled to nominal interpreter speed by the references around it."""
    return seconds * REF_NOMINAL_S * 2 / (ref_before + ref_after)


def summary(timed):
    """Timing figures of a timed phase, at nominal speed, over completed operations."""
    refs, n = timed["refs"], timed["ops"]
    lat = sorted(
        nominal(t, refs[k], refs[k + 1])
        for j, t in enumerate(timed["latencies"])
        if not math.isnan(t)
        for k in [j if timed["per_op_refs"] else j // n]
    )
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "busy_s": sum(lat),
        "ref_median_s": statistics.median(refs),
        **{key: timed[key] for key in ("rounds", "failed", "mismatched")},
        "attempted": timed["rounds"] * n,
    }
