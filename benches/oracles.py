"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``leavitt``.  The oracles are networkx strongly
connected components, sympy polynomial arithmetic, Laurent polynomials, the
matrix-unit rules of finite-dimensional Leavitt path algebras (Abrams,
Aranda Pino and Siles Molina, J. Pure Appl. Algebra 209, 2007), and the
benchmark's own predicates and enumerations.  ``check`` returns a list of
error strings; an empty list means every output passed.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import networkx as nx
import sympy

import workloads

# Per-class totals of the two-vertex census for k <= 12 edges.  The only
# figures copied from the program's output; ``run.py --census-totals``
# recomputes them.
CENSUS_TOTALS = {"I": 577, "II": 12, "III": 56, "IV": 10, "V": 175, "VI": 45, "VII": 37, "VIII": 11, "IX": 1}
LABELS = tuple(CENSUS_TOTALS)


# --- graphs -----------------------------------------------------------------


def parse_graph(text):
    """(vertices, [(edge, source, range)]) from the ``lpa`` graph format."""
    vertices, edges = [], []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("vertices:"):
            vertices = line[len("vertices:"):].split()
        elif line:
            m = re.fullmatch(r"edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", line)
            edges.append(m.groups())
    return vertices, edges


def k_classes(vertices, edges):
    """vertex -> (class, internal edges of its strongly connected component).

    K0 when the component has no internal edge, K1 when it has as many
    internal edges as vertices (it is one cycle), K2 otherwise.
    """
    g = nx.MultiDiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from((s, r) for _, s, r in edges)
    out = {}
    for comp in nx.strongly_connected_components(g):
        internal = [e for e, s, r in edges if s in comp and r in comp]
        kind = "K0" if not internal else "K1" if len(internal) == len(comp) else "K2"
        for v in comp:
            out[v] = (kind, internal)
    return out


def cycle_from(v, internal, edges):
    """The closed walk from v through a K1 component's edges."""
    src = {e: s for e, s, _ in edges}
    rng = {e: r for e, _, r in edges}
    by_src = {src[e]: e for e in internal}
    walk, here = [], v
    while True:
        e = by_src[here]
        walk.append(e)
        here = rng[e]
        if here == v:
            return walk


def k1_cycle_list(vertices, edges):
    """Distinct K1 cycles, each starting at its least edge, in edge order."""
    index = {e: i for i, (e, _, _) in enumerate(edges)}
    classes = k_classes(vertices, edges)
    src = {e: s for e, s, _ in edges}
    seen = {}
    for v in vertices:
        kind, internal = classes[v]
        if kind == "K1":
            first = min(internal, key=index.get)
            cyc = cycle_from(src[first], internal, edges)
            seen[tuple(index[e] for e in cyc)] = cyc
    return [seen[k] for k in sorted(seen)]


def closure(vertices, edges, start):
    """Least hereditary and saturated superset of ``start``."""
    out = {v: [] for v in vertices}
    for _, s, r in edges:
        out[s].append(r)
    s = set(start)
    changed = True
    while changed:
        changed = False
        for v in vertices:
            if v in s:
                new = [r for r in out[v] if r not in s]
                s.update(new)
                changed |= bool(new)
            elif out[v] and all(r in s for r in out[v]):
                s.add(v)
                changed = True
    return s


def is_hereditary_saturated(vertices, edges, s):
    return closure(vertices, edges, s) == set(s)


def hs_sets(vertices, edges):
    """All hereditary saturated sets by brute force, in (size, vertex order)."""
    return [
        [vertices[i] for i in combo]
        for size in range(len(vertices) + 1)
        for combo in combinations(range(len(vertices)), size)
        if is_hereditary_saturated(vertices, edges, [vertices[i] for i in combo])
    ]


def lattice_dot(vertices, edges):
    """Expected (labels, cover pairs) of the graded-ideal Hasse diagram."""
    sets = [frozenset(s) for s in hs_sets(vertices, edges)]
    order = {v: i for i, v in enumerate(vertices)}

    def label(s):
        if not s:
            return "0"
        if len(s) == len(vertices):
            return "L"
        return "{" + ",".join(sorted(s, key=order.get)) + "}"

    covers = []
    for i, a in enumerate(sets):
        above = [j for j, b in enumerate(sets) if a < b]
        covers += [(i, j) for j in above if not any(sets[k] < sets[j] for k in above)]
    return [label(s) for s in sets], sorted(covers)


def parse_dot(text):
    labels = re.findall(r'^  n(\d+) \[label="([^"]*)"\];$', text, re.M)
    arcs = re.findall(r"^  n(\d+) -> n(\d+);$", text, re.M)
    if [int(i) for i, _ in labels] != list(range(len(labels))):
        return None, None
    return [lab for _, lab in labels], [(int(a), int(b)) for a, b in arcs]


# --- elements -------------------------------------------------------------------

_TERM_RE = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*)?([A-Za-z0-9_.*']+)")


def terms(text):
    """[(coefficient, [factors])] of an element text; "0" has no terms."""
    if text.strip() == "0":
        return []
    out, pos = [], 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read term at {text[pos:pos + 20]!r}")
        sign = -1 if m.group(1) == "-" else 1
        out.append((sign * Fraction(m.group(2) or 1), m.group(3).split(".")))
        pos = m.end()
    return out


def word_degree(factors):
    """Real edges minus ghost edges; a vertex factor has degree 0."""
    return sum(-1 if f.endswith("*'") else 1 for f in factors if f[0] == "e")


def laurent(text):
    """Image in K[x, 1/x] of an R_1 element text (e -> x, e*' -> 1/x)."""
    acc = Counter()
    for c, factors in terms(text):
        acc[word_degree(factors)] += c
    return {k: c for k, c in acc.items() if c}


def laurent_text(poly):
    """Normal form text of a Laurent polynomial in R_1 (vertex v, loop e1).

    Terms run from the deepest ghost power to the highest real power.
    """
    if not poly:
        return "0"
    parts = []
    for k in sorted(poly, key=lambda k: (-abs(k), k) if k < 0 else (0, k)):
        c = poly[k]
        mono = "v" if k == 0 else ".".join(["e1"] * k if k > 0 else ["e1*'"] * -k)
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        parts.append((body if c > 0 else "-" + body) if not parts else ("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def laurent_mul(p, q):
    out = Counter()
    for a, c in p.items():
        for b, d in q.items():
            out[a + b] += c * d
    return {k: c for k, c in out.items() if c}


def split_monomial(factors):
    """(alpha, beta) paths of a normal-form monomial written alpha.(beta)*'."""
    if factors == ["v"]:
        return [], []
    real = [f for f in factors if not f.endswith("*'")]
    ghost = [f[:-2] for f in factors if f.endswith("*'")]
    if factors != real + [g + "*'" for g in ghost]:
        raise ValueError(f"ghost edge before a real edge in {'.'.join(factors)}")
    return real, ghost[::-1]


def rose_normal_form_errors(text, degrees=None):
    """Normal-form properties of an element of the rose R_3 (special edge e1).

    No term ends both paths in the special edge; terms are distinct, nonzero
    and sorted by (ghost degree desc, degree, alpha, beta); when ``degrees``
    is given, every term's degree lies in it.
    """
    errors, keys = [], []
    idx = lambda path: tuple(int(e[1:]) - 1 for e in path)
    for c, factors in terms(text):
        alpha, beta = split_monomial(factors)
        if c == 0:
            errors.append("zero coefficient")
        if alpha and beta and alpha[-1] == beta[-1] == "e1":
            errors.append(f"reducible turn in {'.'.join(factors)}")
        deg = len(alpha) - len(beta)
        if degrees is not None and deg not in degrees:
            errors.append(f"term {'.'.join(factors)} has degree {deg}, not in {sorted(degrees)}")
        keys.append((-len(beta), deg, idx(alpha), idx(beta)))
    if keys != sorted(set(keys)):
        errors.append("terms are not distinct and in canonical order")
    return errors


def degrees_of(text):
    return {word_degree(f) for _, f in terms(text)}


def sum_degrees(*degree_sets):
    out = {0}
    for ds in degree_sets:
        out = {a + b for a in out for b in ds}
    return out


# --- exact values of elements ----------------------------------------------------
#
# L(E) acts on the left of a Chen module: its basis is the paths u, each
# followed by one generic infinite tail.  A vertex keeps the paths that start
# at it, a real edge e prepends e where it composes, and a ghost e*' strips a
# leading e and kills every other path.  Let U be a set of paths with
# sum_{u in U} u.u*' = 1.  The vertices form one, and CK2 lets a path that
# ends at a vertex emitting edges be replaced by its one-edge extensions.
# Then a = sum_u a.u.u*', and a.u.u*' = (a . u).u*' once no ghost of a reads
# past the end of u.  Distinct paths times a fixed u*' are linearly
# independent, so a = b exactly when a . u = b . u for every u in U.  The
# comparison below finds U by refining each path a ghost reads past.
# For the rose R_3 this is the Chen module of words tail-equivalent to
# e1^oo, which is faithful because L(1, 3) is simple.


class _ReadsPastEnd(Exception):
    pass


def _act_factor(factor, vector, vertices, ends):
    """Image of a vector {(start vertex, path): coefficient} under one factor."""
    ghost = factor.endswith("*'")
    name = factor[:-2] if ghost else factor
    out = Counter()
    for (start, path), c in vector.items():
        if name in vertices:
            if start == name:
                out[(start, path)] += c
            continue
        s, r = ends[name]
        if not ghost:
            if start == r:
                out[(s, (name,) + path)] += c
        elif start == s:
            if not path:
                raise _ReadsPastEnd
            if path[0] == name:
                out[(r, path[1:])] += c
    return out


def _act(product, u, vertices, ends):
    """Image of the path u under a product of elements, each a list of (coefficient, factors)."""
    vector = Counter({u: Fraction(1)})
    for element in reversed(product):
        total = Counter()
        for c, factors in element:
            part = vector
            for f in reversed(factors):
                if not part:
                    break
                part = _act_factor(f, part, vertices, ends)
            for key, d in part.items():
                total[key] += c * d
        vector = total
    return {key: c for key, c in vector.items() if c}


def value_differs(graph, lhs, rhs, max_depth=16):
    """A path on which two products of elements act differently, or None if they are equal.

    ``graph`` names an entry of ``workloads.ALGEBRA_GRAPHS``; ``lhs`` and
    ``rhs`` are lists of element texts or of term lists, leftmost factor first.
    """
    vertices, edges = workloads.ALGEBRA_GRAPHS[graph]
    vertices = set(vertices)
    ends = {e: (s, r) for e, s, r in edges}
    out_edges = {v: [] for v in vertices}
    for e, s, _ in edges:
        out_edges[s].append(e)
    lhs, rhs = ([terms(x) if isinstance(x, str) else x for x in side] for side in (lhs, rhs))
    for element in lhs + rhs:
        for _, factors in element:
            for f in factors:
                if (f[:-2] not in ends) if f.endswith("*'") else (f not in ends and f not in vertices):
                    raise ValueError(f"unknown factor {f!r}")
    stack = [(v, ()) for v in sorted(vertices)]
    while stack:
        u = stack.pop()
        try:
            if _act(lhs, u, vertices, ends) != _act(rhs, u, vertices, ends):
                return u
        except _ReadsPastEnd:
            start, path = u
            if len(path) >= max_depth:
                raise ValueError(f"a ghost reads more than {max_depth} edges deep")
            stack += [(start, path + (e,)) for e in out_edges[ends[path[-1]][1] if path else start]]
    return None


def value_errors(graph, out, product):
    """Errors when the output text is not the value of the product of elements."""
    try:
        u = value_differs(graph, [out], product)
    except ValueError as exc:
        return [f"cannot evaluate: {exc}"]
    if u is None:
        return []
    return [f"{out!r:.80} acts differently from the expected value on the path {'.'.join(u[1]) or u[0]}"]


def matrix_unit_product(n, i, j, k, l):
    """Normal form of E_ij.E_kl = delta_jk E_il in the path algebra P_n."""
    if j != k:
        return "0"
    if i == l:
        return f"v{i}"
    if i < l:
        return ".".join(f"e{t}" for t in range(i, l))
    return ".".join(f"e{t}*'" for t in reversed(range(l, i)))


# --- cycle-polynomial ideals ----------------------------------------------------

X = sympy.Symbol("x")


def _poly(coeffs):
    return sympy.Poly([sympy.Rational(str(c)) for c in reversed(coeffs)], X, domain="QQ")


def _coeff_strings(p):
    return [str(Fraction(int(c.p), int(c.q))) for c in reversed(p.all_coeffs())]


def reduce_ideal(vertices, edges, ideal):
    """Canonical generating data of a loop-forest ideal, with sympy gcds.

    Returns (vertex part as a set, {cycle edges: (base, monic sympy Poly)}).
    """
    cyc_src = {e: s for e, s, _ in edges}
    by_cycle = {}
    for p in ideal["polys"]:
        key = tuple(p["cycle"])
        q = _poly(p["coeffs"])
        by_cycle[key] = sympy.gcd(by_cycle[key], q) if key in by_cycle else q
    part = set(ideal["vertices"])
    surviving = {}
    for key, q in by_cycle.items():
        q = q.monic()
        if q.degree() == 0:
            part.add(cyc_src[key[0]])
        else:
            surviving[key] = q
    while True:
        sources = lambda key: {cyc_src[e] for e in key}
        exits = {r for key in surviving for e, s, r in edges if s in sources(key) and e not in key}
        part = closure(vertices, edges, part | exits)
        dropped = [key for key in surviving if sources(key) & part]
        if not dropped:
            return part, surviving
        for key in dropped:
            del surviving[key]


def reduction_json(vertices, edges, ideal):
    part, polys = reduce_ideal(vertices, edges, ideal)
    index = {e: i for i, (e, _, _) in enumerate(edges)}
    src = {e: s for e, s, _ in edges}
    return {
        "vertices": [v for v in vertices if v in part],
        "polys": [
            {"cycle": list(key), "base": src[key[0]], "coeffs": _coeff_strings(polys[key])}
            for key in sorted(polys, key=lambda key: [index[e] for e in key])
        ],
    }


def containment(vertices, edges, ideal_a, ideal_b):
    """True/False where the vertex parts agree, None where they differ.

    With equal vertex parts, containment is per-cycle divisibility of b's
    polynomial into a's, a missing polynomial acting as zero.
    """
    part_a, pa = reduce_ideal(vertices, edges, ideal_a)
    part_b, pb = reduce_ideal(vertices, edges, ideal_b)
    if part_a != part_b:
        return None
    zero = sympy.Poly(0, X, domain="QQ")
    for key in set(pa) | set(pb):
        a, b = pa.get(key, zero), pb.get(key, zero)
        if b.is_zero:
            if not a.is_zero:
                return False
        elif not a.rem(b).is_zero:
            return False
    return True


# --- per-operation checks ----------------------------------------------------------


def _graph_checks(kind, op, out):
    vertices, edges = parse_graph(op["graph"])
    if kind == "condition_k":
        classes = k_classes(vertices, edges)
        k1 = [v for v in vertices if classes[v][0] == "K1"]
        return [] if out == [not k1, k1] else [f"condition_k {out!r:.120} != {[not k1, k1]!r:.120}"]
    if kind == "classify_vertex":
        v = op["vertex"]
        want, internal = k_classes(vertices, edges)[v]
        if out[0] != want:
            return [f"class of {v} is {out[0]}, want {want}"]
        if want == "K1" and out[1] != cycle_from(v, internal, edges):
            return [f"cycle of {v} is {out[1]}"]
        return []
    if kind == "closure":
        want = closure(vertices, edges, op["start"])
        order = [v for v in vertices if v in want]
        return [] if out == order else [f"closure {out} != {order}"]
    if kind == "hs_sets":
        errors = [f"{s} is not hereditary saturated" for s in out if not is_hereditary_saturated(vertices, edges, s)]
        n = len(vertices)
        closed_form = {"path": 2, "complete": 2, "isolated": 2 ** n}.get(op["family"])
        if closed_form is not None and len(out) != closed_form:
            errors.append(f"{len(out)} sets, closed form {closed_form}")
        order = {v: i for i, v in enumerate(vertices)}
        keys = [(len(s), [order[v] for v in s]) for s in out]
        if keys != sorted(keys) or len({tuple(s) for s in out}) != len(out):
            errors.append("sets not distinct and in (size, vertex order)")
        if closed_form is None and out != hs_sets(vertices, edges):
            errors.append("sets differ from brute-force enumeration")
        return errors
    if kind == "lattice":
        got = parse_dot(out)
        return [] if got == lattice_dot(vertices, edges) else ["Hasse diagram differs from the cover relation"]
    if kind == "k1_cycles":
        want = k1_cycle_list(vertices, edges)
        return [] if out == want else [f"k1 cycles {out} != {want}"]
    if kind == "nongraded_witness":
        classes = k_classes(vertices, edges)
        k1 = [v for v in vertices if classes[v][0] == "K1"]
        if not k1:
            return [] if out is None else [f"witness {out} on a graph satisfying Condition (K)"]
        v = k1[0]
        cyc = cycle_from(v, classes[v][1], edges)
        want = [v, cyc, f"{v} + {'.'.join(cyc)}"]
        return [] if out == want else [f"witness {out} != {want}"]
    if kind == "lambda_reduce":
        want = reduction_json(vertices, edges, op["ideal"])
        return [] if out == want else [f"reduction {out} != {want}"]
    if kind == "contains":
        want = containment(vertices, edges, op["ideal_a"], op["ideal_b"])
        if want is None:
            a, _ = reduce_ideal(vertices, edges, op["ideal_a"])
            b, _ = reduce_ideal(vertices, edges, op["ideal_b"])
            return [] if not out or a <= b else ["contains with a larger vertex part"]
        return [] if out == want else [f"contains {out}, sympy divisibility says {want}"]
    raise KeyError(kind)


def _element_checks(op, out, outputs):
    kind, graph = op["kind"], op["graph"]
    errors = []
    if "pair" in op and out != outputs[op["pair"]]:
        errors.append(f"{kind} differs from its twin operation {op['pair']}")
    if kind == "extract":
        vertex, scalar, left, right = out
        if Fraction(scalar) == 0 or vertex not in workloads.ALGEBRA_GRAPHS[graph][0]:
            return errors + [f"extraction witness {out!r:.120} is not a nonzero vertex multiple"]
        monomials = lambda ms: [[(Fraction(1), m.split("."))] for m in ms]
        product = monomials(reversed(left)) + [op["x"]] + monomials(right)
        return errors + value_errors(graph, f"{scalar}*{vertex}", product)
    if kind == "graded":
        whole = terms(out["whole"])
        comps = out["components"]
        if [d for d, _ in comps] != sorted({d for d, _ in comps}):
            errors.append("component degrees not ascending")
        for d, text in comps:
            if degrees_of(text) != {d}:
                errors.append(f"component {d} is not homogeneous of degree {d}")
        flat = sorted((str(c), f) for _, text in comps for c, f in terms(text))
        if flat != sorted((str(c), f) for c, f in whole):
            errors.append("components do not sum to the element")
        return errors + rose_normal_form_errors(out["whole"]) + value_errors(graph, out["whole"], [op["x"]])
    if graph == "R1":
        if kind == "normalize":
            want = Counter()
            for alpha, beta, c in op["raw"]:
                want[len(alpha) - len(beta)] += Fraction(c)
            want = {k: c for k, c in want.items() if c}
        elif kind in ("parse", "format"):
            want = laurent(op.get("text") or op["x"])
        elif kind == "mul":
            want = laurent_mul(laurent(op["x"]), laurent(op["y"]))
        elif kind == "power":
            want = {0: Fraction(1)}
            for _ in range(op["n"]):
                want = laurent_mul(want, laurent(op["x"]))
        else:
            raise KeyError(kind)
        expected = laurent_text(want)
        return errors + ([] if out == expected else [f"R1 {kind}: {out!r:.80} != Laurent {expected!r:.80}"])
    if graph == "P":
        n = workloads.P_N
        expected = (" + ".join(f"v{i}" for i in range(n)) if kind == "unit_sum"
                    else matrix_unit_product(n, *op["units"]))
        return errors + ([] if out == expected else [f"matrix units {op.get('units')}: {out!r} != {expected!r}"])
    if kind == "normalize":
        product = [[(Fraction(c), alpha + [b + "*'" for b in reversed(beta)]) for alpha, beta, c in op["raw"]]]
        degrees = {len(a) - len(b) for a, b, _ in op["raw"]}
    else:
        keys = ["x"] * op["n"] if kind == "power" else {
            "mul": ["x", "y"], "mul_left": ["x", "y", "z"], "mul_right": ["x", "y", "z"], "parse": ["text"],
            "format": ["x"]}[kind]
        product = [op[key] for key in keys]
        degrees = sum_degrees(*map(degrees_of, product))
    return errors + rose_normal_form_errors(out, degrees) + value_errors(graph, out, product)


def _census_checks(ops, outputs):
    errors, totals = [], Counter()
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        if op["kind"] == "enumerate":
            shapes = [list(s) for s in workloads.census_shapes(op["k"])]
            if out[1] != shapes:
                errors.append(f"k={op['k']}: enumeration differs from the 4-tuples up to swap")
            if out[0] != len(shapes):
                errors.append(f"k={op['k']}: closed form {out[0]} != {len(shapes)} shapes")
        elif "pair" in op:
            if out != outputs[op["pair"]]:
                errors.append(f"shape {op['shape']}: swapped copy classified {out}, original {outputs[op['pair']]}")
        else:
            if out[0] not in LABELS:
                errors.append(f"unknown class {out[0]}")
            totals[out[0]] += 1
    if dict(totals) != CENSUS_TOTALS:
        errors.append(f"census totals {dict(totals)} != {CENSUS_TOTALS}")
    return errors


def _cli_checks(op, out, outputs):
    kind = op["kind"]
    if kind == "lattice":
        return _graph_checks("lattice", op, out)
    data = json.loads(out)
    if kind == "check-k":
        return _graph_checks("condition_k", op, [data["condition_k"], data["k1_vertices"]])
    if kind == "classify2":
        errors = [] if data["class"] in LABELS else [f"unknown class {data['class']}"]
        if "pair" in op and data != json.loads(outputs[op["pair"]]):
            errors.append("swapped copy classified differently")
        return errors
    if kind == "mul":
        return _element_checks(dict(op, kind="mul"), data["product"], outputs)
    if kind == "lambda_reduce":
        return _graph_checks("lambda_reduce", op, data)
    if kind == "contains":
        return _graph_checks("contains", op, data["contains"])
    if kind == "count2":
        n = len(workloads.census_shapes(op["k"]))
        return [] if data == {"count": n, "enumeration": n, "verified": True} else [f"count2 {data} != {n}"]
    raise KeyError(kind)


def check(workload, ops, outputs):
    """Errors found in one round of outputs; failed operations (None) are skipped."""
    if workload == "census":
        return _census_checks(ops, outputs)
    errors = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        if workload == "families":
            found = _graph_checks(op["kind"], op, out)
        elif workload == "algebra":
            found = _element_checks(op, out, outputs)
        else:
            found = _cli_checks(op, out, outputs)
        errors += [f"{workload} op {i} ({op['kind']}): {e}" for e in found]
    return errors
