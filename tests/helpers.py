"""Shared fixture graphs and random-value generators for the test suite."""

from __future__ import annotations

import json
import random
import re
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator

import networkx as nx

from leavitt import (
    CanonicalForm16,
    Cycle,
    CyclePolynomial,
    DomainError,
    Element,
    Graph,
    GraphError,
    HeredSatSet,
    LambdaGeneratorSet,
    LambdaReduction,
    Monomial,
    LpaError,
    ParseError,
    Path,
    QPoly,
    TwoVertexShape,
    VertexClass,
    classify_vertex,
    exit_range,
    hereditary_saturated_closure,
    k1_cycles,
    monomial,
    normalize,
    validate_graph,
)
from leavitt.graphs import _close, _closed_sets, _index, lattice_label
from leavitt.twovertex import SkeletonFamily
from leavitt.twovertex import _CLASS_OF_TYPE, _ID_BY_SHAPE, _SHAPES_16

# Small named graphs used throughout.  Vertex/edge order is significant.
R1 = validate_graph(["v"], [("e", "v", "v")])
R2 = validate_graph(["v"], [("e", "v", "v"), ("f", "v", "v")])
L2 = validate_graph(["u", "v"], [("a", "u", "v")])  # type [2]
C2 = validate_graph(["u", "v"], [("g", "u", "v"), ("h", "v", "u")])
G1 = validate_graph(["u", "v"], [])  # type [1]
G4 = validate_graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")])
G8 = validate_graph(["u", "v"], [("p", "u", "u"), ("a", "u", "v"), ("b", "v", "u")])
G5 = validate_graph(["u", "v"], [("e", "u", "u")])
G6 = validate_graph(["u", "v"], [("e", "u", "u"), ("a", "u", "v")])
G7 = validate_graph(["u", "v"], [("e", "u", "u"), ("d", "v", "u")])
E38 = validate_graph(
    ["u", "v", "w"],
    [("e", "v", "v"), ("f", "w", "w"), ("a", "u", "v"), ("b", "u", "w"), ("c", "v", "w")],
)

ALL_FIXTURES = {
    "R1": R1,
    "R2": R2,
    "L2": L2,
    "C2": C2,
    "G1": G1,
    "G4": G4,
    "G8": G8,
    "G5": G5,
    "G6": G6,
    "G7": G7,
    "E38": E38,
}

# Graphs satisfying / failing Condition (K).
CONDITION_K = {"R2": R2, "L2": L2, "G1": G1, "G4": G4, "G8": G8}
NOT_CONDITION_K = {"R1": R1, "G5": G5, "G6": G6, "G7": G7, "C2": C2}

COEFFS = [Fraction(c) for c in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2),
    Fraction(-3, 2),
]


def coprime_pair(degree: int, seed: int = 0) -> tuple[list[int], list[int]]:
    """Ascending integer coefficients of two coprime polynomials of ``degree``.

    The first is Eisenstein at 3 (monic, lower coefficients divisible by 3,
    constant not by 9), hence irreducible over Q.  The second has the same
    degree and constant term 1, so it is no multiple of the first, and the
    two are coprime.  Their coefficients are otherwise random, so a gcd
    computation sees a generic remainder sequence.
    """
    rng = random.Random(seed)
    p = [3 * rng.choice((-2, -1, 1, 2))]
    p += [3 * rng.randint(-3, 3) for _ in range(degree - 1)] + [1]
    q = [1] + [rng.randint(-9, 9) for _ in range(degree - 1)] + [rng.choice((-2, -1, 1, 2))]
    return p, q


def serialize_graph(g: Graph) -> str:
    """Inverse of ``parse_graph``; output is byte-deterministic."""
    lines = ["vertices: " + " ".join(g.vertices)]
    for e, (s, r) in zip(g.edges, g.ends):
        lines.append(f"edge {e}: {s} -> {r}")
    return "\n".join(lines) + "\n"


def out_edge_map(g: Graph) -> dict[str, list[str]]:
    """The edges leaving each vertex, in input order, scanned from ``g.ends``.

    The oracles and generators below walk this map, not the graph's own
    adjacency, so a fault in the library's index cannot reach both sides of
    a check.
    """
    out: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e, (s, _) in zip(g.edges, g.ends):
        out[s].append(e)
    return out


def reach_by_scan(g: Graph, v: str) -> frozenset[str]:
    """Vertices reachable from v (v included), by a search over :func:`out_edge_map`."""
    out = out_edge_map(g)
    seen, todo = {v}, [v]
    while todo:
        for e in out[todo.pop()]:
            r = g.rng(e)
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return frozenset(seen)


def paths_up_to(g: Graph, max_len: int) -> list[tuple[str, tuple[str, ...]]]:
    """All (base, edges) paths with at most max_len edges, in a fixed order."""
    out_edges = out_edge_map(g)
    out = [(v, ()) for v in g.vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for base, edges in frontier:
            here = g.rng(edges[-1]) if edges else base
            for e in out_edges[here]:
                nxt.append((base, edges + (e,)))
        out.extend(nxt)
        frontier = nxt
    return out


def paths_by_range(g: Graph, max_len: int) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    table: dict[str, list] = {v: [] for v in g.vertices}
    for base, edges in paths_up_to(g, max_len):
        rng_v = g.rng(edges[-1]) if edges else base
        table[rng_v].append((base, edges))
    return table


def random_monomial(g: Graph, rng: random.Random, table) -> "object":
    w = rng.choice([v for v in g.vertices if table[v]])
    _, alpha = rng.choice(table[w])
    _, beta = rng.choice(table[w])
    return monomial(g, alpha, beta, at=w)


def random_element(
    g: Graph,
    rng: random.Random,
    max_terms: int = 3,
    max_len: int = 2,
    table=None,
) -> Element:
    """Random nonzero normalized element with small paths and coefficients."""
    if table is None:
        table = paths_by_range(g, max_len)
    for _ in range(50):
        n = rng.randint(1, max_terms)
        items = [(random_monomial(g, rng, table), rng.choice(COEFFS)) for _ in range(n)]
        x = normalize(Element.of(g, items))
        if not x.is_zero:
            return x
    raise AssertionError("could not generate a nonzero element")


def random_homogeneous(
    g: Graph,
    rng: random.Random,
    max_terms: int = 3,
    max_len: int = 2,
    table=None,
) -> Element:
    """Random nonzero homogeneous element."""
    if table is None:
        table = paths_by_range(g, max_len)
    for _ in range(100):
        w = rng.choice([v for v in g.vertices if table[v]])
        _, alpha0 = rng.choice(table[w])
        _, beta0 = rng.choice(table[w])
        d = len(alpha0) - len(beta0)
        items = [(monomial(g, alpha0, beta0, at=w), rng.choice(COEFFS))]
        for _ in range(rng.randint(0, max_terms - 1)):
            ww = rng.choice([v for v in g.vertices if table[v]])
            pool = [
                (a, b)
                for _, a in table[ww]
                for _, b in table[ww]
                if len(a) - len(b) == d
            ]
            if pool:
                a, b = rng.choice(pool)
                items.append((monomial(g, a, b, at=ww), rng.choice(COEFFS)))
        x = normalize(Element.of(g, items))
        if not x.is_zero:
            return x
    raise AssertionError("could not generate a nonzero homogeneous element")


# --- retired library enumerators, kept as oracles --------------------------------
#
# The library once answered these questions by exhaustive enumeration; the
# code below is that enumeration, unchanged in substance, so the polynomial
# algorithms can be checked against it on small graphs.


def _is_hereditary(g: Graph, out: dict, s: frozenset[str]) -> bool:
    return all(g.rng(e) in s for v in s for e in out[v])


def _is_saturated(g: Graph, out: dict, s: frozenset[str]) -> bool:
    for v in g.vertices:
        if out[v] and v not in s and all(g.rng(e) in s for e in out[v]):
            return False
    return True


def _hs_subsets(g: Graph):
    """(vertex ids, names) of every hereditary saturated subset, by testing
    all vertex subsets in (size, vertex order)."""
    out = out_edge_map(g)
    n = len(g.vertices)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(g.vertices[i] for i in combo)
            if _is_hereditary(g, out, s) and _is_saturated(g, out, s):
                yield combo, s


def hs_sets_by_brute_force(g: Graph) -> tuple[HeredSatSet, ...]:
    """Every hereditary saturated subset in (size, vertex order), its mask
    set bit by bit from the subset's vertex ids."""
    return tuple(HeredSatSet(g, sum(1 << i for i in combo)) for combo, _ in _hs_subsets(g))


def hs_subsets_by_brute_force(g: Graph) -> tuple[frozenset[str], ...]:
    """The same subsets as :func:`hs_sets_by_brute_force`, as sets of names."""
    return tuple(s for _, s in _hs_subsets(g))


def simple_cycles_through(g: Graph, v: str) -> tuple[Cycle, ...]:
    """All cycles whose vertex set contains v, rotated to start at v.

    Finite because cycle sources are pairwise distinct.  Ordered by
    (length, edge sequence) under the graph's edge order.  Exponential in
    general.
    """
    g.check_vertex(v)
    out = out_edge_map(g)
    found: list[Cycle] = []
    trail: list[str] = []
    visited = {v}
    stack = [(v, iter(out[v]))]
    while stack:
        here, pending = stack[-1]
        for e in pending:
            w = g.rng(e)
            if w == v:
                found.append(Cycle(g, tuple([g.edge_index(x) for x in trail + [e]])))
            elif w not in visited:
                trail.append(e)
                visited.add(w)
                stack.append((w, iter(out[w])))
                break
        else:
            stack.pop()
            if trail:
                trail.pop()
                visited.remove(here)
    found.sort(key=lambda c: (len(c.ids), c.ids))
    return tuple(found)


def iter_closed_simple_paths(g: Graph, v: str, max_len: int) -> Iterator[Path]:
    """Closed simple paths based at v, shortest first, up to ``max_len`` edges.

    Breadth-first, so within one length the edge order of the graph decides
    the order.  The stream can be infinite without the bound, and the
    number of trails it walks grows exponentially with their length.
    """
    g.check_vertex(v)
    out = out_edge_map(g)
    queue: deque[tuple[str, tuple[str, ...]]] = deque([(v, ())])
    while queue:
        here, trail = queue.popleft()
        for e in out[here]:
            w = g.rng(e)
            if w == v:
                yield Path.of(g, trail + (e,))
            elif len(trail) + 1 < max_len:
                queue.append((w, trail + (e,)))


def classify_by_cycle_count(g: Graph, v: str) -> VertexClass:
    """K-class from the enumerated cycles through v: none is K0, two or more
    is K2, and a single cycle is K1 unless an edge leaving it returns to v."""
    g.check_vertex(v)
    cycles = simple_cycles_through(g, v)
    if not cycles:
        return VertexClass("K0", None)
    if len(cycles) >= 2:
        return VertexClass("K2", None)
    (c,) = cycles
    on_cycle = set(c.edges)
    cycle_vertices = set(c.sources)
    for f in g.edges:
        if f in on_cycle or g.src(f) not in cycle_vertices:
            continue
        if v in reach_by_scan(g, g.rng(f)):
            return VertexClass("K2", None)
    return VertexClass("K1", c)


def rotation_key_by_rotations(c) -> tuple[int, ...]:
    """Least edge-index sequence over all rotations of a cycle."""
    es = c.edges
    return min(tuple(c.graph.edge_index(e) for e in es[i:] + es[:i]) for i in range(len(es)))


def k1_cycles_by_cycle_count(g: Graph) -> tuple:
    """Canonical K1 cycles, found vertex by vertex with the cycle-counting
    classifier and ordered by rotation key."""
    seen = {}
    for v in g.vertices:
        vc = classify_by_cycle_count(g, v)
        if vc.kind == "K1":
            key = rotation_key_by_rotations(vc.cycle)
            seen.setdefault(key, tuple(g.edges[i] for i in key))
    return tuple(seen[k] for k in sorted(seen))


def covers_by_definition(elements, leq) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j) with elements[i] < elements[j] under the partial order
    ``leq`` and no k strictly between, checked for every k."""
    n = len(elements)
    le = [[leq(a, b) for b in elements] for a in elements]
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and le[i][j]
        and not any(k not in (i, j) and le[i][k] and le[k][j] for k in range(n))
    )


def lattice_by_lindig(g: Graph) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """Bitmasks of the hereditary saturated sets and the sorted covers of
    their inclusion, as the library once found them (Lindig, "Fast concept
    analysis", 2000): the covers of A are the minimal closures of A + v, v
    outside A, each closed from A with the missing counts left by the
    closure that found A, unless v lies in one found already; v stops
    generating when its closure holds a vertex still generating."""
    ix, masks, pairs = _index(g), _closed_sets(g), []
    pos = {m: k for k, m in enumerate(masks)}
    counts = {0: ix.outdeg}  # missing counts of each set found, until its turn
    for k, a in enumerate(masks[:-1]):  # the last is every vertex, with no cover
        base, minimal, covered, ups = counts.pop(k), masks[-1] ^ a, a, []
        for v in range(len(ix.succ)):
            bit = 1 << v
            if covered & bit:  # in A, or in a cover found, which it generates
                continue
            missing = base.copy()  # unused when A + v is every vertex, already closed
            b = masks[-1] if a | bit == masks[-1] else _close(ix, [v], a, missing)
            if (b ^ a ^ bit) & minimal:
                minimal ^= bit
            else:
                covered |= b
                ups.append(pos[b])
                counts.setdefault(pos[b], missing)
        pairs += [(k, j) for j in sorted(ups)]
    return masks, tuple(pairs)


def skeleton_families_by_closure(g: Graph) -> tuple[SkeletonFamily, ...]:
    """Skeleton families by the rule the library once ran: a graded node is
    compatible with a K1 cycle when it misses the cycle's sources and holds
    the closure of its exit range, and the family's ``inside`` is every node
    holding both the node and the cycle.  Nodes come from
    :func:`lattice_by_lindig`."""
    masks, _ = lattice_by_lindig(g)
    families = []
    for c in k1_cycles(g):
        required = hereditary_saturated_closure(g, exit_range(g, c)).mask
        srcs = sum(1 << g.vertex_index(v) for v in c.sources)
        for i, m in enumerate(masks):
            if not m & srcs and not required & ~m:
                inside = frozenset(j for j, b in enumerate(masks) if not (m | srcs) & ~b)
                families.append(SkeletonFamily(c, i, inside))
    return tuple(families)


def marked_poset(g: Graph) -> tuple[tuple, frozenset[tuple[int, int]]]:
    """The poset J of a graph by networkx: its sinks and cyclic strongly
    connected components as (vertices, marked) pairs, ordered by their least
    vertex in input order and marked when the component is one cycle (as
    many internal edges as vertices), plus the pairs (i, j) with component i
    reaching component j, i != j."""
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.ends)
    points = []
    for scc in nx.strongly_connected_components(h):
        internal = h.subgraph(scc).number_of_edges()
        if internal or not h.out_degree(next(iter(scc))):
            points.append((frozenset(scc), internal == len(scc)))
    points.sort(key=lambda p: min(map(g.vertices.index, p[0])))
    reps = [next(iter(vs)) for vs, _ in points]
    above = frozenset(
        (i, j)
        for i, a in enumerate(reps)
        for j, b in enumerate(reps)
        if i != j and nx.has_path(h, a, b)
    )
    return tuple(points), above


# The class of each marked poset on at most two points: one point, unmarked
# or marked; an antichain with 0, 1 or 2 marks; a chain by the marks of its
# (upper, lower) point.
MARKED_POSET_CLASS = {
    (False,): "I", (True,): "II",
    ("antichain", 0): "VII", ("antichain", 1): "VIII", ("antichain", 2): "IX",
    ("chain", False, False): "V", ("chain", False, True): "VI",
    ("chain", True, False): "III", ("chain", True, True): "IV",
}


def class_by_marked_poset(g: Graph) -> str:
    """The class of a two-vertex graph read from its marked poset J."""
    points, above = marked_poset(g)
    marks = [m for _, m in points]
    if len(points) == 1:
        return MARKED_POSET_CLASS[tuple(marks)]
    if not above:
        return MARKED_POSET_CLASS["antichain", sum(marks)]
    ((upper, lower),) = above
    return MARKED_POSET_CLASS["chain", marks[upper], marks[lower]]


def canonical_key_by_permutations(skeleton) -> tuple:
    """Least (n, matrix, family key) encoding of a lattice skeleton over all
    n! node orders, the way the library once computed its canonical key."""
    rows = skeleton.graded.up_sets()
    n = len(rows)
    fams = [(f.cycle.rotation_key(), f.att, f.inside) for f in skeleton.families]
    best = None
    for order in permutations(range(n)):
        new = {old: k for k, old in enumerate(order)}
        matrix = tuple(tuple(rows[i] >> j & 1 for j in order) for i in order)
        groups: dict[tuple, list] = {}
        for cyc_key, att, inside in fams:
            groups.setdefault(cyc_key, []).append((new[att], tuple(sorted(new[i] for i in inside))))
        profiles = sorted(tuple(sorted(v)) for v in groups.values())
        fam_key = tuple((gi, entry) for gi, profile in enumerate(profiles) for entry in profile)
        cand = (n, matrix, fam_key)
        if best is None or cand < best:
            best = cand
    return best


# --- retired element kernel, kept as an oracle ----------------------------------
#
# Products and rewriting as the library once computed them, on Path and
# Monomial objects with checked name lookups, collected and ordered by
# :func:`term_order`, and written out from the terms.  The integer kernel
# in ``leavitt.elements`` must agree with it byte for byte.  The oracle
# works on term lists, so no part of the kernel takes part in its answers.


def _monomial(ap: Path, bp: Path) -> Monomial:
    """The monomial ap.bp*' of two paths that end at one vertex."""
    assert ap.graph == bp.graph and ap.rng == bp.rng
    return Monomial(ap.graph, (ap.code, bp.code))


def _reduced_turn(g: Graph, out: dict, m: Monomial) -> str | None:
    """Turn vertex when both paths end in its special (first) edge, else None."""
    a, b = m.alpha.edges, m.beta.edges
    if a and b and a[-1] == b[-1]:
        w = g.src(a[-1])
        if out[w][0] == a[-1]:
            return w
    return None


def term_order(m: Monomial) -> tuple:
    """(ghost degree desc, degree asc, alpha code, beta code): the term order."""
    a, b = m.code
    return (1 - len(b), len(a) - len(b), a, b)


def collect_by_paths(items) -> tuple[tuple[Monomial, Fraction], ...]:
    """Like terms summed, zeros dropped, in term order."""
    acc: dict[Monomial, Fraction] = {}
    for m, c in items:
        acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
    return tuple(sorted(((m, c) for m, c in acc.items() if c != 0), key=lambda t: term_order(t[0])))


def normalize_by_paths(g: Graph, terms) -> tuple[tuple[Monomial, Fraction], ...]:
    """Normal form: every special-special turn expanded through the vertex identity."""
    out_edges = out_edge_map(g)
    out = []
    stack = [(m, Fraction(c)) for m, c in terms]
    while stack:
        m, c = stack.pop()
        if c == 0:
            continue
        w = _reduced_turn(g, out_edges, m)
        if w is None:
            out.append((m, c))
            continue
        gam = m.alpha.edges[-1]
        ap = Path(g, m.alpha.code[:-1])
        bp = Path(g, m.beta.code[:-1])
        stack.append((_monomial(ap, bp), c))
        for f in out_edges[w]:
            if f != gam:
                stack.append((_monomial(ap.extend((f,)), bp.extend((f,))), -c))
    return collect_by_paths(out)


def mul_raw_by_paths(m1: Monomial, m2: Monomial) -> Monomial | None:
    """Product of two monomials before rewriting; None when it vanishes."""
    beta, gamma = m1.beta, m2.alpha
    if beta.base != gamma.base:
        return None
    nb, ng = len(beta.edges), len(gamma.edges)
    if nb <= ng:
        if gamma.edges[:nb] != beta.edges:
            return None
        return _monomial(m1.alpha.extend(gamma.edges[nb:]), m2.beta)
    if beta.edges[:ng] != gamma.edges:
        return None
    return _monomial(m1.alpha, m2.beta.extend(beta.edges[ng:]))


def mul_by_paths(g: Graph, xs, ys) -> tuple[tuple[Monomial, Fraction], ...]:
    """Normal form of the product of two term lists."""
    raw = []
    for m1, c1 in xs:
        for m2, c2 in ys:
            m = mul_raw_by_paths(m1, m2)
            if m is not None:
                raw.append((m, c1 * c2))
    return normalize_by_paths(g, raw)


def coeff(x: Element, m: Monomial) -> Fraction:
    """The coefficient of ``m`` among the terms of ``x``; 0 for a monomial of another graph."""
    return dict(x.terms).get(m, Fraction(0))


def format_by_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (m, c) in enumerate(terms):
        mag = abs(c)
        body = str(m) if mag == 1 else f"{mag}*{m}"
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def on_graph(h: Graph, x: Element) -> Element:
    """The element with x's terms, rebuilt by edge and vertex names over h."""
    return Element.of(
        h, [(monomial(h, m.alpha.edges, m.beta.edges, at=m.alpha.base), c) for m, c in x.terms]
    )


# --- retired ingest, kept as oracles --------------------------------------------
#
# Graph and generator ingest as the library once wrote it: one check per
# name, duplicate checks through a set, a stripped regex match per line with
# three group reads, every coefficient read by Fraction, and a cycle
# polynomial checked against the base vertex's VertexClass.  The library's
# bulk checks must build the same graphs and generators and raise the same
# errors, word for word.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise GraphError(f"bad identifier {name!r}: use letters, digits, _")


def validate_graph_item_by_item(vertices, edges) -> Graph:
    vs = tuple(vertices)
    if not vs:
        raise GraphError("a graph needs at least one vertex")
    seen: set[str] = set()
    for v in vs:
        _check_name(v)
        if v in seen:
            raise GraphError(f"duplicate identifier {v!r}")
        seen.add(v)
    vset = set(vs)
    names, ends = [], []
    for e, s, r in edges:
        _check_name(e)
        if e in seen:
            raise GraphError(f"duplicate identifier {e!r}")
        seen.add(e)
        if s not in vset:
            raise GraphError(f"edge {e!r} leaves unknown vertex {s!r}")
        if r not in vset:
            raise GraphError(f"edge {e!r} enters unknown vertex {r!r}")
        names.append(e)
        ends.append((s, r))
    return Graph(vs, tuple(names), tuple(ends))


_EDGE_LINE_RE = re.compile(r"edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\Z")


def parse_graph_line_by_line(text: str) -> Graph:
    vertices: tuple[str, ...] | None = None
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise GraphError(f"line {lineno}: repeated vertices line")
            vertices = tuple(line[len("vertices:"):].split())
            continue
        m = _EDGE_LINE_RE.match(line)
        if not m:
            raise GraphError(f"line {lineno}: cannot parse {line!r}")
        if vertices is None:
            raise GraphError(f"line {lineno}: edge line before vertices line")
        edges.append((m.group(1), m.group(2), m.group(3)))
    if vertices is None:
        raise GraphError("missing vertices line")
    return validate_graph_item_by_item(vertices, edges)


def cycle_polynomial_by_classes(g: Graph, cycle_edges, base: str, coeffs) -> CyclePolynomial:
    cyc = Cycle.of(g, cycle_edges)
    if base not in cyc.sources:
        raise DomainError(f"{base!r} is not a source on the cycle")
    p = QPoly.of(coeffs)
    if p.is_zero:
        raise DomainError("zero polynomial")
    p = p.shift_down(p.valuation())
    if p.degree < 1:
        raise DomainError(
            "polynomial reduces to a scalar multiple of a vertex; "
            "use a vertex generator instead"
        )
    vc = classify_vertex(g, base)
    if vc.kind != "K1" or vc.cycle.canonical() != cyc.canonical():
        raise DomainError(
            f"cycle {cyc} is not the unique closed simple path at {base!r}"
        )
    return CyclePolynomial(cyc.canonical(), base, p)


def _names(value, key: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"'{key}' must be a list of names")
    return value


_EXPONENT = re.compile(r"[eE][-+]?\d")
_NOT_ASCII_DIGIT = re.compile(r"_|(?![0-9])\d")


def generator_set_by_fractions(g: Graph, data) -> LambdaGeneratorSet:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad ideal JSON: {exc}") from exc
        except ValueError as exc:  # an integer beyond the interpreter's int() digit limit
            raise ParseError("bad ideal JSON: a number has too many digits") from exc
    if not isinstance(data, dict):
        raise ParseError("ideal JSON must be an object")
    unknown = set(data) - {"vertices", "polys"}
    if unknown:
        raise ParseError(f"unknown ideal JSON keys: {sorted(unknown)}")
    vertices = _names(data.get("vertices", []), "vertices")
    entries = data.get("polys", [])
    if not isinstance(entries, list):
        raise ParseError("'polys' must be a list of polynomials")
    polys = []
    for entry in entries:
        if not isinstance(entry, dict) or not {"cycle", "coeffs"} <= set(entry):
            raise ParseError("each poly needs 'cycle' and 'coeffs'")
        cycle_edges = _names(entry["cycle"], "cycle")
        if not isinstance(entry["coeffs"], list):
            raise ParseError("'coeffs' must be a list of coefficients")
        base = entry.get("base")
        if base is None:
            cyc = Cycle.of(g, cycle_edges)
            base = cyc.sources[0]
        texts = [str(c) for c in entry["coeffs"]]
        if any(_EXPONENT.search(t) for t in texts):
            # Fraction("1e999999999") would build a billion-digit integer.
            raise ParseError(f"exponent notation in coefficients {entry['coeffs']}")
        if any(_NOT_ASCII_DIGIT.search(t) for t in texts):
            # Fraction reads "\u0663" as 3 and "1_0" as 10.
            raise ParseError(f"non-ASCII digit or '_' in coefficients {entry['coeffs']}")
        try:
            coeffs = [Fraction(t) for t in texts]
        except ValueError as exc:
            raise ParseError(f"bad coefficient in {entry['coeffs']}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise ParseError(f"bad coefficient in {entry['coeffs']}: zero denominator") from exc
        polys.append(cycle_polynomial_by_classes(g, cycle_edges, base, coeffs))
    return LambdaGeneratorSet.of(g, polys, vertices)


def generator_set_of(red: LambdaReduction) -> LambdaGeneratorSet:
    """Generators of a reduction: its vertex part, and each polynomial on its
    cycle based at the cycle's first source."""
    polys = tuple(CyclePolynomial(c, c.sources[0], p) for c, p in red.polys)
    return LambdaGeneratorSet(red.graph, polys, red.vertex_part.mask)


def generator_set_to_json(gens: LambdaGeneratorSet) -> dict:
    """Ideal JSON of a generator set, vertices in vertex order; the inverse
    of ``generator_set_from_json``."""
    return {
        "vertices": [v for i, v in enumerate(gens.graph.vertices) if gens.mask >> i & 1],
        "polys": [
            {"cycle": list(p.cycle.edges), "base": p.base, "coeffs": list(p.poly.to_strings())}
            for p in gens.polys
        ],
    }


def shape_total(shape) -> int:
    """The number of edges of a two-vertex shape."""
    return shape.loops_u + shape.loops_v + shape.uv + shape.vu


def swapped(shape: TwoVertexShape) -> TwoVertexShape:
    """The shape of the same graph with its two vertices exchanged."""
    return TwoVertexShape(shape.loops_v, shape.loops_u, shape.vu, shape.uv)


def canon(shape: TwoVertexShape) -> TwoVertexShape:
    """The shape or its swap, whichever has the larger field tuple."""
    other = swapped(shape)
    return shape if shape.astuple() >= other.astuple() else other


def enumerate_by_records(k: int) -> tuple[TwoVertexShape, ...]:
    """All k-edge shapes up to the vertex swap, largest tuple first, as the
    library once listed them: a record per candidate, kept in its
    :func:`canon` form."""
    shapes = set()
    for lu in range(k + 1):
        for lv in range(k + 1 - lu):
            for uv in range(k + 1 - lu - lv):
                shapes.add(canon(TwoVertexShape(lu, lv, uv, k - lu - lv - uv)))
    return tuple(sorted(shapes, reverse=True))


def canonical_form_by_records(shape: TwoVertexShape) -> CanonicalForm16:
    """The canonical type of a shape by the reduction rule as the library
    once ran it on every call, on records and uncapped edge counts: loops
    cap at two; no loops, two parallel edges and a back edge give type 4;
    a loop with edges both ways gives type 8; otherwise each direction
    keeps at most one edge."""
    s = canon(TwoVertexShape(min(shape.loops_u, 2), min(shape.loops_v, 2), shape.uv, shape.vu))
    if s.loops_u == 0 and s.loops_v == 0 and s.uv >= 2 and s.vu >= 1:
        cid = 4
    elif (s.loops_u > 0 or s.loops_v > 0) and s.uv >= 1 and s.vu >= 1:
        cid = 8
    else:
        capped = canon(TwoVertexShape(s.loops_u, s.loops_v, min(s.uv, 1), min(s.vu, 1)))
        cid = _ID_BY_SHAPE[capped.astuple()]
    return CanonicalForm16(cid, TwoVertexShape(*_SHAPES_16[cid]))


def skeletons_isomorphic(a, b) -> bool:
    """Whether two lattice skeletons are isomorphic: equal canonical keys."""
    return a.canonical_key() == b.canonical_key()


def skeleton_dot_by_all_pairs(skel) -> str:
    """DOT of a lattice skeleton as the library once drew it: an order on
    nodes and families, asked of every pair, its covers found by
    :func:`covers_by_definition`, and dashed arcs between same-cycle
    families whose nodes are nested.  A node lies below a family when it
    lies below the family's node, a family below the nodes in its
    ``inside``, and below a family on another cycle when that family's node
    is inside it."""
    nodes, fams = skel.graded.elements, skel.families
    rows = skel.graded.up_sets()
    items = [("n", i) for i in range(len(nodes))] + [("f", i) for i in range(len(fams))]

    def leq(x, y) -> bool:
        (kx, ix), (ky, iy) = x, y
        if kx == "n":
            return bool(rows[ix] >> (iy if ky == "n" else fams[iy].att) & 1)
        if ky == "n":
            return iy in fams[ix].inside
        if fams[ix].cycle.ids == fams[iy].cycle.ids:
            return ix == iy
        return fams[iy].att in fams[ix].inside

    lines = ["digraph skeleton {", "  rankdir=BT;"]
    for i, node in enumerate(nodes):
        lines.append(f'  n{i} [shape=box, label="{lattice_label(node)}"];')
    for i, f in enumerate(fams):
        part = nodes[f.att].sorted_members()
        label = f"P({f.cycle})" + (", " + ",".join(part) if part else "")
        lines.append(f'  f{i} [shape=ellipse, label="<{label}>"];')
    for i, j in covers_by_definition(items, leq):
        (kx, ix), (ky, iy) = items[i], items[j]
        lines.append(f"  {kx}{ix} -> {ky}{iy};")
    for i, fx in enumerate(fams):
        for j, fy in enumerate(fams):
            if i != j and fx.cycle.ids == fy.cycle.ids and rows[fx.att] >> fy.att & 1:
                lines.append(f"  f{i} -> f{j} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- polynomials over Q on Fractions ---------------------------------------
#
# ``QPoly`` as the library once held it: a tuple of Fractions, with
# Euclid's algorithm over Q for the gcd.  ``leavitt.polynomials.QPoly``
# holds int numerators over one denominator and must agree with it on
# every coefficient and every printed form.


class FractionPoly:
    """A polynomial over Q: ``coeffs`` is a tuple of Fractions in ascending
    degree, last entry nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"FractionPoly({self.coeffs!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def shift_down(self, k: int) -> "FractionPoly":
        return FractionPoly(self.coeffs[k:])

    def monic(self) -> "FractionPoly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return FractionPoly(c / lead for c in self.coeffs)

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        pad = lambda cs: list(cs) + [Fraction(0)] * (n - len(cs))
        return FractionPoly(a + b for a, b in zip(pad(self.coeffs), pad(other.coeffs)))

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        if not self.coeffs or not other.coeffs:
            return FractionPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    def __divmod__(self, other: "FractionPoly") -> tuple["FractionPoly", "FractionPoly"]:
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d, lead = other.degree, other.coeffs[-1]
        quo = [Fraction(0)] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return FractionPoly(quo), FractionPoly(rem)

    def divides(self, other: "FractionPoly") -> bool:
        if not self.coeffs:
            return not other.coeffs
        return not divmod(other, self)[1].coeffs

    @staticmethod
    def gcd(p: "FractionPoly", q: "FractionPoly") -> "FractionPoly":
        """Monic gcd by Euclid's algorithm over Q."""
        while q.coeffs:
            p, q = q, divmod(p, q)[1]
        return p.monic()

    def to_strings(self) -> tuple[str, ...]:
        return tuple(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if abs(c) == 1 else f"{abs(c)}*{x}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def class_members() -> dict[str, tuple[int, ...]]:
    """The canonical types of each class label, read from the type table."""
    members: dict[str, tuple[int, ...]] = {}
    for i, label in sorted(_CLASS_OF_TYPE.items()):
        members[label] = members.get(label, ()) + (i,)
    return members


def outcome(f, *args):
    """``("ok", value)``, or ``("error", class, message)`` for a library error."""
    try:
        return ("ok", f(*args))
    except LpaError as exc:
        return ("error", type(exc), str(exc))
