"""Shared fixture graphs and random-value generators for the test suite."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator

from leavitt import (
    Cycle,
    Element,
    Graph,
    HeredSatSet,
    Monomial,
    Path,
    VertexClass,
    monomial,
    normalize,
    validate_graph,
)

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


def paths_up_to(g: Graph, max_len: int) -> list[tuple[str, tuple[str, ...]]]:
    """All (base, edges) paths with at most max_len edges, in a fixed order."""
    out = [(v, ()) for v in g.vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for base, edges in frontier:
            here = g.rng(edges[-1]) if edges else base
            for e in g.out_edges(here):
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


def _is_hereditary(g: Graph, s: frozenset[str]) -> bool:
    return all(g.rng(e) in s for v in s for e in g.out_edges(v))


def _is_saturated(g: Graph, s: frozenset[str]) -> bool:
    for v in g.vertices:
        out = g.out_edges(v)
        if out and v not in s and all(g.rng(e) in s for e in out):
            return False
    return True


def hs_sets_by_brute_force(g: Graph) -> tuple[HeredSatSet, ...]:
    """Every hereditary saturated subset, by testing all vertex subsets in
    (size, vertex order)."""
    result = []
    n = len(g.vertices)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(g.vertices[i] for i in combo)
            if _is_hereditary(g, s) and _is_saturated(g, s):
                result.append(HeredSatSet(g, s))
    return tuple(result)


def simple_cycles_through(g: Graph, v: str) -> tuple[Cycle, ...]:
    """All cycles whose vertex set contains v, rotated to start at v.

    Finite because cycle sources are pairwise distinct.  Ordered by
    (length, edge sequence) under the graph's edge order.  Exponential in
    general.
    """
    g.check_vertex(v)
    found: list[Cycle] = []
    trail: list[str] = []
    visited = {v}
    stack = [(v, iter(g.out_edges(v)))]
    while stack:
        here, pending = stack[-1]
        for e in pending:
            w = g.rng(e)
            if w == v:
                found.append(Cycle(g, tuple(trail) + (e,)))
            elif w not in visited:
                trail.append(e)
                visited.add(w)
                stack.append((w, iter(g.out_edges(w))))
                break
        else:
            stack.pop()
            if trail:
                trail.pop()
                visited.remove(here)
    found.sort(key=lambda c: (len(c.edges), tuple(g.edge_index(e) for e in c.edges)))
    return tuple(found)


def iter_closed_simple_paths(g: Graph, v: str, max_len: int) -> Iterator[Path]:
    """Closed simple paths based at v, shortest first, up to ``max_len`` edges.

    Breadth-first, so within one length the edge order of the graph decides
    the order.  The stream can be infinite without the bound, and the
    number of trails it walks grows exponentially with their length.
    """
    g.check_vertex(v)
    queue: deque[tuple[str, tuple[str, ...]]] = deque([(v, ())])
    while queue:
        here, trail = queue.popleft()
        for e in g.out_edges(here):
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
        return VertexClass.k0()
    if len(cycles) >= 2:
        return VertexClass.k2()
    (c,) = cycles
    on_cycle = set(c.edges)
    cycle_vertices = c.vertex_set
    for f in g.edges:
        if f in on_cycle or g.src(f) not in cycle_vertices:
            continue
        if v in g.reach_from(g.rng(f)):
            return VertexClass.k2()
    return VertexClass.k1(c)


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
        if vc.is_k1:
            key = rotation_key_by_rotations(vc.cycle)
            seen.setdefault(key, tuple(g.edges[i] for i in key))
    return tuple(seen[k] for k in sorted(seen))


def covers_by_definition(poset) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j) with i < j and no k strictly between, checked for every k."""
    n = len(poset.elements)
    leq = poset.leq
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and leq[i][j]
        and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))
    )


def canonical_key_by_permutations(skeleton) -> tuple:
    """Least (n, matrix, family key) encoding of a lattice skeleton over all
    n! node orders, the way the library once computed its canonical key."""
    leq = skeleton.graded.leq
    n = len(leq)
    fams = [(f.cycle.rotation_key(), f.att, f.inside) for f in skeleton.families]
    best = None
    for order in permutations(range(n)):
        new = {old: k for k, old in enumerate(order)}
        matrix = tuple(tuple(leq[i][j] for j in order) for i in order)
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
# ``Monomial.sort_key``, and written out from the terms.  The integer kernel
# in ``leavitt.elements`` must agree with it byte for byte.  The oracle
# works on term lists, so no part of the kernel takes part in its answers.


def _reduced_turn(g: Graph, m: Monomial) -> str | None:
    """Turn vertex when both paths end in its special edge, else None."""
    a, b = m.alpha.edges, m.beta.edges
    if a and b and a[-1] == b[-1]:
        w = g.src(a[-1])
        if g.special_edge(w) == a[-1]:
            return w
    return None


def collect_by_paths(items) -> tuple[tuple[Monomial, Fraction], ...]:
    """Like terms summed, zeros dropped, in term order."""
    acc: dict[Monomial, Fraction] = {}
    for m, c in items:
        acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
    return tuple(sorted(((m, c) for m, c in acc.items() if c != 0), key=lambda t: t[0].sort_key()))


def normalize_by_paths(g: Graph, terms) -> tuple[tuple[Monomial, Fraction], ...]:
    """Normal form: every special-special turn expanded through the vertex identity."""
    out = []
    stack = [(m, Fraction(c)) for m, c in terms]
    while stack:
        m, c = stack.pop()
        if c == 0:
            continue
        w = _reduced_turn(g, m)
        if w is None:
            out.append((m, c))
            continue
        gam = m.alpha.edges[-1]
        ap = m.alpha.drop_last()
        bp = m.beta.drop_last()
        stack.append((Monomial(ap, bp), c))
        for f in g.out_edges(w):
            if f != gam:
                stack.append((Monomial(ap.extend((f,)), bp.extend((f,))), -c))
    return collect_by_paths(out)


def mul_raw_by_paths(m1: Monomial, m2: Monomial) -> Monomial | None:
    """Product of two monomials before rewriting; None when it vanishes."""
    beta, gamma = m1.beta, m2.alpha
    if beta.src != gamma.src:
        return None
    nb, ng = beta.deg, gamma.deg
    if nb <= ng:
        if gamma.edges[:nb] != beta.edges:
            return None
        return Monomial(m1.alpha.extend(gamma.edges[nb:]), m2.beta)
    if beta.edges[:ng] != gamma.edges:
        return None
    return Monomial(m1.alpha, m2.beta.extend(beta.edges[ng:]))


def mul_by_paths(g: Graph, xs, ys) -> tuple[tuple[Monomial, Fraction], ...]:
    """Normal form of the product of two term lists."""
    raw = []
    for m1, c1 in xs:
        for m2, c2 in ys:
            m = mul_raw_by_paths(m1, m2)
            if m is not None:
                raw.append((m, c1 * c2))
    return normalize_by_paths(g, raw)


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
