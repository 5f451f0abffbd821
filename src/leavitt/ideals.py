"""Ideal analysis: the graded-ideal lattice, vertex extraction, non-graded
generators, and canonical generating data for cycle-polynomial ideals.

Graded ideals correspond bijectively to hereditary saturated vertex sets.
On a graph satisfying Condition (K), any nonzero element can be pushed to a
nonzero scalar multiple of a vertex by one-sided multiplications
(:func:`extract_vertex` returns the factors used as a checkable witness).
When Condition (K) fails, a K1 vertex v with unique cycle c yields the
non-graded generator v + c (:func:`nongraded_witness`).

An ideal given by polynomials in K1 cycles plus a vertex set reduces to a
canonical generating set: one monic polynomial per cycle (gcd), vertex side
closed hereditarily and saturatedly together with the exit ranges of all
cycles that keep a polynomial, and polynomials based inside the vertex side
dropped (:func:`lambda_reduce`).  Containment of such ideals reduces to
vertex-set inclusion plus polynomial divisibility (:func:`contains`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .elements import (
    Element,
    Monomial,
    _monomial,
    _tables,
    add,
    mul,
    path_element,
    vertex_element,
)
from .errors import DomainError, ParseError
from .graphs import (
    Cycle,
    Graph,
    HeredSatSet,
    classify_vertex,
    exit_range,
    hereditary_saturated_closure,
    all_hereditary_saturated_sets,
)
from .polynomials import QPoly

__all__ = [
    "Poset",
    "GradedIdeal",
    "CyclePolynomial",
    "LambdaGeneratorSet",
    "LambdaReduction",
    "ExtractionWitness",
    "graded_lattice",
    "lattice_dot",
    "extract_vertex",
    "nongraded_witness",
    "lambda_reduce",
    "contains",
    "vertex_membership",
    "is_graded",
    "generator_set_from_json",
    "generator_set_to_json",
    "reduction_to_json",
]


@dataclass(frozen=True)
class Poset:
    """Finite poset as an element tuple plus a reflexive order matrix."""

    elements: tuple
    leq: tuple[tuple[bool, ...], ...]

    @staticmethod
    def build(elements: Iterable, leq_fn) -> "Poset":
        els = tuple(elements)
        matrix = tuple(
            tuple(bool(leq_fn(a, b)) for b in els) for a in els
        )
        return Poset(els, matrix)

    def __len__(self) -> int:
        return len(self.elements)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) with i strictly below j and nothing in between.

        The upper covers of i are the minimal elements of its strict
        up-set.  Scanned by down-set size, which strictly grows along the
        order, each element is a cover unless a cover found before lies
        below it.  Pairs come out sorted.
        """
        n = len(self.elements)
        leq = self.leq
        height = [sum(leq[k][j] for k in range(n)) for j in range(n)]
        out = []
        for i in range(n):
            ups = sorted((j for j in range(n) if j != i and leq[i][j]), key=height.__getitem__)
            found: list[int] = []
            for j in ups:
                if not any(leq[c][j] for c in found):
                    found.append(j)
            out.extend((i, j) for j in sorted(found))
        return tuple(out)


@dataclass(frozen=True)
class GradedIdeal:
    """A graded ideal, named by its hereditary saturated vertex set."""

    generators: HeredSatSet

    def __str__(self) -> str:
        ms = self.generators.sorted_members()
        return "<" + (", ".join(ms) if ms else "0") + ">"


def graded_lattice(g: Graph) -> Poset:
    """All graded ideals ordered by inclusion; bottom <0>, top the algebra."""
    nodes = tuple(GradedIdeal(h) for h in all_hereditary_saturated_sets(g))
    return Poset.build(nodes, lambda a, b: a.generators.members <= b.generators.members)


def lattice_label(g: Graph, members: frozenset) -> str:
    """Diagram label of a vertex set: 0 when empty, L when it is every vertex."""
    if not members:
        return "0"
    if members == frozenset(g.vertices):
        return "L"
    return "{" + ",".join(g.sort_vertices(members)) + "}"


def lattice_dot(g: Graph, poset: Poset, name: str = "lattice") -> str:
    """Hasse diagram of a graded-ideal poset in DOT form."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for i, node in enumerate(poset.elements):
        lines.append(f'  n{i} [label="{lattice_label(g, node.generators.members)}"];')
    for i, j in poset.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- extraction on Condition-(K) graphs --------------------------------------


@dataclass(frozen=True)
class ExtractionWitness:
    """Factors reducing an element to a nonzero scalar multiple of a vertex.

    ``right`` factors multiply on the right in list order, then ``left``
    factors on the left in list order:
    left[k-1] * ... * left[0] * a * right[0] * ... * right[m-1].
    """

    left: tuple[Monomial, ...]
    right: tuple[Monomial, ...]
    vertex: str
    scalar: Fraction

    def apply(self, a: Element) -> Element:
        x = a
        for m in self.right:
            x = mul(x, Element.of(a.graph, [(m, 1)]))
        for m in self.left:
            x = mul(Element.of(a.graph, [(m, 1)]), x)
        return x

    def verify(self, a: Element) -> bool:
        expected = self.scalar * vertex_element(a.graph, self.vertex)
        return self.apply(a) == expected


def _two_closed_simple_paths(g: Graph, w: str) -> tuple:
    """Codes of the first two closed simple paths at w, ordered by length,
    then by out-edge position, within ``|E|*(|V|+1)`` edges.

    ``inner[l][x]`` is min(2, the number of walks of length l from x to w
    that do not pass through w before their end), with w's own entry set to
    0 for l >= 1 so a walk cannot go on from w; ``closed[l]`` is the capped
    number of closed simple paths of length l.  Paths are read off greedily
    in out-edge order, stepping only into counted walks, so the cost is
    O(L*|E|) for paths of length at most L.
    """
    rng = _tables(g)[0]
    vi = g._vindex
    t = vi[w]
    out = [[g._eindex[e] for e in g._out[v]] for v in g.vertices]
    arcs = [(vi[s], r) for (s, _), r in zip(g.ends, rng)]
    bound = len(g.edges) * (len(g.vertices) + 1)
    inner = [[int(x == t) for x in range(len(g.vertices))]]
    closed = [0]
    while sum(closed) < 2:
        if len(inner) > bound:
            raise DomainError(
                f"vertex {w!r} does not have two closed simple paths within the search bound"
            )
        cur = [0] * len(g.vertices)
        for s, r in arcs:
            cur[s] += inner[-1][r]
        closed.append(min(2, cur[t]))
        cur[t] = 0
        inner.append([min(2, c) for c in cur])
    found = []
    for length, count in enumerate(closed):
        for rank in range(min(count, 2 - len(found))):
            path, x = [t], t
            for k in range(length - 1, -1, -1):
                for e in out[x]:
                    if rank < inner[k][rng[e]]:
                        break
                    rank -= inner[k][rng[e]]
                path.append(e)
                x = rng[e]
            found.append(tuple(path))
    return tuple(found)


def _single(g: Graph, m: tuple) -> Element:
    return Element._make(g, ((m, 1),))


def extract_vertex(g: Graph, a: Element) -> ExtractionWitness:
    """Reduce a nonzero element to c * vertex by one-sided multiplications.

    Strategy: clear ghost halves by right-multiplying along the deepest
    ghost path (falling back across the outgoing edges of its start when a
    step would annihilate everything, which the vertex identity makes
    impossible for all edges at once); strip the shortest remaining real
    path from the left, leaving a vertex plus closed paths based at it;
    then cancel the closed-path sum with two distinct closed simple paths:
    the first two at that vertex in order of length, then of out-edge
    position, found from capped walk counts.  The stages work on the
    element's integer codes; the returned witness identity is re-verified
    exactly.

    Raises DomainError on zero input or when a vertex with exactly one
    closed simple path blocks the last stage (impossible under
    Condition (K)).
    """
    if a.graph != g:
        raise DomainError("element is not over this graph")
    if a.is_zero:
        raise DomainError("cannot extract a vertex from 0")

    rng = _tables(g)[0]
    left: list[tuple] = []  # kernel pairs (alpha, beta)
    right: list[tuple] = []
    x = a

    def rmul(m: tuple) -> None:
        nonlocal x
        y = mul(x, _single(g, m))
        if y != x:
            right.append(m)
        x = y

    def lmul(m: tuple) -> None:
        nonlocal x
        y = mul(_single(g, m), x)
        if y != x:
            left.append(m)
        x = y

    # Stage 1: eliminate ghost halves.  Terms are kept sorted with the
    # deepest ghost path first, so the first term drives the loop.
    guard = (max(len(b) for (_, b), _ in x._codes) - 1) * (len(g.edges) + 2) + 4
    while len(x._codes[0][0][1]) > 1:
        guard -= 1
        if guard < 0:
            raise AssertionError("ghost elimination failed to make progress")
        w = x._codes[0][0][1][0]
        rmul(((w,), (w,)))
        first = x._codes[0][0][1][1]
        out = [g._eindex[e] for e in g.out_edges(g.vertices[w])]
        for e in [first] + [f for f in out if f != first]:
            y = mul(x, _single(g, ((w, e), (rng[e],))))
            if not y.is_zero:
                right.append(((w, e), (rng[e],)))
                x = y
                break
        else:
            raise AssertionError("every outgoing edge annihilated the element")

    # Stage 2: all terms are real paths.  Project to a common end vertex,
    # then strip the shortest path from the left.
    w = x._codes[0][0][1][0]
    if any(b[0] != w for (_, b), _ in x._codes):
        rmul(((w,), (w,)))
    lmul(((w,), x._codes[0][0][0]))  # the first term's path has minimal degree

    # x is now c1*w plus closed paths based at w.
    def closed_paths() -> list:
        return [a for (a, b), _ in x._codes if len(a) > len(b)]

    closed = closed_paths()
    name = g.vertices[w]
    if closed:
        if classify_vertex(g, name).is_k1:
            raise DomainError(
                f"vertex {name!r} has exactly one closed simple path; "
                "extraction needs zero or at least two"
            )
        eta1, eta2 = _two_closed_simple_paths(g, name)
        while closed:
            eta = eta2 if all(a[: len(eta1)] == eta1 for a in closed) else eta1
            lmul(((w,), eta))
            rmul((eta, (w,)))
            new_closed = closed_paths()
            if len(new_closed) >= len(closed):
                raise AssertionError("closed-path elimination failed to make progress")
            closed = new_closed

    if len(x._codes) != 1 or x._codes[0][0] != ((w,), (w,)):
        raise AssertionError(f"extraction ended on a non-vertex element {x}")
    witness = ExtractionWitness(
        tuple(_monomial(g, *m) for m in left),
        tuple(_monomial(g, *m) for m in right),
        name,
        Fraction(x._codes[0][1]),
    )
    if not witness.verify(a):
        raise AssertionError("extraction witness failed verification")
    return witness


def nongraded_witness(g: Graph):
    """(v, cycle, v + cycle) for the first K1 vertex, or None.

    The returned element generates a non-graded ideal: its two homogeneous
    components cannot both be brought back inside the ideal because every
    closed path at v is a power of the unique cycle.
    """
    for v in g.vertices:
        vc = classify_vertex(g, v)
        if vc.is_k1:
            lam = vc.cycle
            gen = add(vertex_element(g, v), path_element(g, lam.edges))
            return (v, lam, gen)
    return None


# --- cycle-polynomial ideals --------------------------------------------------


@dataclass(frozen=True)
class CyclePolynomial:
    """A polynomial in a K1 cycle, with the basepoint as its constant term.

    ``poly`` has a nonzero constant coefficient and degree at least one; a
    plain power multiple is shifted down so the lowest term is the vertex.
    Canonical generating sets use monic polynomials, but inputs need not be
    monic.
    """

    cycle: Cycle  # canonical rotation
    base: str
    poly: QPoly

    @staticmethod
    def of(
        g: Graph,
        cycle_edges: Iterable[str],
        base: str,
        coeffs: Iterable[Fraction | int | str],
    ) -> "CyclePolynomial":
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
        if not vc.is_k1 or vc.cycle.canonical() != cyc.canonical():
            raise DomainError(
                f"cycle {cyc} is not the unique closed simple path at {base!r}"
            )
        return CyclePolynomial(cyc.canonical(), base, p)

    @property
    def graph(self) -> Graph:
        return self.cycle.graph


@dataclass(frozen=True)
class LambdaGeneratorSet:
    """Raw generators: cycle polynomials (repetition allowed) plus vertices."""

    graph: Graph
    polys: tuple[CyclePolynomial, ...]
    vertex_gens: frozenset[str]

    @staticmethod
    def of(
        g: Graph,
        polys: Iterable[CyclePolynomial] = (),
        vertices: Iterable[str] = (),
    ) -> "LambdaGeneratorSet":
        ps = tuple(polys)
        for p in ps:
            if p.graph != g:
                raise DomainError("cycle polynomial over a different graph")
        vs = frozenset(vertices)
        for v in vs:
            g.check_vertex(v)
        return LambdaGeneratorSet(g, ps, vs)


@dataclass(frozen=True)
class LambdaReduction:
    """Generating data: a hereditary saturated vertex set plus at most one
    monic polynomial per K1 cycle not based inside it.

    Values produced by :func:`lambda_reduce` are canonical; hand-built ones
    may lack the exit-range closure of the vertex part, and containment
    queries re-canonicalize to compensate.
    """

    graph: Graph
    vertex_part: HeredSatSet
    polys: tuple[tuple[Cycle, QPoly], ...]  # canonical cycles, rotation-key order

    @staticmethod
    def of(
        g: Graph,
        vertices: Iterable[str],
        polys: Mapping[Cycle, QPoly] | Iterable[tuple[Cycle, QPoly]] = (),
    ) -> "LambdaReduction":
        part = HeredSatSet.of(g, vertices)
        items = polys.items() if isinstance(polys, Mapping) else polys
        out = []
        seen = set()
        for cyc, p in items:
            c = Cycle.of(g, cyc.edges).canonical()
            key = c.rotation_key()
            if key in seen:
                raise DomainError(f"two polynomials on cycle {c}")
            seen.add(key)
            base = c.sources[0]
            vc = classify_vertex(g, base)
            if not vc.is_k1 or vc.cycle.canonical() != c:
                raise DomainError(f"cycle {c} is not a K1 cycle")
            if p.is_zero or p.degree < 1 or p.constant == 0 or not p.is_monic:
                raise DomainError(
                    f"polynomial {p} on cycle {c} is not monic with nonzero "
                    "constant term and positive degree"
                )
            if any(s in part.members for s in c.sources):
                raise DomainError(f"cycle {c} is based inside the vertex part")
            out.append((c, p))
        out.sort(key=lambda cp: cp[0].rotation_key())
        return LambdaReduction(g, part, tuple(out))

    def poly_map(self) -> dict[Cycle, QPoly]:
        return dict(self.polys)

    def generator_set(self) -> LambdaGeneratorSet:
        ps = tuple(
            CyclePolynomial.of(self.graph, c.edges, c.sources[0], p.coeffs)
            for c, p in self.polys
        )
        return LambdaGeneratorSet.of(self.graph, ps, self.vertex_part.members)

    def __str__(self) -> str:
        vs = ", ".join(self.vertex_part.sorted_members())
        ps = "; ".join(f"{p} on ({c})" for c, p in self.polys)
        return f"vertices {{{vs}}}" + (f" with {ps}" if ps else "")


def lambda_reduce(g: Graph, gens: LambdaGeneratorSet) -> LambdaReduction:
    """Canonical generating data of the ideal generated by ``gens``.

    Per cycle the polynomials collapse to their monic gcd; a gcd of one
    becomes the cycle's basepoint vertex.  The vertex side is the
    hereditary saturated closure of the vertex generators, those basepoint
    vertices, and the exit ranges of all cycles that keep a polynomial;
    polynomials whose cycle meets the vertex side are dropped, iterating to
    a fixed point.
    """
    if gens.graph != g:
        raise DomainError("generator set over a different graph")
    by_cycle: dict[tuple, tuple[Cycle, QPoly]] = {}
    for cp in gens.polys:
        c = cp.cycle.canonical()
        key = c.rotation_key()
        prev = by_cycle.get(key)
        acc = QPoly.gcd(prev[1], cp.poly) if prev else cp.poly
        by_cycle[key] = (c, acc)

    vertices = set(gens.vertex_gens)
    surviving: dict[tuple, tuple[Cycle, QPoly]] = {}
    for key, (c, p) in by_cycle.items():
        p = p.monic()
        if p.degree == 0:
            vertices.add(c.sources[0])
        else:
            surviving[key] = (c, p)

    while True:
        exits: set[str] = set()
        for c, _ in surviving.values():
            exits |= exit_range(g, c)
        part = hereditary_saturated_closure(g, vertices | exits).members
        vertices |= part
        dropped = [
            key
            for key, (c, _) in surviving.items()
            if any(s in part for s in c.sources)
        ]
        if not dropped:
            break
        for key in dropped:
            del surviving[key]

    return LambdaReduction.of(g, part, [cp for cp in surviving.values()])


def _canonical(g: Graph, i: LambdaReduction) -> LambdaReduction:
    return lambda_reduce(g, i.generator_set())


def contains(g: Graph, a: LambdaReduction, b: LambdaReduction) -> bool:
    """Whether the ideal generated by ``a`` lies inside the one from ``b``.

    Both sides are re-canonicalized first.  With equal vertex parts this is
    exactly per-cycle divisibility of b's polynomial into a's (a missing
    polynomial acts as the zero polynomial).  Across different vertex parts
    the rule extends minimally: a's vertex part must be contained in b's,
    and each polynomial of a must either sit on a cycle meeting b's vertex
    part or be divisible by b's polynomial on the same cycle.  The
    cross-vertex-set extension is implementation-defined.
    """
    if a.graph != g or b.graph != g:
        raise DomainError("reductions over a different graph")
    a = _canonical(g, a)
    b = _canonical(g, b)
    if not a.vertex_part.members <= b.vertex_part.members:
        return False
    bmap = {c.rotation_key(): q for c, q in b.polys}
    for c, p in a.polys:
        if any(s in b.vertex_part.members for s in c.sources):
            continue
        q = bmap.get(c.rotation_key())
        if q is None or not q.divides(p):
            return False
    return True


def vertex_membership(g: Graph, v: str, i: LambdaReduction) -> bool:
    """Whether vertex v lies in the ideal; expects a canonical reduction."""
    g.check_vertex(v)
    return v in i.vertex_part.members


def is_graded(i: LambdaReduction) -> bool:
    """A canonical reduction generates a graded ideal iff it has no polynomials."""
    return not i.polys


# --- JSON wire format ---------------------------------------------------------
#
# {"vertices": ["u"],
#  "polys": [{"cycle": ["e"], "base": "v", "coeffs": ["1", "0", "1"]}]}
#
# Coefficients are ascending-degree rationals as strings, such as "-3", "1/2"
# or "0.25", written with ASCII digits; exponent notation and "_" are
# rejected.


def _names(value, key: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"'{key}' must be a list of names")
    return value


_EXPONENT = re.compile(r"[eE][-+]?\d")
_NOT_ASCII_DIGIT = re.compile(r"_|(?![0-9])\d")


def generator_set_from_json(g: Graph, data) -> LambdaGeneratorSet:
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
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient in {entry['coeffs']}: {exc}") from exc
        polys.append(CyclePolynomial.of(g, cycle_edges, base, coeffs))
    return LambdaGeneratorSet.of(g, polys, vertices)


def generator_set_to_json(gens: LambdaGeneratorSet) -> dict:
    g = gens.graph
    return {
        "vertices": list(g.sort_vertices(gens.vertex_gens)),
        "polys": [
            {
                "cycle": list(p.cycle.edges),
                "base": p.base,
                "coeffs": list(p.poly.to_strings()),
            }
            for p in gens.polys
        ],
    }


def reduction_to_json(red: LambdaReduction) -> dict:
    g = red.graph
    return {
        "vertices": list(g.sort_vertices(red.vertex_part.members)),
        "polys": [
            {
                "cycle": list(c.edges),
                "base": c.sources[0],
                "coeffs": list(p.to_strings()),
            }
            for c, p in red.polys
        ],
    }
