"""Ideal analysis: the graded-ideal lattice, vertex extraction, non-graded
generators, and canonical generating data for cycle-polynomial ideals.

An ideal is a :class:`LambdaReduction`, a hereditary saturated vertex set
plus polynomials in K1 cycles; graded ideals have no polynomials.
On a graph satisfying Condition (K), any nonzero element can be pushed to a
nonzero scalar multiple of a vertex by one-sided multiplications
(:func:`extract_vertex` returns the factors used as a checkable witness).
When Condition (K) fails, a K1 vertex v with unique cycle c yields the
non-graded generator v + c (:func:`nongraded_witness`).

An ideal given by polynomials in K1 cycles plus a vertex set reduces to a
canonical generating set (Rangaswamy, J. Algebra 375 (2013)): the monic gcd
of each cycle's polynomials, kept when the cycle lies outside the vertex
part, which is one hereditary saturated closure of the vertex generators,
the basepoints of constant gcds and the exit ranges of the other cycles
(:func:`lambda_reduce`, :meth:`LambdaReduction.of`).  One closure suffices:
dropping polynomials adds no generator and removes none, so closing again
gives the same set.  A hereditary set holding one vertex of a cycle holds
them all, so it meets the cycle when it holds the basepoint, the source of
the cycle's first edge.  A K1 vertex's one cycle is all of its SCC, so a
cycle, even a raw :class:`Cycle`, is K1 when it walks once around such an
SCC.  Every ideal the library returns has this form, and containment is
vertex-set inclusion plus polynomial divisibility (:func:`contains`).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from math import isinf

from .errors import DomainError, ParseError
from .graphs import (
    Cycle, Graph, HeredSatSet, Poset, _bits, _close, _exit_ids, _index, _is_k1_cycle, _k1_cycle_ids,
    _k_classes, _lattice, _listing, lattice_label,
)
from .polynomials import QPoly
from .records import _EXPONENT, _NOT_ASCII_DIGIT, Record, _refusal

TYPE_CHECKING = False  # type checkers read it as true; importing typing slows every lpa process
if TYPE_CHECKING:
    from fractions import Fraction

    from .elements import Element, Monomial

__all__ = [
    "CyclePolynomial", "LambdaGeneratorSet", "LambdaReduction",
    "ExtractionWitness", "graded_lattice", "lattice_dot", "extract_vertex",
    "nongraded_witness", "lambda_reduce", "contains", "vertex_membership", "is_graded",
    "generator_set_from_json", "reduction_to_json",
]

# Highest degree of a polynomial read from ideal JSON.  The gcd of a coprime
# pair of degree d (``coprime_pair`` in the tests) costs about 0.8 s at 256
# (0.75-1.03 s over ten runs), 1.4-1.7 s at 300 and 4.6-5.1 s at 400, in one
# process on a two-core Intel Xeon under Python 3.11.7, so a larger input is
# refused at once instead.
DEGREE_BUDGET = 256
# Largest size, degree times the bit lengths of the numerators and the
# denominator summed, of a polynomial read from ideal JSON: the degree alone
# lets long coefficients through.  On the same machine the gcd of two random
# polynomials took 0.36-0.57 s at degrees 16-128 and sizes 230k-258k, and
# 1.2-1.4 s at degree 256 (252k-263k; ``coprime_pair`` is 178k); over the
# budget, 1.7 s at degree 256 with 5-bit coefficients (269k) and 4.9 s at
# degree 32 with 300-digit ones (1.05M, 20 KB of JSON).
SIZE_BUDGET = 250_000


def graded_lattice(g: Graph) -> Poset:
    """All graded ideals, the reductions with no polynomials, ordered by inclusion.

    The ideals come in the order of their vertex sets in
    :func:`~leavitt.graphs.all_hereditary_saturated_sets`, and the poset
    stores the covers of inclusion, read off the poset of sinks and cycles
    (see :mod:`leavitt.graphs`); the order is derived from them on demand.
    """
    masks, covers, _ = _lattice(g)
    return Poset(tuple([LambdaReduction(g, HeredSatSet(g, m), ()) for m in masks]), covers)


def lattice_dot(g: Graph, poset: Poset) -> str:
    """Hasse diagram of a graded-ideal poset in DOT form."""
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, node in enumerate(poset.elements):
        lines.append(f'  n{i} [label="{lattice_label(node.vertex_part)}"];')
    for i, j in poset.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- extraction on Condition-(K) graphs --------------------------------------
# The only part that uses the element layer: it imports it where it runs.


class ExtractionWitness(Record):
    """Factors reducing an element to a nonzero scalar multiple of a vertex.

    ``right`` factors multiply on the right in list order, then ``left``
    factors on the left in list order:
    left[k-1] * ... * left[0] * a * right[0] * ... * right[m-1].  Both are
    tuples of Monomials; ``vertex`` is a vertex name and ``scalar`` a nonzero
    rational by the package's coefficient rule: an int when integral, else a
    Fraction.
    """

    __slots__ = __match_args__ = ("left", "right", "vertex", "scalar")

    def apply(self, a: Element) -> Element:
        from .elements import Element, mul
        x = a
        for m in self.right:
            x = mul(x, Element(m.graph, ((m.code, 1),), 1))
        for m in self.left:
            x = mul(Element(m.graph, ((m.code, 1),), 1), x)
        return x

    def verify(self, a: Element) -> bool:
        from .elements import scale, vertex_element
        expected = scale(self.scalar, vertex_element(a.graph, self.vertex))
        return self.apply(a) == expected


def _two_closed_simple_paths(g: Graph, w: str) -> tuple:
    """Codes of the first two closed simple paths at w, ordered by length,
    then by out-edge position, within ``|E|*(|V|+1)`` edges.

    ``inner[l][x]`` is min(2, the number of walks of length l from x to w
    that do not pass through w before their end), with w's own entry set to
    0 for l >= 1 so a walk cannot go on from w; ``closed[l]`` is the capped
    number of closed simple paths of length l.  Paths are read off greedily
    in out-edge order, stepping only into counted walks, so the cost is
    O(L*|E|) for paths of length at most L.  Counts and paths read the
    graph's integer adjacency: successors, out-edges and edge ranges.
    """
    ix = _index(g)
    rng, out = ix.rng, ix.out
    t = g._vindex[w]
    bound = len(g.edges) * (len(g.vertices) + 1)
    inner = [[int(x == t) for x in range(len(g.vertices))]]
    closed = [0]
    while sum(closed) < 2:
        if len(inner) > bound:
            raise DomainError(
                f"vertex {w!r} does not have two closed simple paths within the search bound"
            )
        last = inner[-1]
        cur = [sum([last[r] for r in rs]) for rs in ix.succ]
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
    from .elements import Element, Monomial, mul

    def single(m: tuple) -> Element:
        return Element(g, ((m, 1),), 1)

    if a.graph != g:
        raise DomainError("element is not over this graph")
    if a.is_zero:
        raise DomainError("cannot extract a vertex from 0")

    ix = _index(g)
    left: list[tuple] = []  # kernel pairs (alpha, beta)
    right: list[tuple] = []
    x = a

    def rmul(m: tuple) -> None:
        nonlocal x
        y = mul(x, single(m))
        if y != x:
            right.append(m)
        x = y

    def lmul(m: tuple) -> None:
        nonlocal x
        y = mul(single(m), x)
        if y != x:
            left.append(m)
        x = y

    # Stage 1: eliminate ghost halves.  Terms are kept sorted with the
    # deepest ghost path first, so the first term drives the loop.
    guard = (max(len(b) for (_, b), _ in x.codes) - 1) * (len(g.edges) + 2) + 4
    while len(x.codes[0][0][1]) > 1:
        guard -= 1
        if guard < 0:
            raise AssertionError("ghost elimination failed to make progress")
        w = x.codes[0][0][1][0]
        rmul(((w,), (w,)))
        first = x.codes[0][0][1][1]
        for e in [first] + [f for f in ix.out[w] if f != first]:
            y = mul(x, single(((w, e), (ix.rng[e],))))
            if not y.is_zero:
                right.append(((w, e), (ix.rng[e],)))
                x = y
                break
        else:
            raise AssertionError("every outgoing edge annihilated the element")

    # Stage 2: all terms are real paths.  Project to a common end vertex,
    # then strip the shortest path from the left.
    w = x.codes[0][0][1][0]
    if any(b[0] != w for (_, b), _ in x.codes):
        rmul(((w,), (w,)))
    lmul(((w,), x.codes[0][0][0]))  # the first term's path has minimal degree

    # x is now c1*w plus closed paths based at w.
    def closed_paths() -> list:
        return [a for (a, b), _ in x.codes if len(a) > len(b)]

    closed = closed_paths()
    name = g.vertices[w]
    if closed:
        if _k_classes(g)[0][w] == "K1":
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

    if len(x.codes) != 1 or x.codes[0][0] != ((w,), (w,)):
        raise AssertionError(f"extraction ended on a non-vertex element {x}")
    scalar = x.codes[0][1]
    if x.den != 1:
        from fractions import Fraction
        scalar = Fraction(scalar, x.den)
    witness = ExtractionWitness(
        tuple([Monomial(g, m) for m in left]), tuple([Monomial(g, m) for m in right]), name, scalar
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
    from .elements import Element
    kinds = _k_classes(g)[0]
    if "K1" not in kinds:
        return None
    v = kinds.index("K1")
    lam = Cycle(g, _k1_cycle_ids(g, v))
    return (g.vertices[v], lam, Element(g, ((((v,), (v,)), 1), (((v, *lam.ids), (v,)), 1)), 1))


# --- cycle-polynomial ideals --------------------------------------------------


class CyclePolynomial(Record):
    """A polynomial in a K1 cycle, with the basepoint as its constant term.

    ``cycle`` is the canonical rotation of the cycle and ``base`` a vertex
    name on it.  ``poly`` has a nonzero constant coefficient and degree at
    least one; a plain power multiple is shifted down so the lowest term is
    the vertex.  Canonical generating sets use monic polynomials, but inputs
    need not be monic.  :meth:`of` takes the cycle as a list of edge names
    or as a :class:`Cycle` of ``g``, and the coefficients as a list, each
    read by the coefficient rule, or as a finished :class:`QPoly`.
    """

    __slots__ = __match_args__ = ("cycle", "base", "poly")

    @staticmethod
    def of(
        g: Graph,
        cycle: Cycle | Iterable[str],
        base: str,
        coeffs: QPoly | Iterable[Fraction | int | str],
    ) -> "CyclePolynomial":
        cyc = cycle if type(cycle) is Cycle else Cycle.of(g, cycle)
        if cyc.graph != g:
            raise DomainError("cycle over a different graph")
        if base not in cyc.sources:
            raise DomainError(f"{base!r} is not a source on the cycle")
        p = coeffs if type(coeffs) is QPoly else QPoly.of(coeffs)
        if p.is_zero:
            raise DomainError("zero polynomial")
        p = p.shift_down(p.valuation())
        if p.degree < 1:
            raise DomainError(
                "polynomial reduces to a scalar multiple of a vertex; "
                "use a vertex generator instead"
            )
        if not _is_k1_cycle(g, cyc.ids):
            raise DomainError(f"cycle {cyc} is not the unique closed simple path at {base!r}")
        return CyclePolynomial(cyc.canonical(), base, p)

    @property
    def graph(self) -> Graph:
        return self.cycle.graph


class LambdaGeneratorSet(Record):
    """Raw generators: a tuple of cycle polynomials (repetition allowed) plus
    vertices, held as a bitmask ``mask``, bit i for vertex i."""

    __slots__ = __match_args__ = ("graph", "polys", "mask")

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
        mask = sum({1 << g.vertex_index(v) for v in _listing(vertices, "vertices")})
        return LambdaGeneratorSet(g, ps, mask)


class LambdaReduction(Record):
    """An ideal: a hereditary saturated vertex set ``vertex_part`` plus at
    most one monic polynomial per K1 cycle not based inside it, as (Cycle,
    QPoly) pairs in ``polys``: canonical cycles, rotation-key order.

    :func:`lambda_reduce` and :meth:`of` return the canonical value, whose
    vertex part holds the exit ranges of the cycles that keep a polynomial,
    so one ideal has one value.  The raw constructor checks nothing.
    """

    __slots__ = __match_args__ = ("graph", "vertex_part", "polys")

    @staticmethod
    def of(
        g: Graph,
        vertices: Iterable[str],
        polys: Mapping[Cycle, QPoly] | Iterable[tuple[Cycle, QPoly]] = (),
    ) -> "LambdaReduction":
        """The canonical value; a cycle must be K1 and outside the vertex part,
        validated hereditary first, which its basepoint shows (module docstring)."""
        part = HeredSatSet.of(g, _listing(vertices, "vertices"))
        items = polys.items() if isinstance(polys, Mapping) else polys
        rng = _index(g).rng
        out = {}
        for cyc, p in items:
            if cyc.graph != g:
                raise DomainError("cycle over a different graph")
            c = cyc.canonical()
            if c.ids in out:
                raise DomainError(f"two polynomials on cycle {c}")
            if not _is_k1_cycle(g, c.ids):
                raise DomainError(f"cycle {c} is not a K1 cycle")
            if p.degree < 1 or not p.nums[0] or not p.is_monic:
                raise DomainError(
                    f"polynomial {p} on cycle {c} is not monic with nonzero "
                    "constant term and positive degree"
                )
            if part.mask >> rng[c.ids[-1]] & 1:
                raise DomainError(f"cycle {c} is based inside the vertex part")
            out[c.ids] = (c, p)
        return _reduce(g, out.values(), part.mask)

    def __str__(self) -> str:
        vs = ", ".join(self.vertex_part.sorted_members())
        ps = "; ".join(f"{p} on ({c})" for c, p in self.polys)
        return f"vertices {{{vs}}}" + (f" with {ps}" if ps else "")


def lambda_reduce(g: Graph, gens: LambdaGeneratorSet) -> LambdaReduction:
    """Canonical generating data of the ideal generated by ``gens``.

    Per cycle the polynomials collapse to their monic gcd; a constant gcd
    becomes the cycle's basepoint vertex.  The vertex part is one hereditary
    saturated closure of the vertex generators, those basepoints and the
    exit ranges of the other cycles, and a cycle keeps its polynomial when
    its basepoint lies outside it; no second closure would change either.
    """
    if gens.graph != g:
        raise DomainError("generator set over a different graph")
    return _reduce(g, [(cp.cycle, cp.poly) for cp in gens.polys], gens.mask)


def _reduce(g: Graph, pairs: Iterable[tuple[Cycle, QPoly]], mask: int) -> LambdaReduction:
    """The reduction behind :func:`lambda_reduce` and :meth:`LambdaReduction.of`.

    ``pairs`` hold canonical K1 cycles of g with nonzero polynomials of
    nonzero constant term, and ``mask`` the vertex generators as a bitmask
    over vertex ids, as the ``of`` constructors validate them; nothing is
    checked again here.  Cycles are keyed by their edge ids, and the vertex
    part is the bitmask of the one closure, which is hereditary: a cycle is
    outside it when its basepoint's bit ``rng[key[-1]]`` is clear, never for a constant gcd.
    """
    by_cycle: dict[tuple[int, ...], QPoly] = {}
    for c, p in pairs:
        prev = by_cycle.get(c.ids)
        by_cycle[c.ids] = p if prev is None else QPoly.gcd(prev, p)

    ix = _index(g)
    rng, ids = ix.rng, set(_bits(mask))
    for key, p in by_cycle.items():
        ids |= _exit_ids(ix, key) if p.degree else {rng[key[-1]]}
    mask = _close(ix, list(ids))
    polys = [(Cycle(g, key), by_cycle[key].monic()) for key in sorted(by_cycle)
             if not mask >> rng[key[-1]] & 1]
    return LambdaReduction(g, HeredSatSet(g, mask), tuple(polys))


def contains(g: Graph, a: LambdaReduction, b: LambdaReduction) -> bool:
    """Whether the ideal generated by ``a`` lies inside the one from ``b``.

    The rule: I(a) lies in I(b) exactly when lambda-reducing the generators
    of a and b together gives b again, as ideals are determined by their
    hereditary saturated vertex part and cycle polynomials (Rangaswamy,
    J. Algebra 375 (2013)).  Both sides are canonical, as every reduction
    the library returns is, so nothing is reduced here: a's vertex part
    must lie in b's, and each polynomial of a must sit on a cycle that
    meets b's vertex part or be divisible by b's polynomial on that cycle
    (a missing polynomial acts as the zero polynomial); b's vertex part is
    hereditary, so it meets a cycle when it holds the cycle's basepoint.
    """
    if a.graph != g or b.graph != g:
        raise DomainError("reductions over a different graph")
    if not a.vertex_part <= b.vertex_part:
        return False
    rng, bmask = _index(g).rng, b.vertex_part.mask
    bmap = {c.ids: q for c, q in b.polys}
    for c, p in a.polys:
        if bmask >> rng[c.ids[-1]] & 1:
            continue
        q = bmap.get(c.ids)
        if q is None or not q.divides(p):
            return False
    return True


def vertex_membership(g: Graph, v: str, i: LambdaReduction) -> bool:
    """Whether vertex v lies in the ideal."""
    g.check_vertex(v)
    return v in i.vertex_part


def is_graded(i: LambdaReduction) -> bool:
    """A reduction generates a graded ideal iff it has no polynomials."""
    return not i.polys


# --- JSON wire format ---------------------------------------------------------
#
# {"vertices": ["u"],
#  "polys": [{"cycle": ["e"], "base": "v", "coeffs": ["1", "0", "1"]}]}
#
# Coefficients are ascending-degree rationals as strings, such as "-3", "1/2"
# or "0.25", written with ASCII digits; exponent notation and "_" are
# rejected for the whole list, which ``QPoly.of`` then reads once by the
# coefficient rule, ``records._rational``, reporting Fraction's error;
# ``CyclePolynomial.of`` takes the finished polynomial, and the cycle read
# once for a missing base.
# A JSON number reads as its digits in a string would: 1.0000000000000001
# is not rounded to 1, and 1e5 is refused, and quoted, as "1e5" is.  A
# coefficient that is true, false, null, an array or an object is refused
# by its JSON type, before any text is read; so is a "base" that is not a
# string, and null stands for no "base".


class _JsonDecimal(float):
    """A JSON number with a fraction or an exponent, read by ``parse_float``:
    the float, with the float's ``repr``, whose ``str`` is its literal text
    unless it overflows ("inf", which the coefficient rule refuses)."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return float.__str__(self) if isinf(self) else self.text


def _shown(coeffs: list) -> str:
    """A list refused for an exponent as messages show it: JSON numbers as
    floats, or as literals if only a literal shows the exponent (1e5)."""
    floats = " ".join(repr(c) if isinstance(c, _JsonDecimal) else str(c) for c in coeffs)
    literals = ", ".join(str(c) if isinstance(c, _JsonDecimal) else repr(c) for c in coeffs)
    return repr(coeffs) if _EXPONENT.search(floats) else f"[{literals}]"


def _names(value, key: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"'{key}' must be a list of names")
    return value


def generator_set_from_json(g: Graph, data) -> LambdaGeneratorSet:
    """Generators from ideal JSON, ``{"vertices": [...], "polys": [...]}``,
    given as text or as the decoded object.  A polynomial of degree above
    :data:`DEGREE_BUDGET`, or whose degree times coefficient bits is above
    :data:`SIZE_BUDGET`, raises DomainError."""
    if isinstance(data, str):
        try:
            data = json.loads(data, parse_float=_JsonDecimal)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad ideal JSON: {exc}") from exc
        except ValueError as exc:  # an integer beyond the interpreter's int() digit limit
            raise ParseError("bad ideal JSON: a number has too many digits") from exc
        except RecursionError as exc:
            raise ParseError("bad ideal JSON: nested too deeply") from exc
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
        cycle = _names(entry["cycle"], "cycle")
        if not isinstance(entry["coeffs"], list):
            raise ParseError("'coeffs' must be a list of coefficients")
        base = entry.get("base")
        if base is None:  # a bad cycle is then reported before bad coefficients
            cycle = Cycle.of(g, cycle)
            base = cycle.sources[0]
        elif not isinstance(base, str):
            raise ParseError("'base' must be a name")
        for c in entry["coeffs"]:
            if c is None or isinstance(c, (bool, list, dict)):  # a bool is an int
                raise ParseError(_refusal(json.dumps(c, default=str), "a number or a string"))
        texts = [str(c) for c in entry["coeffs"]]
        joined = " ".join(texts)  # a space starts no match of either guard
        if _EXPONENT.search(joined):
            raise ParseError(f"exponent notation in coefficients {_shown(entry['coeffs'])}")
        if _NOT_ASCII_DIGIT.search(joined):
            raise ParseError(f"non-ASCII digit or '_' in coefficients {entry['coeffs']}")
        try:
            poly = QPoly.of(texts)
        except DomainError as exc:
            why = exc.__cause__
            why = "zero denominator" if isinstance(why, ZeroDivisionError) else why
            raise ParseError(f"bad coefficient in {entry['coeffs']}: {why}") from exc
        if poly.degree > DEGREE_BUDGET:
            raise DomainError(
                f"polynomial of degree {poly.degree} is over the degree budget of {DEGREE_BUDGET}"
            )
        bits = sum(map(int.bit_length, poly.nums)) + poly.den.bit_length()
        if poly.degree * bits > SIZE_BUDGET:
            raise DomainError(f"polynomial of size {poly.degree * bits} (degree {poly.degree} times"
                              f" {bits} coefficient bits) is over the size budget of {SIZE_BUDGET}")
        polys.append(CyclePolynomial.of(g, cycle, base, poly))
    return LambdaGeneratorSet.of(g, polys, vertices)


def reduction_to_json(red: LambdaReduction) -> dict:
    return {
        "vertices": list(red.vertex_part.sorted_members()),
        "polys": [
            {"cycle": list(c.edges), "base": c.sources[0], "coeffs": list(p.to_strings())}
            for c, p in red.polys
        ],
    }
