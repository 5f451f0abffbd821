"""Elements of the Leavitt path algebra of a finite graph, over the rationals.

An element is a finite rational linear combination of monomials a.b*' (a
real path times a reversed ghost path sharing its range).  Multiplication
contracts ghost edges against real edges: e*'.f is 0 for distinct edges and
the range vertex for e == f, and for every non-sink vertex v the identity
v = sum of f.f*' over the edges f leaving v holds.

Normal form: for each non-sink vertex the first outgoing edge (in input
order) is *special*; a stored monomial never has both of its paths ending
in the special edge of their common turn vertex.  Such monomials are
expanded through the vertex identity above, which terminates and, together
with like-term collection, makes equality decidable by comparing terms.

Representation: a path is the integer tuple ``(base_vertex_id, *edge_ids)``,
the ``code`` a :class:`~leavitt.graphs.Path` holds, and a monomial a.b*' is
the record ``(graph, code)`` whose code is the pair ``(a, b)`` of path
codes.  An element is the record ``(graph, codes)`` of its terms
``((a, b), c)``.  Ids are positions in
the graph's vertex and edge lists, so the term order (ghost degree
descending, degree ascending, then the paths' codes) is the tuple
``(1 - len(b), len(a) - len(b), a, b)``.  Coefficients are ints while
integral and Fractions otherwise, read by the package's one coefficient
rule, ``polynomials._rational``; sums and products work on integer
numerators over a common denominator.  They, rewriting and text read only
these tuples and the graph's cached integer adjacency (the range of each
edge, and the vertex identity's other edges for a special edge), so their
cost does not depend on unrelated vertices and edges.  ``Element.terms``
pairs each code with a ``Monomial`` record on every access, and names are
built only for text.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .errors import DomainError, ParseError
from .graphs import Graph, Path, _index, _listing
from .records import Record

__all__ = [
    "Monomial", "Element", "GradedDecomposition", "vertex_element", "path_element",
    "ghost_path_element", "monomial", "monomial_element", "unit", "normalize",
    "mul", "add", "sub", "scale", "graded_components", "gdeg",
    "parse_element", "format_element",
]


class Monomial(Record):
    """A product a.b*' of a real path and a reversed ghost path, held as the
    kernel's pair of path codes ``code = (a, b)``.

    Both paths share their range vertex.  :func:`monomial` checks that, and
    so does every element built from monomials; ``Monomial(graph, code)``
    is the raw constructor and checks nothing, like ``Path(graph, code)``.
    The degree is deg(a) - deg(b).
    """

    __slots__ = __match_args__ = ("graph", "code")

    @property
    def alpha(self) -> Path:
        return Path(self.graph, self.code[0])

    @property
    def beta(self) -> Path:
        return Path(self.graph, self.code[1])

    @property
    def degree(self) -> int:
        a, b = self.code
        return len(a) - len(b)

    def __str__(self) -> str:
        return _word(self.graph, *self.code)


def monomial(
    g: Graph,
    alpha: Iterable[str] = (),
    beta: Iterable[str] = (),
    at: str | None = None,
) -> Monomial:
    """Monomial from edge lists, whose paths must end at one vertex.

    ``at`` anchors empty paths: it is the monomial's vertex when both edge
    lists are empty and is ignored otherwise (empty sides anchor at the
    other side's range).
    """
    a, b = _listing(alpha, "alpha"), _listing(beta, "beta")
    if a:
        ap = Path.of(g, a)
    elif b:
        ap = Path.of(g, (), at=Path.of(g, b).rng)
    else:
        ap = Path.of(g, (), at=at)
    bp = Path.of(g, b) if b else Path.of(g, (), at=ap.rng)
    if ap._rng_id() != bp._rng_id():
        raise DomainError(
            f"monomial paths end at different vertices: {ap.rng!r} vs {bp.rng!r}"
        )
    return Monomial(g, (ap.code, bp.code))


def _word(g: Graph, a: tuple, b: tuple) -> str:
    """Text of the monomial a.b*': its edges, then its ghost edges in reverse; or its vertex."""
    if len(a) > 1 or len(b) > 1:
        es = g.edges
        return ".".join([es[i] for i in a[1:]] + [es[i] + "*'" for i in b[:0:-1]])
    return g.vertices[a[0]]


def _is_scalar(c) -> bool:
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


class Element(Record):
    """Immutable sum of monomials with nonzero rational coefficients, held as
    the kernel's terms ``((a, b), c)`` in term order.

    :meth:`of` collects like terms and drops zeros but performs no
    rewriting; arithmetic helpers and :func:`normalize` produce normal
    forms.  Terms are ordered by (ghost degree desc, degree asc, paths).
    ``Element(graph, codes)`` is the raw constructor and checks nothing.
    """

    __slots__ = __match_args__ = ("graph", "codes")

    @staticmethod
    def of(graph: Graph, items: Iterable[tuple[Monomial, Fraction | int | str]]) -> "Element":
        """Sum of ``(monomial, coefficient)`` pairs, each coefficient read by
        the rule of :func:`leavitt.polynomials._rational`."""
        from .polynomials import _rational
        codes = []
        for m, c in items:
            if m.graph != graph:
                raise DomainError("monomial from a different graph")
            codes.append((m.code, _rational(c)))
        return _sum(graph, codes)

    @staticmethod
    def zero(graph: Graph) -> "Element":
        return Element(graph, ())

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """The ``(Monomial, Fraction)`` pairs of the codes, built on each access."""
        g = self.graph
        return tuple([(Monomial(g, m), Fraction(c)) for m, c in self.codes])

    @property
    def is_zero(self) -> bool:
        return not self.codes

    def coeff(self, m: Monomial) -> Fraction:
        """The coefficient of ``m`` among the terms; 0 for a monomial of another graph."""
        return Fraction(dict(self.codes).get(m.code, 0) if m.graph == self.graph else 0)

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)

    def __neg__(self) -> "Element":
        return Element(self.graph, tuple((m, -c) for m, c in self.codes))

    def __mul__(self, other):
        if isinstance(other, Element):
            return mul(self, other)
        return scale(other, self) if _is_scalar(other) else NotImplemented

    def __rmul__(self, other):
        return scale(other, self) if _is_scalar(other) else NotImplemented

    def __str__(self) -> str:
        return format_element(self)


def vertex_element(g: Graph, v: str) -> Element:
    g.check_vertex(v)
    return Element.of(g, [(monomial(g, at=v), 1)])


def path_element(g: Graph, edges: Iterable[str]) -> Element:
    """The real path given by ``edges`` as an element (a vertex if empty is not allowed)."""
    return Element.of(g, [(monomial(g, alpha=_listing(edges, "edges")), 1)])


def ghost_path_element(g: Graph, edges: Iterable[str]) -> Element:
    """The reversed ghost path b*' for the real path b given by ``edges``."""
    return Element.of(g, [(monomial(g, beta=_listing(edges, "edges")), 1)])


def monomial_element(
    g: Graph,
    alpha: Iterable[str] = (),
    beta: Iterable[str] = (),
    at: str | None = None,
    coeff: Fraction | int | str = 1,
) -> Element:
    return Element.of(g, [(monomial(g, alpha, beta, at), coeff)])


def unit(g: Graph) -> Element:
    """The multiplicative unit: the sum of all vertices."""
    return Element.of(g, [(monomial(g, at=v), 1) for v in g.vertices])


# --- the integer kernel ---------------------------------------------------------


def _order(term: tuple) -> tuple:
    (a, b), _ = term
    return (1 - len(b), len(a) - len(b), a, b)


def _scaled(terms) -> tuple[list[tuple], int]:
    """``terms`` with their last entries (coefficients) as numerators over their LCD d; and d."""
    dens = [c.denominator for *_, c in terms if type(c) is not int]
    if not dens:
        return terms, 1
    d = lcm(*dens)
    return [(*t, c.numerator * (d // c.denominator)) for *t, c in terms], d


def _collect(g: Graph, acc: dict, den: int = 1) -> Element:
    """Element of the nonzero terms of ``acc`` (over ``den``), checked and in term order."""
    rng = _index(g).rng
    kept = []
    for m, c in acc.items():
        if c:
            a, b = m
            if (rng[a[-1]] if len(a) > 1 else a[0]) != (rng[b[-1]] if len(b) > 1 else b[0]):
                raise DomainError("monomial paths end at different vertices")
            if den != 1:
                c = c // den if c % den == 0 else Fraction(c, den)
            kept.append((m, c))
    kept.sort(key=_order)
    return Element(g, tuple(kept))


def _sum(g: Graph, codes: Iterable[tuple]) -> Element:
    codes, d = _scaled(list(codes))
    acc: dict[tuple, int] = {}
    for m, c in codes:
        acc[m] = acc.get(m, 0) + c
    return _collect(g, acc, d)


def _rewrite(g: Graph, stack: list[tuple], den: int = 1) -> Element:
    """Normal form of the sum of the (a, b, c) triples on ``stack``.

    A monomial whose paths both end in the special edge e of their turn
    vertex is expanded through the vertex identity: a.e.e*'.b*' becomes
    a.b*' minus a.f.f*'.b*' over the other edges f leaving the turn
    vertex.  Each expansion swaps one monomial for a strictly shorter one
    plus same-length monomials whose turn edge is no longer special, so
    the rewriting terminates.  ``stack`` holds numerators over ``den``; it is consumed.
    """
    expand = _index(g).expand
    acc: dict[tuple, int] = {}
    while stack:
        a, b, c = stack.pop()
        if len(a) > 1 and len(b) > 1 and a[-1] == b[-1]:
            others = expand[a[-1]]
            if others is not None:
                a, b = a[:-1], b[:-1]
                stack.append((a, b, c))
                for f in others:
                    stack.append((a + (f,), b + (f,), -c))
                continue
        m = (a, b)
        acc[m] = acc.get(m, 0) + c
    return _collect(g, acc, den)


def normalize(x: Element) -> Element:
    """Normal form of x; idempotent and degree-preserving per term."""
    return _rewrite(x.graph, *_scaled([(a, b, c) for (a, b), c in x.codes]))


def _product(g: Graph, xs: tuple, ys: tuple) -> Element:
    """Normal form of the product of two term tuples.

    The ghost half b1 of a left term eats into the real half a2 of a right
    term edge by edge; the product survives exactly when one of the two is
    a prefix of the other, base vertex id included.
    """
    (xs, dx), (ys, dy) = _scaled(xs), _scaled(ys)
    stack = []
    for (a1, b1), c1 in xs:
        nb = len(b1)
        for (a2, b2), c2 in ys:
            na = len(a2)
            if nb <= na:
                if a2[:nb] == b1:
                    stack.append((a1 + a2[nb:], b2, c1 * c2))
            elif b1[:na] == a2:
                stack.append((a1, b2 + b1[na:], c1 * c2))
    return _rewrite(g, stack, dx * dy)


def _same_graph(x: Element, y: Element) -> None:
    if x.graph is not y.graph and x.graph != y.graph:
        raise DomainError("elements live over different graphs")


def mul(x: Element, y: Element) -> Element:
    """Bilinear product, returned in normal form."""
    _same_graph(x, y)
    return _product(x.graph, x.codes, y.codes)


def add(x: Element, y: Element) -> Element:
    _same_graph(x, y)
    return _sum(x.graph, x.codes + y.codes)


def sub(x: Element, y: Element) -> Element:
    _same_graph(x, y)
    return _sum(x.graph, x.codes + tuple((m, -c) for m, c in y.codes))


def scale(c: Fraction | int, x: Element) -> Element:
    """c times x for an int (not a bool) or a Fraction c; other types raise TypeError."""
    if not _is_scalar(c):
        raise TypeError(f"a scalar must be an int or a Fraction, not {type(c).__name__}")
    return _sum(x.graph, ((m, c * cc) for m, cc in x.codes))


class GradedDecomposition(Record):
    """Partition of an element's terms into ``(degree, Element)`` components,
    in ascending degree; the components sum to it."""

    __slots__ = __match_args__ = ("graph", "components")


def graded_components(x: Element) -> GradedDecomposition:
    by_deg: dict[int, list[tuple]] = {}
    for t in x.codes:
        (a, b), _ = t
        by_deg.setdefault(len(a) - len(b), []).append(t)
    comps = tuple((d, _sum(x.graph, by_deg[d])) for d in sorted(by_deg))
    return GradedDecomposition(x.graph, comps)


def gdeg(x: Element) -> int:
    """Ghost degree of a normal form: the largest ghost-path length among terms."""
    if x.is_zero:
        raise DomainError("the zero element has no ghost degree")
    return max(len(b) for (_, b), _ in x.codes) - 1


# --- textual form -----------------------------------------------------------
#
# element  := ['+'|'-'] term (('+'|'-') term)*
# term     := [rational '*'] monomial
# monomial := factor ('.' factor)*
# factor   := NAME | NAME "*'"          (NAME*' is a ghost edge)
# rational := INT | INT '/' INT         (INT is [0-9]+)
#
# The parser emits kernel codes: a vertex v is ((v,), (v,)), an edge e from
# s to r is ((s, e), (r,)) and its ghost ((r,), (s, e)).  A word's factors
# multiply by the kernel's prefix rule into one pair, or into nothing when a
# ghost edge meets a different real edge; the sum is rewritten once.  The
# serializer emits normal forms deterministically; "0" is the zero element.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<ghost>\*')"
    r"|(?P<star>\*)"
    r"|(?P<dot>\.)"
    r"|(?P<slash>/)"
    r"|(?P<plus>\+)"
    r"|(?P<minus>-)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(s: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN_RE.finditer(s):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} at position {m.start()}")
        if kind != "ws":
            tokens.append((kind, m.group()))
    return tokens


def _parse_words(g: Graph, tokens: list[tuple[str, str]]) -> list[tuple]:
    """The (a, b, c) triple of every word of the sum that does not vanish.

    All factors of a word are looked up before their composability is
    checked, so an unknown name is reported before a mismatch.
    """
    vi, ei, rng = g._vindex, g._eindex, _index(g).rng
    tokens = tokens + [(None, "end of input")]
    pos = 0

    def take(kind: str) -> str:
        nonlocal pos
        got, tok = tokens[pos]
        if got != kind:
            raise ParseError(f"expected {kind}, got {tok!r}")
        pos += 1
        return tok

    def integer() -> int:
        digits = take("num")
        try:
            return int(digits)
        except ValueError as exc:  # beyond the interpreter's int() digit limit
            raise ParseError(f"numeral of {len(digits)} digits is too long") from exc

    def factor() -> tuple[str, str, str, tuple]:
        nonlocal pos
        name = take("name")
        ghost = tokens[pos][0] == "ghost"
        if ghost:
            pos += 1
        if name in vi:
            if ghost:
                raise ParseError(f"ghost marker on vertex {name!r}")
            return (name, name, name, ((vi[name],), (vi[name],)))
        if name in ei:
            e = ei[name]
            s, r = g.ends[e]
            code = ((vi[s], e), (rng[e],))
            return (name + "*'", r, s, code[::-1]) if ghost else (name, s, r, code)
        raise ParseError(f"unknown vertex or edge {name!r}")

    words = []
    sign = -1 if tokens[0][0] == "minus" else 1
    if tokens[0][0] in ("plus", "minus"):
        pos = 1
    while True:
        c = sign
        if tokens[pos][0] == "num":
            num, den = integer(), 1
            if tokens[pos][0] == "slash":
                pos += 1
                den = integer()
                if den == 0:
                    raise ParseError("zero denominator")
            c *= num if den == 1 else Fraction(num, den)
            take("star")
        factors = [factor()]
        while tokens[pos][0] == "dot":
            pos += 1
            factors.append(factor())
        here = factors[0][2]
        for text, src, end, _ in factors[1:]:
            if src != here:
                raise ParseError(
                    f"non-composable path: {text!r} starts at {src!r}, "
                    f"previous factor ends at {here!r}"
                )
            here = end
        a, b = factors[0][3]
        for _, _, _, (a2, b2) in factors[1:]:
            if len(b) <= len(a2):
                if a2[: len(b)] != b:
                    break
                a, b = a + a2[len(b):], b2
            elif b[: len(a2)] == a2:
                b = b2 + b[len(a2):]
            else:
                break
        else:
            words.append((a, b, c))
        if tokens[pos][0] not in ("plus", "minus"):
            break
        sign = 1 if tokens[pos][0] == "plus" else -1
        pos += 1
    if pos != len(tokens) - 1:
        raise ParseError(f"trailing input at {tokens[pos][1]!r}")
    return words


def parse_element(g: Graph, text: str) -> Element:
    """Parse the element grammar and return the normal form."""
    if not isinstance(text, str):
        raise ParseError(f"element text must be a string, not {type(text).__name__}")
    if text.strip() == "0":
        return Element.zero(g)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element expression")
    return _rewrite(g, *_scaled(_parse_words(g, tokens)))


def format_element(x: Element) -> str:
    """Deterministic textual form of an element (normal or not)."""
    if x.is_zero:
        return "0"
    g = x.graph
    parts = []
    for (a, b), c in x.codes:
        word = _word(g, a, b)
        mag = abs(c)
        body = word if mag == 1 else f"{mag}*{word}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return " ".join(parts)
