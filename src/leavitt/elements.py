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
with like-term collection, makes equality decidable by comparing term maps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DomainError, ParseError
from .graphs import Graph, Path

__all__ = [
    "Monomial",
    "Element",
    "GradedDecomposition",
    "vertex_element",
    "path_element",
    "ghost_path_element",
    "monomial",
    "monomial_element",
    "unit",
    "mul_monomials",
    "normalize",
    "mul",
    "add",
    "sub",
    "scale",
    "graded_components",
    "degree",
    "gdeg",
    "is_homogeneous",
    "parse_element",
    "format_element",
]


@dataclass(frozen=True)
class Monomial:
    """A product a.b*' of a real path and a reversed ghost path.

    Both paths live in one graph and share their range vertex.  The degree
    is deg(a) - deg(b); the ghost degree is deg(b).
    """

    alpha: Path
    beta: Path

    def __post_init__(self) -> None:
        if self.alpha.graph != self.beta.graph:
            raise DomainError("monomial mixes two graphs")
        if self.alpha.rng != self.beta.rng:
            raise DomainError(
                f"monomial paths end at different vertices: "
                f"{self.alpha.rng!r} vs {self.beta.rng!r}"
            )

    @property
    def graph(self) -> Graph:
        return self.alpha.graph

    @property
    def degree(self) -> int:
        return self.alpha.deg - self.beta.deg

    @property
    def ghost_degree(self) -> int:
        return self.beta.deg

    @property
    def row(self) -> str:
        """Source vertex: the monomial is killed by other vertices on the left."""
        return self.alpha.src

    @property
    def col(self) -> str:
        """Sink-side vertex: the monomial is killed by other vertices on the right."""
        return self.beta.src

    def sort_key(self) -> tuple:
        return (-self.ghost_degree, self.degree, self.alpha.key(), self.beta.key())

    def __str__(self) -> str:
        parts = list(self.alpha.edges)
        parts.extend(e + "*'" for e in reversed(self.beta.edges))
        return ".".join(parts) if parts else self.alpha.base


def monomial(
    g: Graph,
    alpha: Iterable[str] = (),
    beta: Iterable[str] = (),
    at: str | None = None,
) -> Monomial:
    """Monomial from edge lists.

    ``at`` anchors empty paths: it is the monomial's vertex when both edge
    lists are empty and is ignored otherwise (empty sides anchor at the
    other side's range).
    """
    a, b = tuple(alpha), tuple(beta)
    if a:
        ap = Path.of(g, a)
    elif b:
        ap = Path.of(g, (), at=Path.of(g, b).rng)
    else:
        ap = Path.of(g, (), at=at)
    bp = Path.of(g, b) if b else Path.of(g, (), at=ap.rng)
    return Monomial(ap, bp)


@dataclass(frozen=True)
class Element:
    """Immutable term map Monomial -> nonzero rational, canonically ordered.

    :meth:`of` collects like terms and drops zeros but performs no
    rewriting; arithmetic helpers and :func:`normalize` produce normal
    forms.  Terms are ordered by (ghost degree desc, degree asc, paths).
    """

    graph: Graph
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def of(graph: Graph, items: Iterable[tuple[Monomial, Fraction | int]]) -> "Element":
        acc: dict[Monomial, Fraction] = {}
        for m, c in items:
            if m.graph != graph:
                raise DomainError("monomial from a different graph")
            c = Fraction(c)
            if c == 0:
                continue
            acc[m] = acc.get(m, Fraction(0)) + c
        kept = [(m, c) for m, c in acc.items() if c != 0]
        kept.sort(key=lambda mc: mc[0].sort_key())
        return Element(graph, tuple(kept))

    @staticmethod
    def zero(graph: Graph) -> "Element":
        return Element(graph, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, m: Monomial) -> Fraction:
        for mm, c in self.terms:
            if mm == m:
                return c
        return Fraction(0)

    def term_map(self) -> Mapping[Monomial, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)

    def __neg__(self) -> "Element":
        return Element(self.graph, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, Element):
            return mul(self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)

    def __str__(self) -> str:
        return format_element(self)


def vertex_element(g: Graph, v: str) -> Element:
    g.check_vertex(v)
    return Element.of(g, [(monomial(g, at=v), 1)])


def path_element(g: Graph, edges: Iterable[str]) -> Element:
    """The real path given by ``edges`` as an element (a vertex if empty is not allowed)."""
    return Element.of(g, [(monomial(g, alpha=tuple(edges)), 1)])


def ghost_path_element(g: Graph, edges: Iterable[str]) -> Element:
    """The reversed ghost path b*' for the real path b given by ``edges``."""
    es = tuple(edges)
    bp = Path.of(g, es)
    ap = Path.of(g, (), at=bp.rng)
    return Element.of(g, [(Monomial(ap, bp), 1)])


def monomial_element(
    g: Graph,
    alpha: Iterable[str] = (),
    beta: Iterable[str] = (),
    at: str | None = None,
    coeff: Fraction | int = 1,
) -> Element:
    return Element.of(g, [(monomial(g, alpha, beta, at), coeff)])


def unit(g: Graph) -> Element:
    """The multiplicative unit: the sum of all vertices."""
    return Element.of(g, [(monomial(g, at=v), 1) for v in g.vertices])


def _reduced_turn(g: Graph, m: Monomial) -> str | None:
    """Turn vertex when both paths end in its special edge, else None."""
    a, b = m.alpha.edges, m.beta.edges
    if a and b and a[-1] == b[-1]:
        w = g.src(a[-1])
        if g.special_edge(w) == a[-1]:
            return w
    return None


def _rewrite(g: Graph, items: Iterable[tuple[Monomial, Fraction]]) -> list[tuple[Monomial, Fraction]]:
    """Expand every special-special turn through the vertex identity.

    Each expansion swaps one monomial for a strictly shorter one plus
    same-length monomials whose turn edge is no longer special, so the
    rewriting terminates.
    """
    out: dict[Monomial, Fraction] = {}
    stack = [(m, Fraction(c)) for m, c in items]
    while stack:
        m, c = stack.pop()
        if c == 0:
            continue
        w = _reduced_turn(g, m)
        if w is None:
            out[m] = out.get(m, Fraction(0)) + c
            continue
        gam = m.alpha.edges[-1]
        ap = m.alpha.drop_last()
        bp = m.beta.drop_last()
        stack.append((Monomial(ap, bp), c))
        for f in g.out_edges(w):
            if f != gam:
                stack.append((Monomial(ap.extend((f,)), bp.extend((f,))), -c))
    return [(m, c) for m, c in out.items() if c != 0]


def normalize(x: Element) -> Element:
    """Normal form of x; idempotent and degree-preserving per term."""
    return Element.of(x.graph, _rewrite(x.graph, x.terms))


def _mul_raw(m1: Monomial, m2: Monomial) -> Monomial | None:
    """Product of two monomials before rewriting; None when it vanishes.

    The ghost half of m1 eats into the real half of m2 edge by edge; the
    product survives exactly when one of the two is a prefix of the other.
    """
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


def mul_monomials(m1: Monomial, m2: Monomial) -> Element:
    """Normalized product of two monomials."""
    if m1.graph != m2.graph:
        raise DomainError("cannot multiply monomials over different graphs")
    m = _mul_raw(m1, m2)
    if m is None:
        return Element.zero(m1.graph)
    return Element.of(m1.graph, _rewrite(m1.graph, [(m, Fraction(1))]))


def _same_graph(x: Element, y: Element) -> None:
    if x.graph != y.graph:
        raise DomainError("elements live over different graphs")


def mul(x: Element, y: Element) -> Element:
    """Bilinear product, returned in normal form."""
    _same_graph(x, y)
    raw = []
    for m1, c1 in x.terms:
        for m2, c2 in y.terms:
            m = _mul_raw(m1, m2)
            if m is not None:
                raw.append((m, c1 * c2))
    return Element.of(x.graph, _rewrite(x.graph, raw))


def add(x: Element, y: Element) -> Element:
    _same_graph(x, y)
    return Element.of(x.graph, x.terms + y.terms)


def sub(x: Element, y: Element) -> Element:
    _same_graph(x, y)
    return Element.of(x.graph, x.terms + tuple((m, -c) for m, c in y.terms))


def scale(c: Fraction | int, x: Element) -> Element:
    c = Fraction(c)
    return Element.of(x.graph, tuple((m, c * cc) for m, cc in x.terms))


@dataclass(frozen=True)
class GradedDecomposition:
    """Partition of an element's terms by degree; components sum to it."""

    graph: Graph
    components: tuple[tuple[int, Element], ...]  # ascending degree

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.components)

    def component(self, d: int) -> Element:
        for dd, e in self.components:
            if dd == d:
                return e
        return Element.zero(self.graph)

    def total(self) -> Element:
        acc = Element.zero(self.graph)
        for _, e in self.components:
            acc = add(acc, e)
        return acc


def graded_components(x: Element) -> GradedDecomposition:
    by_deg: dict[int, list[tuple[Monomial, Fraction]]] = {}
    for m, c in x.terms:
        by_deg.setdefault(m.degree, []).append((m, c))
    comps = tuple(
        (d, Element.of(x.graph, by_deg[d])) for d in sorted(by_deg)
    )
    return GradedDecomposition(x.graph, comps)


def degree(m: Monomial) -> int:
    return m.degree


def gdeg(x: Element) -> int:
    """Ghost degree of a normal form: the largest ghost-path length among terms."""
    if x.is_zero:
        raise DomainError("the zero element has no ghost degree")
    return max(m.ghost_degree for m, _ in x.terms)


def is_homogeneous(x: Element) -> bool:
    return len({m.degree for m, _ in x.terms}) <= 1


# --- textual form -----------------------------------------------------------
#
# element  := ['+'|'-'] term (('+'|'-') term)*
# term     := [rational '*'] monomial
# monomial := factor ('.' factor)*
# factor   := NAME | NAME "*'"          (NAME*' is a ghost edge)
# rational := INT | INT '/' INT
#
# The serializer emits normal forms deterministically; "0" is the zero
# element.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<ghost>\*')"
    r"|(?P<star>\*)"
    r"|(?P<dot>\.)"
    r"|(?P<slash>/)"
    r"|(?P<plus>\+)"
    r"|(?P<minus>-)"
)


def _tokenize(s: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ParseError(f"unexpected character {s[pos]!r} at position {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group()))
    return tokens


class _ElementParser:
    def __init__(self, g: Graph, tokens: list[tuple[str, str]]):
        self.g = g
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> str:
        if self.peek() != kind:
            got = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
            raise ParseError(f"expected {kind}, got {got!r}")
        tok = self.tokens[self.pos][1]
        self.pos += 1
        return tok

    def element(self) -> Element:
        sign = Fraction(1)
        if self.peek() in ("plus", "minus"):
            if self.take(self.peek()) == "-":
                sign = Fraction(-1)
        # Like terms are collected once, over the whole sum.
        items = list(scale(sign, self.term()).terms)
        while self.peek() in ("plus", "minus"):
            sign = Fraction(1) if self.take(self.peek()) == "+" else Fraction(-1)
            items.extend(scale(sign, self.term()).terms)
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input at {self.tokens[self.pos][1]!r}")
        return Element.of(self.g, items)

    def integer(self) -> int:
        digits = self.take("num")
        try:
            return int(digits)
        except ValueError as exc:  # beyond the interpreter's int() digit limit
            raise ParseError(f"numeral of {len(digits)} digits is too long") from exc

    def term(self) -> Element:
        coeff = Fraction(1)
        if self.peek() == "num":
            num = self.integer()
            den = 1
            if self.peek() == "slash":
                self.take("slash")
                den = self.integer()
                if den == 0:
                    raise ParseError("zero denominator")
            coeff = Fraction(num, den)
            self.take("star")
        return scale(coeff, self.monomial())

    def monomial(self) -> Element:
        factors = [self.factor()]
        while self.peek() == "dot":
            self.take("dot")
            factors.append(self.factor())
        # structural composability: each factor must start where the last ended
        here = None
        for text, src, rng, elem in factors:
            if here is not None and src != here:
                raise ParseError(
                    f"non-composable path: {text!r} starts at {src!r}, "
                    f"previous factor ends at {here!r}"
                )
            here = rng
        acc = factors[0][3]
        for _, _, _, elem in factors[1:]:
            acc = mul(acc, elem)
        return acc

    def factor(self) -> tuple[str, str, str, Element]:
        name = self.take("name")
        ghost = self.peek() == "ghost"
        if ghost:
            self.take("ghost")
        g = self.g
        if g.has_vertex(name):
            if ghost:
                raise ParseError(f"ghost marker on vertex {name!r}")
            return (name, name, name, vertex_element(g, name))
        if g.has_edge(name):
            s, r = g.src(name), g.rng(name)
            if ghost:
                return (name + "*'", r, s, ghost_path_element(g, (name,)))
            return (name, s, r, path_element(g, (name,)))
        raise ParseError(f"unknown vertex or edge {name!r}")


def parse_element(g: Graph, text: str) -> Element:
    """Parse the element grammar and return the normal form."""
    if text.strip() == "0":
        return Element.zero(g)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element expression")
    return normalize(_ElementParser(g, tokens).element())


def _format_coeff(c: Fraction) -> str:
    return str(c)


def format_element(x: Element) -> str:
    """Deterministic textual form of an element (normal or not)."""
    if x.is_zero:
        return "0"
    parts = []
    for i, (m, c) in enumerate(x.terms):
        mag = abs(c)
        body = str(m) if mag == 1 else f"{_format_coeff(mag)}*{m}"
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
