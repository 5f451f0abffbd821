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
codes.  An element is the record ``(graph, codes, den)``: its terms
``((a, b), n)`` in term order, each with an int numerator n, over one
positive denominator ``den``, in lowest terms (``gcd(den, *ns) == 1``), so
equal elements have equal records.  Ids are positions in the graph's vertex
and edge lists, so the term order (ghost degree descending, degree
ascending, then the paths' codes) is the tuple
``(1 - len(b), len(a) - len(b), a, b)``.

Arithmetic is spelled only as the functions :func:`add`, :func:`sub`,
:func:`mul` and :func:`scale`; :class:`Element` defines no operators.
Parsing, sums, products, rewriting and scaling work on the numerators: a
sum brings its operands over the lcm of their denominators, a product over
their product, and each result is reduced by one gcd (the method of
Knuth, TAOCP vol. 2, 4.5.1).  They and text read only these tuples and
the graph's cached integer adjacency (the range of each edge, and the
vertex identity's other edges for a special edge), so their cost does not
depend on unrelated vertices and edges.  A coefficient is a Fraction only
where it enters or leaves the kernel, and ``fractions`` is imported only
there: ``Element.of`` reads ints, strings and Fractions by the package's
one coefficient rule, ``records._rational``, which builds a Fraction
only from a text that ``int()`` refuses; :func:`scale` looks for one only
when its scalar is not an int; ``Element.terms`` pairs each code with a
``Monomial`` record and a Fraction on every access; and
``ideals.ExtractionWitness.scalar`` is a Fraction only when it is not
integral.  So an ``lpa`` command on integer input never loads
``fractions``, nor the ``decimal`` and ``numbers`` it imports.  Names are
built only for text, which ``records._signed_sum`` writes, as it writes
polynomials.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from math import gcd, lcm

from .errors import DomainError, ParseError
from .graphs import Graph, Path, _index, _listing
from .records import Record, _rational, _signed_sum

TYPE_CHECKING = False  # type checkers read it as true; importing typing slows every lpa process
if TYPE_CHECKING:
    from fractions import Fraction

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
    ap = Path.of(g, a) if a else None
    bp = Path.of(g, b) if b else Path.of(g, (), at=at if ap is None else ap.rng)
    ap = ap or Path.of(g, (), at=bp.rng)
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


class Element(Record):
    """Immutable sum of monomials with nonzero rational coefficients, held as
    the kernel's terms ``((a, b), n)`` in term order over one denominator.

    The coefficient of the term ``((a, b), n)`` is ``n / den``: every ``n``
    is a nonzero int, ``den`` a positive int, and ``gcd(den, *ns) == 1``, so
    each element has one record and record equality is equality of
    elements.  :attr:`terms` gives the coefficients as Fractions.

    :meth:`of` collects like terms and drops zeros but performs no
    rewriting; :func:`add`, :func:`sub`, :func:`mul`, :func:`scale` and
    :func:`normalize` produce normal forms.  They are the only spelling of
    element arithmetic; there are no operators: ``lpa`` and the benchmark
    call ``mul`` as a module attribute, and the benchmark's tracer wraps
    module functions, not operator slots.  Terms are ordered by (ghost
    degree desc, degree asc, paths).  ``Element(graph, codes, den)`` is
    the raw constructor and checks nothing.
    """

    __slots__ = __match_args__ = ("graph", "codes", "den")

    @staticmethod
    def of(graph: Graph, items: Iterable[tuple[Monomial, Fraction | int | str]]) -> "Element":
        """Sum of ``(monomial, coefficient)`` pairs, each coefficient read by
        the rule of :func:`leavitt.records._rational`; each monomial's paths
        must end at one vertex, whatever its coefficient."""
        codes = []
        for m, c in items:
            if m.graph != graph:
                raise DomainError("monomial from a different graph")
            codes.append((m.code, _rational(c)))
        rng = _index(graph).rng
        for (a, b), _ in codes:
            if (rng[a[-1]] if len(a) > 1 else a[0]) != (rng[b[-1]] if len(b) > 1 else b[0]):
                raise DomainError("monomial paths end at different vertices")
        den = lcm(*[c.denominator for _, c in codes])
        return _sum(graph, [(m, c.numerator * (den // c.denominator)) for m, c in codes], den)

    @staticmethod
    def zero(graph: Graph) -> "Element":
        return Element(graph, (), 1)

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """The ``(Monomial, Fraction)`` pairs of the codes, built on each access."""
        from fractions import Fraction
        g, den = self.graph, self.den
        return tuple([(Monomial(g, m), Fraction(n, den)) for m, n in self.codes])

    @property
    def is_zero(self) -> bool:
        return not self.codes

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


def _collect(g: Graph, acc: dict, den: int) -> Element:
    """Element of the nonzero numerators of ``acc`` over ``den``, in term order
    and in lowest terms; ``Element.of`` checked the monomials where they entered."""
    kept = [(m, n) for m, n in acc.items() if n]
    if den != 1:
        q = gcd(den, *[n for _, n in kept])
        if q != 1:
            den //= q
            kept = [(m, n // q) for m, n in kept]
    kept.sort(key=_order)
    return Element(g, tuple(kept), den)


def _sum(g: Graph, codes: Iterable[tuple], den: int) -> Element:
    """Element of the ``(m, n)`` terms of ``codes``, numerators over ``den``."""
    acc: dict[tuple, int] = {}
    for m, n in codes:
        acc[m] = acc.get(m, 0) + n
    return _collect(g, acc, den)


def _rewrite(g: Graph, terms: Iterable[tuple], den: int) -> Element:
    """Normal form of the sum of the (a, b, c) triples of ``terms``, numerators over ``den``.

    A monomial whose paths both end in the special edge e of their turn
    vertex is expanded through the vertex identity: a.e.e*'.b*' becomes
    a.b*' minus a.f.f*'.b*' over the other edges f leaving the turn
    vertex.  No f is special, so only a.b*' expands again: two end indices
    walk back over the common run of special edges and a, b are sliced
    once, so a run of sole out-edges (no f) costs O(1) per edge.
    """
    expand = _index(g).expand
    acc: dict[tuple, int] = {}
    for a, b, c in terms:
        i, j = len(a) - 1, len(b) - 1
        while i and j and a[i] == b[j] and expand[a[i]] is not None:
            for f in expand[a[i]]:
                m = (a[:i] + (f,), b[:j] + (f,))
                acc[m] = acc.get(m, 0) - c
            i, j = i - 1, j - 1
        m = (a, b) if j == len(b) - 1 else (a[:i + 1], b[:j + 1])
        acc[m] = acc.get(m, 0) + c
    return _collect(g, acc, den)


def normalize(x: Element) -> Element:
    """Normal form of x; idempotent and degree-preserving per term."""
    return _rewrite(x.graph, [(a, b, n) for (a, b), n in x.codes], x.den)


def _product(g: Graph, xs: tuple, ys: tuple, den: int) -> Element:
    """Normal form of the product of two term tuples, over ``den``.

    The ghost half b1 of a left term eats into the real half a2 of a right
    term edge by edge; the product survives exactly when one of the two is
    a prefix of the other, base vertex id included.
    """
    terms = []
    for (a1, b1), c1 in xs:
        nb = len(b1)
        for (a2, b2), c2 in ys:
            na = len(a2)
            if nb <= na:
                if a2[:nb] == b1:
                    terms.append((a1 + a2[nb:], b2, c1 * c2))
            elif b1[:na] == a2:
                terms.append((a1, b2 + b1[na:], c1 * c2))
    return _rewrite(g, terms, den)


def _same_graph(x: Element, y: Element) -> None:
    if x.graph is not y.graph and x.graph != y.graph:
        raise DomainError("elements live over different graphs")


def mul(x: Element, y: Element) -> Element:
    """Bilinear product, returned in normal form."""
    _same_graph(x, y)
    return _product(x.graph, x.codes, y.codes, x.den * y.den)


def _combine(x: Element, y: Element, sign: int) -> Element:
    """x + sign * y, numerators brought over the lcm of the two denominators."""
    _same_graph(x, y)
    den = lcm(x.den, y.den)
    p, q = den // x.den, sign * (den // y.den)
    return _sum(x.graph, [(m, p * n) for m, n in x.codes] + [(m, q * n) for m, n in y.codes], den)


def add(x: Element, y: Element) -> Element:
    return _combine(x, y, 1)


def sub(x: Element, y: Element) -> Element:
    return _combine(x, y, -1)


def scale(c: Fraction | int, x: Element) -> Element:
    """c times x for an int (not a bool) or a Fraction c; other types raise TypeError."""
    if type(c) is int:
        p, q = c, 1
    else:
        from fractions import Fraction
        if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
            raise TypeError(f"a scalar must be an int or a Fraction, not {type(c).__name__}")
        p, q = c.numerator, c.denominator
    return _sum(x.graph, [(m, p * n) for m, n in x.codes], q * x.den)


class GradedDecomposition(Record):
    """Partition of an element's terms into ``(degree, Element)`` components,
    in ascending degree; the components sum to it."""

    __slots__ = __match_args__ = ("graph", "components")


def graded_components(x: Element) -> GradedDecomposition:
    by_deg: dict[int, list[tuple]] = {}
    for t in x.codes:
        (a, b), _ = t
        by_deg.setdefault(len(a) - len(b), []).append(t)
    comps = tuple((d, _sum(x.graph, by_deg[d], x.den)) for d in sorted(by_deg))
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
# The parser composes each word in one pass over its factors into kernel
# codes: real edges extend the real path, ghost edges stack up as the ghost
# path reversed and are popped by the same real edge, and a different real
# edge makes the word 0; the sum is rewritten once.  The serializer emits
# normal forms deterministically; "0" is the zero element.

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
    """The (a, b, n, d) of every word of the sum that does not vanish: its
    pair of path codes and its coefficient n/d, with d > 0 not reduced.

    All factors of a word are looked up before the one loop that checks
    that they compose and composes them: a real edge extends a, a ghost edge
    is pushed on a stack (b read backwards), and a real edge that meets a
    ghost pops it, or makes the word 0 if the two differ (e*'.f = 0).
    """
    vi, ei = g._vindex, g._eindex
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

    def factor() -> tuple[str, str, str, int | None, bool]:  # text, ends, edge id, ghost
        nonlocal pos
        name = take("name")
        ghost = tokens[pos][0] == "ghost"
        if ghost:
            pos += 1
        if name in vi:
            if ghost:
                raise ParseError(f"ghost marker on vertex {name!r}")
            return (name, name, name, None, False)
        if name in ei:
            e = ei[name]
            s, r = g.ends[e]
            return (name + "*'", r, s, e, True) if ghost else (name, s, r, e, False)
        raise ParseError(f"unknown vertex or edge {name!r}")

    words = []
    sign = -1 if tokens[0][0] == "minus" else 1
    if tokens[0][0] in ("plus", "minus"):
        pos = 1
    while True:
        n, d = sign, 1
        if tokens[pos][0] == "num":
            n *= integer()
            if tokens[pos][0] == "slash":
                pos += 1
                d = integer()
                if d == 0:
                    raise ParseError("zero denominator")
            take("star")
        factors = [factor()]
        while tokens[pos][0] == "dot":
            pos += 1
            factors.append(factor())
        start = here = factors[0][1]
        a, ghosts, zero = [], [], False
        for text, src, end, e, ghost in factors:
            if src != here:
                raise ParseError(
                    f"non-composable path: {text!r} starts at {src!r}, "
                    f"previous factor ends at {here!r}"
                )
            here = end
            if e is None or zero:
                continue
            if ghost:
                ghosts.append(e)
            elif not ghosts:
                a.append(e)
            elif ghosts.pop() != e:
                zero = True
        if not zero:
            words.append(((vi[start], *a), (vi[here], *ghosts[::-1]), n, d))
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
    words = _parse_words(g, tokens)
    den = lcm(*[d for *_, d in words])
    return _rewrite(g, [(a, b, n * (den // d)) for a, b, n, d in words], den)


def format_element(x: Element) -> str:
    """Deterministic textual form of an element (normal or not)."""
    g = x.graph
    return _signed_sum([(n, _word(g, a, b)) for (a, b), n in x.codes], x.den)
