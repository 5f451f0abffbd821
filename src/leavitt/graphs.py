"""Finite directed multigraphs and their closed-path combinatorics.

Vertices and edges carry string names.  Parallel edges and loops are fully
supported; edges are distinguished by name, never by endpoints.  The input
order of vertices and edges is preserved and acts as the canonical order for
everything built on top: special edges, cycle rotation keys, term ordering,
and all deterministic output.

A *closed simple path* at a vertex v is a closed path that returns to v
exactly once (it never passes through v internally).  A *cycle* is a closed
simple path whose edge sources are pairwise distinct.  Vertices are
classified K0 / K1 / K2 by having zero, exactly one, or at least two closed
simple paths based at them; a graph satisfies Condition (K) when no vertex
is K1.

A graph is built from listings by :func:`validate_graph` or read from the
line format by :func:`parse_graph`, which matches one regex per line and
hands its listings on.  Validation runs in bulk: string methods mapped over
all names, the graph's own name indexes as the duplicate check, and
dictionary lookups for the endpoints.  Only when a bulk check fails does
the per-item check run, so a fault is reported for its first offender in
input order.

Every algorithm over a graph, here and in the element and ideal layers,
reads one integer adjacency of it (ranges, out-edges, successors,
predecessors and the special-edge expansions), built in one pass over its
edges on the first query that needs it and cached on the graph.  Vertex
sets are bitmasks over vertex ids, paths the element kernel's codes
``(base_id, *edge_ids)`` and cycles tuples of edge ids: names are turned
into ids only in this module, and built from ids only for output.

The class of a vertex is fixed by its strongly connected component (SCC):
K0 when the SCC has no internal edge, K1 when it has exactly as many
internal edges as vertices (the SCC is then a single cycle), K2 otherwise.
One iterative Tarjan pass (SIAM J. Comput. 1, 1972) per graph, made on the
first query and cached, numbers each SCC as it pops it, classifies its
vertices and lists them for the hereditary saturated sets and K1 cycles, all
in linear time; its work stack holds vertex ids, each with one pointer into
its successor list, so no cycle or path is too long for it.

Hereditary saturated sets are the closed sets of a closure operator, which
is computed with a worklist that counts, for every vertex, its out-edges
still outside the set.  Listing them takes no closure: saturation adds no
sink and no vertex on a cycle, so the sets are {v : need(v) in D} for the
down-sets D of J, the sinks and cyclic SCCs ordered by reachability,
need(v) being those v reaches, and D + j covers D for each j outside D with
its strict successors in D (Birkhoff, "Rings of sets", Duke Math. J. 3,
1937; graded ideals as hereditary saturated sets: Abrams, Ara and Siles
Molina, *Leavitt Path Algebras*, LNM 2191, 2017).  One listing of the
down-sets serves :func:`all_hereditary_saturated_sets` and the lattice.
Every finite order the package draws is a Poset, which stores its covers and
derives the order from them.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import DomainError, GraphError
from .records import Record, _set

__all__ = [
    "Graph", "Path", "Cycle", "VertexClass", "HeredSatSet", "Poset", "validate_graph",
    "parse_graph", "classify_vertex", "condition_k",
    "hereditary_saturated_closure", "all_hereditary_saturated_sets", "exit_range", "k1_cycles",
]

_TRIPLE_TYPES = {tuple, list}
_STRINGS = (str, bytes, bytearray)  # never a listing: they iterate as characters or ints
HS_SET_BUDGET = 1 << 16  # most hereditary saturated sets listed for one graph
MEMBER_BUDGET = 10**7  # most vertex names listed over all those sets


def _check_name(name: str) -> None:
    # An ASCII identifier is exactly [A-Za-z_][A-Za-z0-9_]*.
    if not isinstance(name, str) or not (name.isascii() and name.isidentifier()):
        raise GraphError(f"bad identifier {name!r}: use letters, digits, _")


def _listing(names: Iterable[str], what: str) -> tuple:
    """``names`` as a tuple; a bare string or bytes is rejected, not read as one-letter names."""
    if isinstance(names, _STRINGS):
        raise GraphError(f"{what} must be a list of names, not a string")
    return tuple(names)


class Graph(Record):
    """Immutable directed multigraph with ordered vertex and edge lists.

    Construct through :func:`validate_graph` or :func:`parse_graph`; the
    raw constructor performs no checking.  The slots after the three fields
    cache the name indexes, the integer adjacency and the K-classes; they
    are outside equality, hash and repr, and a copy or an unpickled graph
    rebuilds them, since string hashes differ between processes.
    """

    __match_args__ = ("vertices", "edges", "ends")
    __slots__ = __match_args__ + ("_vindex", "_eindex", "_index", "_kclass")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[str, ...], ends: tuple) -> None:
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "ends", ends)  # (source, range) per edge, same order
        _set(self, "_vindex", {v: i for i, v in enumerate(vertices)})
        _set(self, "_eindex", {e: i for i, e in enumerate(edges)})
        _set(self, "_index", None)  # filled by _index
        _set(self, "_kclass", None)  # filled by _k_classes

    def check_vertex(self, v: str) -> None:
        if v not in self._vindex:
            raise GraphError(f"unknown vertex {v!r}")

    def check_edge(self, e: str) -> None:
        if e not in self._eindex:
            raise GraphError(f"unknown edge {e!r}")

    def src(self, e: str) -> str:
        self.check_edge(e)
        return self.ends[self._eindex[e]][0]

    def rng(self, e: str) -> str:
        self.check_edge(e)
        return self.ends[self._eindex[e]][1]

    def out_edges(self, v: str) -> tuple[str, ...]:
        return tuple([self.edges[e] for e in _index(self).out[self.vertex_index(v)]])

    def vertex_index(self, v: str) -> int:
        self.check_vertex(v)
        return self._vindex[v]

    def edge_index(self, e: str) -> int:
        self.check_edge(e)
        return self._eindex[e]


def validate_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> Graph:
    """Build a :class:`Graph` from listings, rejecting malformed input.

    ``vertices`` is an iterable of names; ``edges`` an iterable of
    ``(name, source, range)`` triples (tuples or lists).  Input order is
    preserved.  Names must be unique across vertices *and* edges so that
    element expressions stay unambiguous.  A bare string or bytes is rejected
    where a listing is required.

    The checks run in bulk: ``isascii`` over all names joined and
    ``isidentifier`` mapped over them, the graph's own name indexes as the
    duplicate check, and ``in`` on its vertex index for the endpoints.
    Only when one of them fails does the per-item check run, which reports
    the first offender in input order: the vertices first, then each edge's
    shape, name, source and range.
    """
    vs = _listing(vertices, "vertices")
    if isinstance(edges, _STRINGS):
        raise GraphError("edges must be a list of (name, source, range) triples, not a string")
    if not vs:
        raise GraphError("a graph needs at least one vertex")
    es = edges if type(edges) is list else list(edges)
    if not es:
        names = srcs = rngs = ()
    elif set(map(type, es)) <= _TRIPLE_TYPES and set(map(len, es)) == {3}:
        names, srcs, rngs = zip(*es)
    else:
        return _validate_each(vs, es)
    every = vs + names
    try:
        if "".join(every).isascii() and all(map(str.isidentifier, every)):
            # A list display: tuple(zip(srcs, rngs)) here raised the peak
            # RSS of 18,610 census classifications by 1.3 MiB.
            g = Graph(vs, names, tuple([(s, r) for _, s, r in es]))
            vi = g._vindex
            if (
                len(vi) == len(vs) and len(g._eindex) == len(names)
                and vi.keys().isdisjoint(g._eindex)
                and all(map(vi.__contains__, srcs)) and all(map(vi.__contains__, rngs))
            ):
                return g
    except TypeError:  # a name that is not a string, or an endpoint that is no dict key
        pass
    return _validate_each(vs, es)


def _validate_each(vs: tuple, es: list) -> Graph:
    """:func:`validate_graph` one item at a time, raising for the first
    offender in input order.  It runs only when a bulk check has failed, and
    builds the graph when no item is at fault (an edge given as a tuple
    subclass, say)."""
    seen: set = set()
    for v in vs:
        _check_name(v)
        if v in seen:
            raise GraphError(f"duplicate identifier {v!r}")
        seen.add(v)
    vset = set(vs)
    names, ends = [], []
    for t in es:
        if not isinstance(t, (tuple, list)) or len(t) != 3:
            raise GraphError(f"edge {t!r} is not a (name, source, range) triple")
        e, s, r = t
        _check_name(e)
        if e in seen:
            raise GraphError(f"duplicate identifier {e!r}")
        seen.add(e)
        if not isinstance(s, str) or s not in vset:
            raise GraphError(f"edge {e!r} leaves unknown vertex {s!r}")
        if not isinstance(r, str) or r not in vset:
            raise GraphError(f"edge {e!r} enters unknown vertex {r!r}")
        names.append(e)
        ends.append((s, r))
    return Graph(vs, tuple(names), tuple(ends))


_EDGE_LINE_RE = re.compile(r"edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\Z")


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    ``# ...`` comments and blank lines are ignored, and so is whitespace at
    either end of a line; lines end as :meth:`str.splitlines` ends them
    (``\\n``, ``\\r\\n``, ``\\x0b`` and the like).  The first content line
    must be ``vertices: u v w``, its names separated by any whitespace
    (tabs and no-break spaces too); every following line is
    ``edge NAME: SRC -> RNG``, where whitespace is needed only after
    ``edge``, so ``edge e:u->v`` is the same line.  A malformed line is
    reported with its number; the names are then checked by
    :func:`validate_graph`.
    """
    if not isinstance(text, str):
        raise GraphError(f"graph text must be a string, not {type(text).__name__}")
    vertices: tuple[str, ...] | None = None
    edges: list[tuple[str, str, str]] = []
    match, comments = _EDGE_LINE_RE.match, "#" in text
    for lineno, line in enumerate(text.splitlines(), start=1):
        if comments:
            line = line.split("#", 1)[0]
        line = line.strip()
        m = match(line)
        if m:
            if vertices is None:
                raise GraphError(f"line {lineno}: edge line before vertices line")
            edges.append(m.groups())
        elif line.startswith("vertices:"):
            if vertices is not None:
                raise GraphError(f"line {lineno}: repeated vertices line")
            vertices = tuple(line[len("vertices:"):].split())
        elif line:
            raise GraphError(f"line {lineno}: cannot parse {line!r}")
    if vertices is None:
        raise GraphError("missing vertices line")
    return validate_graph(vertices, edges)


class Path(Record):
    """Composable edge sequence from a base vertex, held as the element
    kernel's code ``(base_id, *edge_ids)``; with no edges it denotes that
    single vertex, which is then also its range.  Names are built on request."""

    __slots__ = __match_args__ = ("graph", "code")

    @staticmethod
    def of(graph: Graph, edges: Iterable[str] = (), at: str | None = None) -> "Path":
        es = _listing(edges, "edges")
        if not es and at is None:
            raise DomainError("an empty path needs a base vertex")
        base = graph.src(es[0]) if es else at
        if at is not None and at != base:
            raise DomainError(f"path starts at {base!r}, not {at!r}")
        return Path(graph, (graph.vertex_index(base),)).extend(es)

    @property
    def base(self) -> str:
        return self.graph.vertices[self.code[0]]

    @property
    def edges(self) -> tuple[str, ...]:
        edges = self.graph.edges
        return tuple([edges[e] for e in self.code[1:]])

    @property
    def rng(self) -> str:
        return self.graph.vertices[self._rng_id()]

    def _rng_id(self) -> int:
        code = self.code
        return _index(self.graph).rng[code[-1]] if len(code) > 1 else code[0]

    def extend(self, more: Iterable[str]) -> "Path":
        ids, _ = _walk(self.graph, self._rng_id(), _listing(more, "edges"))
        return Path(self.graph, self.code + ids)

    def __str__(self) -> str:
        return ".".join(self.edges) if len(self.code) > 1 else self.base


def _walk(g: Graph, here: int, es: tuple) -> tuple[tuple[int, ...], int]:
    """The ids of the edges named by es, checked in order to exist and to
    compose from vertex id ``here``, and the vertex id the walk ends at."""
    rng, vi, ends = _index(g).rng, g._vindex, g.ends
    ids = []
    for e in es:
        i = g.edge_index(e)
        if vi[ends[i][0]] != here:
            raise DomainError(f"edges do not compose at {e!r}")
        ids.append(i)
        here = rng[i]
    return tuple(ids), here


def _least_rotation(ids: tuple[int, ...]) -> tuple[int, ...]:
    """The rotation of a cycle's distinct edge ids that starts at the least."""
    i = ids.index(min(ids))
    return ids[i:] + ids[:i]


class Cycle(Record):
    """Closed path with pairwise-distinct edge sources, held as its edge ids.

    Two rotations of the same cycle compare unequal but share
    :meth:`rotation_key`; :meth:`canonical` picks the rotation whose edge
    sequence is least in the graph's edge order.  The edges of a cycle are
    distinct, so that rotation is the one starting at its least edge.
    """

    __slots__ = __match_args__ = ("graph", "ids")

    @staticmethod
    def of(graph: Graph, edges: Iterable[str]) -> "Cycle":
        es = _listing(edges, "cycle edges")
        if not es:
            raise DomainError("a cycle needs at least one edge")
        start = graph._vindex[graph.src(es[0])]
        ids, end = _walk(graph, start, es)
        if end != start:
            raise DomainError(f"edge sequence {'.'.join(es)} is not closed")
        rng = _index(graph).rng
        if len({rng[i] for i in ids}) != len(es):  # a closed path's ranges are its sources
            raise DomainError(f"edge sequence {'.'.join(es)} repeats a source vertex")
        return Cycle(graph, ids)

    @property
    def edges(self) -> tuple[str, ...]:
        edges = self.graph.edges
        return tuple([edges[e] for e in self.ids])

    @property
    def sources(self) -> tuple[str, ...]:
        ends = self.graph.ends
        return tuple([ends[e][0] for e in self.ids])

    def rotation_key(self) -> tuple[int, ...]:
        return _least_rotation(self.ids)

    def canonical(self) -> "Cycle":
        return Cycle(self.graph, self.rotation_key())

    def __str__(self) -> str:
        return ".".join(self.edges)


class VertexClass(Record):
    """K-classification of a vertex: ``kind`` is "K0", "K1" or "K2", and
    ``cycle`` is a K1 vertex's unique cycle, else None."""

    __slots__ = __match_args__ = ("kind", "cycle")


class _Index:
    """Integer adjacency of a graph, every list in edge input order: ``rng[e]``
    is the range of edge e, ``out[v]`` the edges leaving v, ``succ[v]`` and
    ``pred[v]`` the range and source of each edge leaving and entering v, and
    ``outdeg[v]`` the number of edges leaving v.
    ``expand[e]`` is None unless e is its source's special edge; then it
    lists the other edges leaving that source, which replace e.e*' in the
    vertex identity.  Ids are vertex and edge positions; read-only once built.
    """

    __slots__ = ("rng", "out", "succ", "pred", "outdeg", "expand")

    def __init__(self, g: Graph) -> None:
        vi = g._vindex
        self.rng = rng = []
        self.out = out = [[] for _ in g.vertices]
        self.succ = succ = [[] for _ in g.vertices]
        self.pred = pred = [[] for _ in g.vertices]
        for e, (s, r) in enumerate(g.ends):
            s, r = vi[s], vi[r]
            rng.append(r)
            out[s].append(e)
            succ[s].append(r)
            pred[r].append(s)
        self.outdeg = [len(rs) for rs in succ]
        self.expand = expand = [None] * len(rng)
        for es in out:
            if es:
                expand[es[0]] = tuple(es[1:])


def _index(g: Graph) -> _Index:
    """The graph's integer adjacency, built on the first call and cached on it."""
    if g._index is None:
        _set(g, "_index", _Index(g))
    return g._index


def _k_classes(g: Graph) -> tuple[list[str], list[int], list[int], list[list[int]]]:
    """K-class of every vertex id, the id of an out-edge of each vertex that
    stays inside its SCC (the unique one for K1 vertices; -1 when there is
    none), its SCC's number, successors first, and each SCC's vertex ids.
    Cached on the graph.  One iterative Tarjan pass: ``ptr[v]`` is where v's
    successor scan resumes when its child's search ends, so the work stack
    holds vertex ids only; an SCC leaving the stack is numbered, its internal
    edges counted and its vertices classified."""
    if g._kclass is None:
        ix = _index(g)
        succ, out, rng, n = ix.succ, ix.out, ix.rng, len(ix.succ)
        index, low, ptr = [-1] * n, [0] * n, [0] * n
        comp = [-1] * n  # -1 while the vertex is unvisited or on the stack
        kinds, inner, members, stack, counter = ["K0"] * n, [-1] * n, [], [], 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            work = [root]
            while work:
                v = work[-1]
                ws, i = succ[v], ptr[v]
                while i < len(ws):
                    w = ws[i]
                    i += 1
                    if index[w] < 0:
                        break
                    if comp[w] < 0 and index[w] < low[v]:
                        low[v] = index[w]
                else:  # every successor seen: v's search ends
                    work.pop()
                    if work and low[v] < low[work[-1]]:
                        low[work[-1]] = low[v]
                    if low[v] == index[v]:  # v's SCC is the stack from v up
                        k = len(stack) - 1
                        while stack[k] != v:
                            k -= 1
                        vs, c, m = stack[k:], len(members), 0
                        del stack[k:]
                        for w in vs:
                            comp[w] = c
                        for w in vs:
                            for e in out[w]:
                                if comp[rng[e]] == c:
                                    m += 1
                                    inner[w] = e
                        if m:  # K0 when there is no internal edge, as set
                            kind = "K1" if m == len(vs) else "K2"
                            for w in vs:
                                kinds[w] = kind
                        members.append(vs)
                    continue
                ptr[v] = i  # descend into w
                index[w] = low[w] = counter
                counter += 1
                stack.append(w)
                work.append(w)
        _set(g, "_kclass", (kinds, inner, comp, members))
    return g._kclass


def _k1_cycle_ids(g: Graph, v: int) -> tuple[int, ...]:
    """Edge ids of the cycle of the K1 vertex id v, starting at v."""
    rng, inner = _index(g).rng, _k_classes(g)[1]
    ids = [inner[v]]
    here = rng[ids[0]]
    while here != v:
        ids.append(inner[here])
        here = rng[ids[-1]]
    return tuple(ids)


def _k1_key(g: Graph, v: int) -> tuple[int, ...] | None:
    """Rotation key of the cycle of vertex id v, or None unless v is K1."""
    return _least_rotation(_k1_cycle_ids(g, v)) if _k_classes(g)[0][v] == "K1" else None


def classify_vertex(g: Graph, v: str) -> VertexClass:
    """K-classify v by 0 / 1 / >=2 closed simple paths based at it.

    Decided by v's strongly connected component: no internal edge means no
    closed path at v (K0); exactly as many internal edges as vertices means
    the component is one cycle and every closed path at v is a power of it
    (K1); any further internal edge gives a second closed simple path (K2).
    A K1 vertex carries its cycle rotated to start at v.
    """
    i = g.vertex_index(v)
    kind = _k_classes(g)[0][i]
    return VertexClass(kind, Cycle(g, _k1_cycle_ids(g, i)) if kind == "K1" else None)


def condition_k(g: Graph) -> tuple[bool, tuple[str, ...]]:
    """Whether every vertex is K0 or K2, plus the offending K1 vertices."""
    kinds = _k_classes(g)[0]
    if "K1" not in kinds:
        return (True, ())
    return (False, tuple([v for v, k in zip(g.vertices, kinds) if k == "K1"]))


class HeredSatSet(Record):
    """A hereditary and saturated set of vertices, as a bitmask: bit i is set
    when vertex i is a member.

    Hereditary: closed under following edges out of members.  Saturated:
    contains every non-sink vertex all of whose edges land in it (sinks are
    never forced in).  Use :meth:`of` to validate a set of names.
    """

    __slots__ = __match_args__ = ("graph", "mask")

    @staticmethod
    def of(graph: Graph, members: Iterable[str]) -> "HeredSatSet":
        ms = frozenset(_listing(members, "members"))
        ix, ids = _index(graph), [graph.vertex_index(v) for v in ms]
        mask = sum(1 << i for i in ids)
        if any(not mask >> r & 1 for i in ids for r in ix.succ[i]):
            raise DomainError(f"{sorted(ms)} is not hereditary")
        if _close(ix, ids) != mask:  # a hereditary set gains only what saturation forces
            raise DomainError(f"{sorted(ms)} is not saturated")
        return HeredSatSet(graph, mask)

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> tuple[str, ...]:
        return _mask_names(self.graph, self.mask)

    def __contains__(self, v: str) -> bool:
        vi = self.graph._vindex
        return v in vi and self.mask >> vi[v] & 1 == 1

    def __le__(self, other: "HeredSatSet") -> bool:
        return not self.mask & ~other.mask

    def __str__(self) -> str:
        return "{" + ", ".join(self.sorted_members()) + "}"


def _mask_names(g: Graph, mask: int) -> tuple[str, ...]:
    """The names of the vertices whose bits are set in ``mask``, in vertex order."""
    bits = reversed(bin(mask))  # bit i at position i, then "b0"
    return tuple([v for v, bit in zip(g.vertices, bits) if bit == "1"])


def _close(ix: _Index, todo: list[int]) -> int:
    """Hereditary saturated closure of the distinct vertex ids ``todo``, as a
    bitmask.  ``todo`` is the worklist, and ends listing the members: out-
    neighbours of members join, and so does a vertex once its count of
    out-edges whose range is still outside reaches 0."""
    succ, pred, missing, mask = ix.succ, ix.pred, ix.outdeg.copy(), 0
    for v in todo:
        mask |= 1 << v
    for w in todo:  # grows while it is read
        for r in succ[w]:
            if not mask >> r & 1:
                mask |= 1 << r
                todo.append(r)
        for u in pred[w]:
            missing[u] -= 1
            if not missing[u] and not mask >> u & 1:
                mask |= 1 << u
                todo.append(u)
    return mask


def hereditary_saturated_closure(g: Graph, xs: Iterable[str]) -> HeredSatSet:
    """Least hereditary and saturated superset of ``xs``: out-neighbours of
    members join, and so does a vertex once all its out-edges land inside."""
    ids = {g.vertex_index(v) for v in _listing(xs, "vertices")}
    return HeredSatSet(g, _close(_index(g), list(ids)))


def all_hereditary_saturated_sets(g: Graph) -> tuple[HeredSatSet, ...]:
    """Every hereditary saturated subset, ordered by (size, vertex order), read
    off the down-sets of the poset of sinks and cycles with no closure (at
    most HS_SET_BUDGET sets and MEMBER_BUDGET members in all)."""
    return tuple([HeredSatSet(g, m) for m in _hs_listing(g)[0]])


_LOW_BITS = [tuple([i for i in range(8) if m >> i & 1]) for m in range(256)]


def _bits(m: int):
    """The positions of the set bits of ``m``, lowest first: by a table below
    256, above it by lowest-bit steps, which cost its set bits, not its bytes."""
    if m < 256:
        return _LOW_BITS[m]
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _hs_listing(g: Graph) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """Bitmasks of the hereditary saturated sets by (size, vertex order), and
    beside each its node (D, addable, parent, last j): D its down-set of J
    over SCC numbers, ``addable`` the j outside D whose strict successors in
    J all lie in D.  Each SCC of :func:`_k_classes` keeps ``first``, the
    elements of J met first out of it (itself, when in J); j in J keeps its
    own as ``under`` and is ``above`` them.  The vertices sharing a ``first``
    join D + j as one mask once j completes it.  Sinks, like an addable set,
    are pairwise incomparable, so k of them make at least 2^k sets: against
    HS_SET_BUDGET the sinks are checked before J is built, an addable set as
    it grows, and the down-sets as they are listed, breadth first, before
    any vertex mask; past MEMBER_BUDGET members in all it raises DomainError.
    Only when a pair is out of order, the later mask smaller or as large
    with the lowest bit of the two's difference in it, is it sorted."""
    ix = _index(g)
    _check_sets(1 << ix.outdeg.count(0))
    succ, (kinds, _, comp, members) = ix.succ, _k_classes(g)
    first, under, above, joins, groups, start = [0] * len(members), {}, {}, {}, {}, 0
    for c, vs in enumerate(members):
        low = own = 0  # first[c] is still 0, so edges inside c add nothing
        for v in vs:
            own |= 1 << v
            for w in succ[v]:
                low |= first[comp[w]]
        if not low or kinds[vs[0]] != "K0":  # a sink or a cycle: an element of J
            for d in _bits(low):
                above[d].append(c)
            start |= 0 if low else 1 << c
            under[c], above[c], joins[c], low = low, [], [], 1 << c
        first[c] = low
        groups[low] = groups.get(low, 0) | own
    for low, own in groups.items():
        for d in _bits(low):
            joins[d].append((low, own))
    _check_sets(1 << start.bit_count())
    nodes = [(0, start, 0, -1)]
    for i, (d, a, _, last) in enumerate(nodes):  # grows while it is read
        for c in _bits(a >> (last + 1) << (last + 1)):  # past last: each down-set once
            e, more = d | 1 << c, a ^ 1 << c
            for k in above[c]:
                if not under[k] & ~e:
                    more |= 1 << k
                    _check_sets(1 << more.bit_count())
            nodes.append((e, more, i, c))
        _check_sets(len(nodes))
    masks, size, total, ordered = [0], 0, 0, True
    for d, _, parent, c in nodes[1:]:
        m = masks[parent]
        for low, part in joins[c]:
            if not low & ~d:
                m |= part
        k = m.bit_count()
        total += k
        if total > MEMBER_BUDGET:
            raise DomainError(f"more than {MEMBER_BUDGET} members of hereditary saturated sets")
        if k < size or k == size and (x := m ^ masks[-1]) & -x & m:
            ordered = False
        size = k
        masks.append(m)
    if not ordered:  # size up, then the bit strings read from bit 0, greatest first
        rows = sorted(zip(masks, nodes), reverse=True,
                      key=lambda r: (-r[0].bit_count(), bin(r[0])[:1:-1]))
        masks, nodes = map(list, zip(*rows))
    return masks, nodes


def _check_sets(at_least: int) -> None:
    """Refuse a listing bound to hold ``at_least`` sets, past HS_SET_BUDGET."""
    if at_least > HS_SET_BUDGET:
        raise DomainError(f"more than {HS_SET_BUDGET} hereditary saturated sets")


def _lattice(g: Graph) -> tuple[list[int], tuple[tuple[int, int], ...], list[int]]:
    """The bitmasks of :func:`_hs_listing`, the sorted covers between their
    positions, D -> D + j for each addable j, and their down-sets of J."""
    masks, nodes = _hs_listing(g)
    at = {node[0]: k for k, node in enumerate(nodes)}  # in position order
    covers = sorted([(k, at[d | 1 << c]) for k, (d, a, _, _) in enumerate(nodes) for c in _bits(a)])
    return masks, tuple(covers), list(at)


class Poset(Record):
    """Finite poset as an element tuple plus the field ``covers``: the sorted
    pairs (i, j) with element i strictly below element j and nothing in
    between.  The order is derived from them on demand, as bitmask rows."""

    __slots__ = __match_args__ = ("elements", "covers")

    def up_sets(self) -> list[int]:
        """Bit j of row i is set when element i lies below element j: upper rows
        are ORed into lower ones until a pass (in a linear extension, the second) adds nothing."""
        rows, before = [1 << i for i in range(len(self.elements))], None
        while rows != before:
            before = rows.copy()
            for i, j in reversed(self.covers):
                rows[i] |= rows[j]
        return rows


def lattice_label(s: HeredSatSet) -> str:
    """Diagram label of a vertex set: 0 when empty, L when it is every vertex."""
    if not s.mask:
        return "0"
    if s.mask.bit_count() == len(s.graph.vertices):
        return "L"
    return "{" + ",".join(s.sorted_members()) + "}"


def _exit_ids(ix: _Index, cycle: tuple[int, ...]) -> set[int]:
    """Range ids of the edges that leave a cycle's vertices but are not on
    it; the cycle is given by its edge ids, so its sources are their ranges."""
    rng, out, on = ix.rng, ix.out, set(cycle)
    return {rng[f] for e in cycle for f in out[rng[e]] if f not in on}


def exit_range(g: Graph, c: Cycle) -> frozenset[str]:
    """Ranges of the edges that leave the cycle's vertices but are not on it."""
    if c.graph != g:
        raise DomainError("cycle over a different graph")
    return frozenset([g.vertices[v] for v in _exit_ids(_index(g), c.ids)])


def k1_cycles(g: Graph) -> tuple[Cycle, ...]:
    """Distinct cycles (canonical rotations) carried by the K1 vertices.

    One cycle per K1 component, ordered by rotation key: each starts at the
    component's vertex whose cycle edge is least, which is where its
    canonical rotation starts, and the cycles are sorted by that edge.
    """
    kinds, inner, _, members = _k_classes(g)
    least = inner.__getitem__
    firsts = sorted([min(vs, key=least) for vs in members if kinds[vs[0]] == "K1"], key=least)
    return tuple([Cycle(g, _k1_cycle_ids(g, v)) for v in firsts])
