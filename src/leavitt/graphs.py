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

The class of a vertex is fixed by its strongly connected component (SCC):
K0 when the SCC has no internal edge, K1 when it has exactly as many
internal edges as vertices (the SCC is then a single cycle), K2 otherwise.
One iterative Tarjan pass (SIAM J. Comput. 1, 1972) per graph, made on the
first query and cached, answers every K-class question in linear time.

Hereditary saturated sets are the closed sets of a closure operator, which
is computed with a worklist; :func:`all_hereditary_saturated_sets` lists
them with Ganter's NextClosure ("Two basic algorithms in concept analysis",
1984), with polynomial delay instead of a scan of all vertex subsets.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DomainError, GraphError

__all__ = [
    "Graph",
    "Path",
    "Cycle",
    "VertexClass",
    "HeredSatSet",
    "validate_graph",
    "parse_graph",
    "serialize_graph",
    "classify_vertex",
    "condition_k",
    "hereditary_saturated_closure",
    "all_hereditary_saturated_sets",
    "exit_range",
    "k1_cycles",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise GraphError(f"bad identifier {name!r}: use letters, digits, _")


@dataclass(frozen=True)
class Graph:
    """Immutable directed multigraph with ordered vertex and edge lists.

    Construct through :func:`validate_graph` or :func:`parse_graph`; the
    raw constructor performs no checking.
    """

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    ends: tuple[tuple[str, str], ...]  # (source, range) per edge, same order

    _vindex: dict = field(init=False, repr=False, compare=False)
    _eindex: dict = field(init=False, repr=False, compare=False)
    _out: dict = field(init=False, repr=False, compare=False)
    _kclass: tuple | None = field(init=False, repr=False, compare=False)
    _kernel: tuple | None = field(init=False, repr=False, compare=False)
    _hash: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_vindex", {v: i for i, v in enumerate(self.vertices)})
        object.__setattr__(self, "_eindex", {e: i for i, e in enumerate(self.edges)})
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e, (s, _) in zip(self.edges, self.ends):
            out[s].append(e)
        object.__setattr__(self, "_out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(self, "_kclass", None)  # filled by _k_classes
        object.__setattr__(self, "_kernel", None)  # filled by elements._tables
        object.__setattr__(self, "_hash", None)  # filled by __hash__

    def __hash__(self) -> int:
        # Monomials and elements hash their graph each time they are hashed,
        # so the hash of the three tuples is computed once.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vertices, self.edges, self.ends)))
        return self._hash

    def __reduce__(self):
        # A copy rebuilds its caches: string hashes differ between processes.
        return Graph, (self.vertices, self.edges, self.ends)

    def has_vertex(self, v: str) -> bool:
        return v in self._vindex

    def has_edge(self, e: str) -> bool:
        return e in self._eindex

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
        self.check_vertex(v)
        return self._out[v]

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    def special_edge(self, v: str) -> str | None:
        """First outgoing edge of v in input order, or None for a sink."""
        out = self.out_edges(v)
        return out[0] if out else None

    def vertex_index(self, v: str) -> int:
        self.check_vertex(v)
        return self._vindex[v]

    def edge_index(self, e: str) -> int:
        self.check_edge(e)
        return self._eindex[e]

    def reach_from(self, v: str) -> frozenset[str]:
        """Vertices reachable from v by a directed path (v included)."""
        self.check_vertex(v)
        seen = {v}
        queue = deque([v])
        while queue:
            w = queue.popleft()
            for e in self._out[w]:
                r = self.ends[self._eindex[e]][1]
                if r not in seen:
                    seen.add(r)
                    queue.append(r)
        return frozenset(seen)

    def sort_vertices(self, vs: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(vs, key=self.vertex_index))


def validate_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> Graph:
    """Build a :class:`Graph` from listings, rejecting malformed input.

    ``vertices`` is an iterable of names; ``edges`` an iterable of
    ``(name, source, range)`` triples.  Input order is preserved.  Names
    must be unique across vertices *and* edges so that element expressions
    stay unambiguous.
    """
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


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    ``# ...`` comments and blank lines are ignored.  The first content line
    must be ``vertices: u v w``; every following line is
    ``edge NAME: SRC -> RNG``.
    """
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
    return validate_graph(vertices, edges)


def serialize_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph`; output is byte-deterministic."""
    lines = ["vertices: " + " ".join(g.vertices)]
    for e, (s, r) in zip(g.edges, g.ends):
        lines.append(f"edge {e}: {s} -> {r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Path:
    """Composable edge sequence; with no edges it denotes a single vertex."""

    graph: Graph
    base: str  # source vertex; for the empty path also the range
    edges: tuple[str, ...]

    @staticmethod
    def of(graph: Graph, edges: Iterable[str] = (), at: str | None = None) -> "Path":
        es = tuple(edges)
        if not es:
            if at is None:
                raise DomainError("an empty path needs a base vertex")
            graph.check_vertex(at)
            return Path(graph, at, ())
        base = graph.src(es[0])
        if at is not None and at != base:
            raise DomainError(f"path starts at {base!r}, not {at!r}")
        here = base
        for e in es:
            if graph.src(e) != here:
                raise DomainError(f"edges do not compose at {e!r}")
            here = graph.rng(e)
        return Path(graph, base, es)

    @property
    def deg(self) -> int:
        return len(self.edges)

    @property
    def src(self) -> str:
        return self.base

    @property
    def rng(self) -> str:
        return self.graph.rng(self.edges[-1]) if self.edges else self.base

    def extend(self, more: Iterable[str]) -> "Path":
        more = tuple(more)
        here = self.rng
        for e in more:
            if self.graph.src(e) != here:
                raise DomainError(f"edges do not compose at {e!r}")
            here = self.graph.rng(e)
        return Path(self.graph, self.base, self.edges + more)

    def drop_last(self) -> "Path":
        if not self.edges:
            raise DomainError("empty path has no last edge")
        return Path(self.graph, self.base, self.edges[:-1])

    def startswith(self, other: "Path") -> bool:
        return (
            self.base == other.base
            and self.edges[: len(other.edges)] == other.edges
        )

    def key(self) -> tuple:
        g = self.graph
        return (g.vertex_index(self.base),) + tuple(g.edge_index(e) for e in self.edges)

    def __str__(self) -> str:
        return ".".join(self.edges) if self.edges else self.base


@dataclass(frozen=True)
class Cycle:
    """Closed path with pairwise-distinct edge sources.

    Two rotations of the same cycle compare unequal but share
    :meth:`rotation_key`; :meth:`canonical` picks the rotation whose edge
    sequence is least in the graph's edge order.  The edges of a cycle are
    distinct, so that rotation is the one starting at its least edge.
    """

    graph: Graph
    edges: tuple[str, ...]

    @staticmethod
    def of(graph: Graph, edges: Iterable[str]) -> "Cycle":
        es = tuple(edges)
        if not es:
            raise DomainError("a cycle needs at least one edge")
        p = Path.of(graph, es)
        if p.rng != p.src:
            raise DomainError(f"edge sequence {'.'.join(es)} is not closed")
        srcs = [graph.src(e) for e in es]
        if len(set(srcs)) != len(srcs):
            raise DomainError(f"edge sequence {'.'.join(es)} repeats a source vertex")
        return Cycle(graph, es)

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(self.graph.src(e) for e in self.edges)

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.sources)

    def _least_start(self) -> tuple[int, list[int]]:
        idx = [self.graph.edge_index(e) for e in self.edges]
        return idx.index(min(idx)), idx

    def rotation_key(self) -> tuple[int, ...]:
        i, idx = self._least_start()
        return tuple(idx[i:] + idx[:i])

    def canonical(self) -> "Cycle":
        i, _ = self._least_start()
        return Cycle(self.graph, self.edges[i:] + self.edges[:i])

    def based_at(self, v: str) -> "Cycle":
        srcs = self.sources
        if v not in srcs:
            raise DomainError(f"vertex {v!r} is not on the cycle")
        i = srcs.index(v)
        return Cycle(self.graph, self.edges[i:] + self.edges[:i])

    def to_path(self) -> Path:
        return Path.of(self.graph, self.edges)

    def __str__(self) -> str:
        return ".".join(self.edges)


@dataclass(frozen=True)
class VertexClass:
    """K-classification of a vertex; K1 carries its unique cycle."""

    kind: str  # "K0" | "K1" | "K2"
    cycle: Cycle | None = None

    @staticmethod
    def k0() -> "VertexClass":
        return VertexClass("K0")

    @staticmethod
    def k1(cycle: Cycle) -> "VertexClass":
        return VertexClass("K1", cycle)

    @staticmethod
    def k2() -> "VertexClass":
        return VertexClass("K2")

    @property
    def is_k0(self) -> bool:
        return self.kind == "K0"

    @property
    def is_k1(self) -> bool:
        return self.kind == "K1"

    @property
    def is_k2(self) -> bool:
        return self.kind == "K2"


def _adjacency(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor lists over vertex indices, one entry per edge."""
    vi = g._vindex
    succ: list[list[int]] = [[] for _ in g.vertices]
    pred: list[list[int]] = [[] for _ in g.vertices]
    for s, r in g.ends:
        succ[vi[s]].append(vi[r])
        pred[vi[r]].append(vi[s])
    return succ, pred


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Component number of every vertex, by an iterative Tarjan pass."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 while the vertex is unvisited or on the stack
    stack: list[int] = []
    counter = ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, pending = work[-1]
            for w in pending:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return comp


def _k_classes(g: Graph) -> tuple[dict[str, str], dict[str, str]]:
    """K-class of every vertex, plus an out-edge of each vertex that stays
    inside its SCC (the unique one for K1 vertices).  Cached on the graph."""
    if g._kclass is None:
        succ, _ = _adjacency(g)
        comp = _strong_components(succ)
        sizes = [0] * len(comp)
        for c in comp:
            sizes[c] += 1
        internal = [0] * len(sizes)
        inner: dict[str, str] = {}
        vi = g._vindex
        for e, (s, r) in zip(g.edges, g.ends):
            c = comp[vi[s]]
            if c == comp[vi[r]]:
                internal[c] += 1
                inner[s] = e
        kinds = {}
        for v, c in zip(g.vertices, comp):
            m = internal[c]
            kinds[v] = "K0" if m == 0 else "K1" if m == sizes[c] else "K2"
        object.__setattr__(g, "_kclass", (kinds, inner))
    return g._kclass


def _k1_cycle(g: Graph, inner: dict[str, str], v: str) -> Cycle:
    """The cycle of a K1 vertex, read off its SCC starting at v."""
    edges = [inner[v]]
    here = g.rng(edges[0])
    while here != v:
        edges.append(inner[here])
        here = g.rng(edges[-1])
    return Cycle(g, tuple(edges))


def classify_vertex(g: Graph, v: str) -> VertexClass:
    """K-classify v by 0 / 1 / >=2 closed simple paths based at it.

    Decided by v's strongly connected component: no internal edge means no
    closed path at v (K0); exactly as many internal edges as vertices means
    the component is one cycle and every closed path at v is a power of it
    (K1); any further internal edge gives a second closed simple path (K2).
    A K1 vertex carries its cycle rotated to start at v.
    """
    g.check_vertex(v)
    kinds, inner = _k_classes(g)
    kind = kinds[v]
    return VertexClass.k1(_k1_cycle(g, inner, v)) if kind == "K1" else VertexClass(kind)


def condition_k(g: Graph) -> tuple[bool, tuple[str, ...]]:
    """Whether every vertex is K0 or K2, plus the offending K1 vertices."""
    kinds, _ = _k_classes(g)
    offenders = tuple(v for v in g.vertices if kinds[v] == "K1")
    return (not offenders, offenders)


def _is_hereditary(g: Graph, s: frozenset[str]) -> bool:
    return all(g.rng(e) in s for v in s for e in g.out_edges(v))


def _is_saturated(g: Graph, s: frozenset[str]) -> bool:
    for v in g.vertices:
        out = g.out_edges(v)
        if out and v not in s and all(g.rng(e) in s for e in out):
            return False
    return True


@dataclass(frozen=True)
class HeredSatSet:
    """A hereditary and saturated set of vertices.

    Hereditary: closed under following edges out of members.  Saturated:
    contains every non-sink vertex all of whose edges land in it (sinks are
    never forced in).  Use :meth:`of` to validate.
    """

    graph: Graph
    members: frozenset[str]

    @staticmethod
    def of(graph: Graph, members: Iterable[str]) -> "HeredSatSet":
        ms = frozenset(members)
        for v in ms:
            graph.check_vertex(v)
        if not _is_hereditary(graph, ms):
            raise DomainError(f"{sorted(ms)} is not hereditary")
        if not _is_saturated(graph, ms):
            raise DomainError(f"{sorted(ms)} is not saturated")
        return HeredSatSet(graph, ms)

    def sorted_members(self) -> tuple[str, ...]:
        return self.graph.sort_vertices(self.members)

    def __contains__(self, v: str) -> bool:
        return v in self.members

    def __le__(self, other: "HeredSatSet") -> bool:
        return self.members <= other.members

    def __str__(self) -> str:
        return "{" + ", ".join(self.sorted_members()) + "}" if self.members else "{}"


def _close(succ: list[list[int]], pred: list[list[int]], mask: int) -> int:
    """Hereditary saturated closure of a vertex bitmask, by a worklist.

    ``missing[u]`` counts the out-edges of u whose range has not yet been
    taken in; u is added by saturation when it reaches zero.  Each vertex
    enters the worklist once, so the cost is linear in the graph.
    """
    missing = [len(out) for out in succ]
    todo = [i for i in range(len(succ)) if mask >> i & 1]
    while todo:
        w = todo.pop()
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


def _members(g: Graph, mask: int) -> frozenset[str]:
    return frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)


def hereditary_saturated_closure(g: Graph, xs: Iterable[str]) -> HeredSatSet:
    """Least hereditary and saturated superset of ``xs``.

    A worklist applies both rules to each vertex once as it is taken in:
    its out-neighbours join (hereditary), and a predecessor joins once all
    its out-edges land in the set (saturated).  The least fixed point does
    not depend on the order of the work.
    """
    mask = 0
    for v in xs:
        mask |= 1 << g.vertex_index(v)
    succ, pred = _adjacency(g)
    return HeredSatSet(g, _members(g, _close(succ, pred, mask)))


def all_hereditary_saturated_sets(g: Graph) -> tuple[HeredSatSet, ...]:
    """Every hereditary saturated subset, ordered by (size, vertex order).

    Ganter's NextClosure over :func:`hereditary_saturated_closure`: it walks
    the closed sets in lectic order, each found with at most one closure
    per vertex, so the cost is polynomial in the graph and the output.
    """
    succ, pred = _adjacency(g)
    n = len(succ)
    full = (1 << n) - 1
    a = _close(succ, pred, 0)
    found = [a]
    while a != full:
        for i in reversed(range(n)):
            bit = 1 << i
            if a & bit:
                a ^= bit
                continue
            b = _close(succ, pred, a | bit)
            if not (b & ~a) & (bit - 1):
                a = b
                break
        found.append(a)

    def order(m: int) -> tuple[int, tuple[int, ...]]:
        idx = tuple(i for i in range(n) if m >> i & 1)
        return len(idx), idx

    found.sort(key=order)
    return tuple(HeredSatSet(g, _members(g, m)) for m in found)


def exit_range(g: Graph, c: Cycle) -> frozenset[str]:
    """Ranges of the edges that leave the cycle's vertices but are not on it."""
    c = Cycle.of(g, c.edges)  # revalidates against this graph
    on_cycle = set(c.edges)
    srcs = c.vertex_set
    return frozenset(g.rng(f) for f in g.edges if f not in on_cycle and g.src(f) in srcs)


def k1_cycles(g: Graph) -> tuple[Cycle, ...]:
    """Distinct cycles (canonical rotations) carried by the K1 vertices.

    One cycle per K1 component, ordered by rotation key.  Edges are scanned
    in input order, so each cycle is met first at its least edge, which is
    where its canonical rotation starts.
    """
    kinds, inner = _k_classes(g)
    seen: set[str] = set()
    out = []
    for e, (s, _) in zip(g.edges, g.ends):
        if kinds[s] == "K1" and s not in seen and inner[s] == e:
            c = _k1_cycle(g, inner, s)
            seen.update(c.sources)
            out.append(c)
    return tuple(out)

