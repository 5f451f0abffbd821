"""Two-vertex graphs: counting up to isomorphism, reduction to the sixteen
canonical types, and classification of their cycle-polynomial ideal
lattices into nine classes.

A two-vertex graph is a shape (loops on u, loops on v, edges u->v, edges
v->u), canonical under the vertex swap.  For lattice purposes a vertex
keeps at most two loops, a direction with no opposite keeps one edge, and
anything dominating one of the two minimal simple configurations collapses
onto it.  Two leftover loop-only shapes share their lattice with smaller
types and map onto them.  So the type is a function of the four counts
capped at two, found by one lookup in a table the rule fills at import for
the 81 capped count tuples.  The type fixes the class.

The lattice skeleton of a graph records its graded nodes (hereditary
saturated sets under inclusion) plus one family of polynomial-generated
ideals per K1 cycle and compatible vertex part.  Two graphs share a class
exactly when their skeletons are isomorphic, but skeletons are compared,
by :meth:`LatticeSkeleton.canonical_key`, only in the tests that check the
table: :func:`classify` compares none.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import groupby, permutations, product
from math import factorial, prod

from .errors import DomainError
from .graphs import (
    Graph, HeredSatSet, Poset, _index, _k_classes, _lattice, k1_cycles, lattice_label,
    validate_graph,
)
from .records import Record

__all__ = [
    "TwoVertexShape", "CanonicalForm16", "LatticeSkeleton", "SkeletonFamily", "Classification",
    "count_closed_form", "enumerate_up_to_iso", "canonicalize16", "canonical_form_of_shape",
    "build_skeleton", "classify",
]

ENUMERATION_GUARD = 12
ORDER_BUDGET = factorial(8)  # most node orders one canonical key compares


@total_ordering
class TwoVertexShape(Record):
    """Edge multiplicities of a two-vertex graph, canonical under swap.

    Shapes compare and order as their field tuples.
    """

    __slots__ = __match_args__ = ("loops_u", "loops_v", "uv", "vu")

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            get = self._field_tuple
            return get(self) < get(other)
        return NotImplemented

    def astuple(self) -> tuple[int, int, int, int]:
        return self._field_tuple(self)

    def to_graph(self) -> Graph:
        _check_counts(self.astuple(), self)
        kinds = zip("pqab", "uvuv", "uvvu", self.astuple())
        edges = [(f"{p}{i + 1}", s, r) for p, s, r, n in kinds for i in range(n)]
        return validate_graph(("u", "v"), edges)


def _check_counts(counts: tuple, shape: TwoVertexShape | None = None) -> None:
    """DomainError unless each count is an int, not a bool, and nonnegative:
    the edge count k alone, or the multiplicities of ``shape``."""
    for n in counts:
        if type(n) is not int or n < 0:
            what = "edge count" if shape is None else f"edge multiplicity in {shape!r}"
            need = "nonnegative" if type(n) is int else f"an int, not {n!r}"
            raise DomainError(f"{what} must be {need}")


def count_closed_form(k: int) -> int:
    """Number of two-vertex graphs with k edges, up to isomorphism.

    Closed form n(n+1)(3k - 4n + 1)/3 + (n+1)*ceil((k+1)/2) with
    n = ceil(k/2), evaluated exactly in integer arithmetic.
    """
    _check_counts((k,))
    n = (k + 1) // 2
    first = n * (n + 1) * (3 * k - 4 * n + 1)
    if first % 3:
        raise AssertionError("closed form lost integrality")
    return first // 3 + (n + 1) * ((k + 2) // 2)


def enumerate_up_to_iso(k: int) -> tuple[TwoVertexShape, ...]:
    """All k-edge shapes up to the vertex swap, largest tuple first: count
    tuples, each the larger of itself and its swap, made records only when
    returned.  A shape's type is a function of its counts capped at two,
    looked up in one table (see :func:`canonical_form_of_shape`)."""
    _check_counts((k,))
    if k > ENUMERATION_GUARD:
        raise DomainError(f"edge count {k} exceeds the enumeration guard {ENUMERATION_GUARD}")
    shapes = set()
    for lu in range(k + 1):
        for lv in range(k + 1 - lu):
            for uv in range(k + 1 - lu - lv):
                vu = k - lu - lv - uv
                shapes.add(max((lu, lv, uv, vu), (lv, lu, vu, uv)))
    return tuple([TwoVertexShape(*t) for t in sorted(shapes, reverse=True)])


class CanonicalForm16(Record):
    """One of the sixteen canonical two-vertex types: its number ``id`` and
    its ``shape``."""

    __slots__ = __match_args__ = ("id", "shape")


_SHAPES_16 = {
    1: (0, 0, 0, 0),
    2: (0, 0, 1, 0),
    3: (0, 0, 1, 1),
    4: (0, 0, 2, 1),
    5: (1, 0, 0, 0),
    6: (1, 0, 1, 0),
    7: (1, 0, 0, 1),
    8: (1, 0, 1, 1),
    9: (1, 1, 0, 0),
    10: (1, 1, 1, 0),
    11: (2, 0, 0, 0),
    12: (2, 0, 1, 0),
    13: (2, 0, 0, 1),
    14: (2, 1, 1, 0),
    15: (2, 1, 0, 1),
    16: (2, 2, 1, 0),
}
# The class of each type: two graphs share a class exactly when their
# lattice skeletons are isomorphic.
_CLASS_OF_TYPE = {
    1: "VII", 2: "I", 3: "II", 4: "I", 5: "VIII", 6: "III", 7: "II", 8: "I",
    9: "IX", 10: "IV", 11: "VII", 12: "V", 13: "I", 14: "VI", 15: "III", 16: "V",
}

_ID_BY_SHAPE = {shape: i for i, shape in _SHAPES_16.items()}
# Loop-only shapes whose lattices coincide with smaller types: an isolated
# vertex with two loops behaves like a bare vertex (its singleton is
# hereditary and saturated either way and it contributes no K1 cycle).
_ID_BY_SHAPE[(2, 1, 0, 0)] = 5
_ID_BY_SHAPE[(2, 2, 0, 0)] = 1


def _type_of_counts(counts: tuple[int, int, int, int]) -> int:
    """The reduction rule on counts (loops u, loops v, u->v, v->u) capped
    at two.  A shape dominating the minimal simple configurations -- two
    parallel edges with one back edge, or a loop with edges both ways -- has
    a simple algebra, and extra edges keep it simple, so it collapses to
    that base type.  Otherwise a direction with no opposite keeps one edge."""
    lu, lv, uv, vu = max(counts, (counts[1], counts[0], counts[3], counts[2]))
    if not (lu or lv) and uv >= 2 and vu:
        return 4
    if (lu or lv) and uv and vu:
        return 8
    uv, vu = min(uv, 1), min(vu, 1)
    return _ID_BY_SHAPE[max((lu, lv, uv, vu), (lv, lu, vu, uv))]


_FORMS_16 = {i: CanonicalForm16(i, TwoVertexShape(*shape)) for i, shape in _SHAPES_16.items()}
# The type of every shape, keyed by its four counts each capped at two.
_TYPES = {c: _FORMS_16[_type_of_counts(c)] for c in product(range(3), repeat=4)}


def canonical_form_of_shape(shape: TwoVertexShape) -> CanonicalForm16:
    """Reduce an arbitrary shape to its canonical type.

    Loops cap at two (extra loops on a two-or-more-loop vertex change no
    hereditary saturated set and add no K1 cycle), and the reduction rule
    reads no count past two, so the type is a function of the four counts
    capped at two: one lookup in the table the rule fills at import.
    """
    counts = shape.astuple()
    _check_counts(counts, shape)
    return _TYPES[tuple([min(n, 2) for n in counts])]


def canonicalize16(g: Graph) -> CanonicalForm16:
    """Canonical type of a two-vertex graph: its four edge counts, capped at
    two, looked up in the table the reduction rule fills at import."""
    if len(g.vertices) != 2:
        raise DomainError("canonicalization needs exactly two vertices")
    u, v = g.vertices
    n = g.ends.count
    return _TYPES[min(n((u, u)), 2), min(n((v, v)), 2), min(n((u, v)), 2), min(n((v, u)), 2)]


# --- lattice skeletons --------------------------------------------------------


class SkeletonFamily(Record):
    """Family of polynomial-generated ideals on one cycle and vertex part.

    ``cycle`` is a K1 cycle in its canonical rotation.  ``att`` indexes
    the attached graded node; ``inside``, a frozenset of node indices, lists
    the graded nodes whose ideal contains every member of the family.

    In a skeleton from :func:`build_skeleton`, the families of a cycle are
    the covers D -> D + j of its element j of J, the poset of sinks and
    cyclic SCCs: ``att`` is D and ``inside`` the up-set of D + j, whose
    least node ``min(inside)`` is D + j.  So each family splits one cover.
    """

    __slots__ = __match_args__ = ("cycle", "att", "inside")


class LatticeSkeleton(Record):
    """Finite summary of a graph's cycle-polynomial ideal lattice: ``graded``
    is a Poset of the HeredSatSets under inclusion, the vertex parts of the
    nodes of :func:`~leavitt.ideals.graded_lattice`, and ``families`` a
    tuple of :class:`SkeletonFamily`."""

    __slots__ = __match_args__ = ("graph", "graded", "families")

    def canonical_key(self) -> tuple:
        """Isomorphism invariant: least encoding, by the renumbered covers
        and families, over the node orders that sort nodes by (down-set
        size, up-set size, families attached, families containing the node)
        and permute only the ties.  The covers fix the order, so two
        skeletons share a key exactly when they are isomorphic.  Past
        :data:`ORDER_BUDGET` orders, counted first, it raises DomainError."""
        rows, covers = self.graded.up_sets(), self.graded.covers
        n = len(rows)
        fams = [(f.cycle.ids, f.att, f.inside) for f in self.families]
        attached = [att for _, att, _ in fams]
        contained = [i for _, _, inside in fams for i in inside]
        below = [sum(row >> j & 1 for row in rows) for j in range(n)]
        invariant = list(zip(below, map(int.bit_count, rows),
                             map(attached.count, range(n)), map(contained.count, range(n))))
        ranked = sorted(range(n), key=invariant.__getitem__)
        cells = [tuple(cell) for _, cell in groupby(ranked, key=invariant.__getitem__)]
        orders = prod(factorial(len(cell)) for cell in cells)
        if orders > ORDER_BUDGET:
            raise DomainError(f"{orders} node orders to compare, more than {ORDER_BUDGET}")

        def encoding(parts) -> tuple:
            order = [i for part in parts for i in part]
            new = {old: k for k, old in enumerate(order)}
            groups: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
            for cyc_key, att, inside in fams:
                entry = (new[att], tuple(sorted(new[i] for i in inside)))
                groups.setdefault(cyc_key, []).append(entry)
            profiles = sorted(tuple(sorted(v)) for v in groups.values())
            fam_key = tuple((gi, entry) for gi, profile in enumerate(profiles) for entry in profile)
            return n, tuple(sorted([(new[i], new[j]) for i, j in covers])), fam_key

        return min(map(encoding, product(*map(permutations, cells))))

    def to_dot(self) -> str:
        """DOT rendering of the order on nodes and families: solid arcs for
        its covers, in item order (nodes, then families), and dashed arcs
        from a family to each other family on its cycle whose node contains
        its own.  Each family splits the graded cover from ``att`` to
        ``min(inside)`` (see :class:`SkeletonFamily`), so the covers are the
        graded ones no family splits, and ``att -> f -> min(inside)``."""
        nodes, fams, n = self.graded.elements, self.families, len(self.graded.elements)
        split = {(f.att, min(f.inside)) for f in fams}
        arcs = [c for c in self.graded.covers if c not in split]
        for i, f in enumerate(fams):
            arcs += [(f.att, n + i), (n + i, min(f.inside))]
        names = [f"n{i}" for i in range(n)] + [f"f{i}" for i in range(len(fams))]
        lines = ["digraph skeleton {", "  rankdir=BT;"]
        lines += [f'  n{i} [shape=box, label="{lattice_label(v)}"];' for i, v in enumerate(nodes)]
        for i, f in enumerate(fams):
            part = nodes[f.att].sorted_members()
            label = f"P({f.cycle})" + (", " + ",".join(part) if part else "")
            lines.append(f'  f{i} [shape=ellipse, label="<{label}>"];')
        lines += [f"  {names[i]} -> {names[j]};" for i, j in sorted(arcs)]
        for i, fx in enumerate(fams):
            for j, fy in enumerate(fams):
                if i != j and fx.cycle.ids == fy.cycle.ids and nodes[fx.att] <= nodes[fy.att]:
                    lines.append(f"  f{i} -> f{j} [style=dashed];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_skeleton(g: Graph) -> LatticeSkeleton:
    """Graded nodes plus one family per K1 cycle and compatible vertex part.

    A vertex part is compatible with a cycle when it misses the cycle's
    sources and holds the closure of its exit range: on the down-sets of J,
    when it is a cover D -> D + j of the cycle's element j (no closure made).
    """
    masks, covers, downs = _lattice(g)
    comp, rng = _k_classes(g)[2], _index(g).rng
    families = tuple([  # k1_cycles are ordered by rotation key, so the families are too
        SkeletonFamily(c, i, frozenset([t for t, d in enumerate(downs) if not downs[k] & ~d]))
        for c in k1_cycles(g) for i, k in covers if downs[k] ^ downs[i] == 1 << comp[rng[c.ids[0]]]
    ])
    graded = Poset(tuple([HeredSatSet(g, m) for m in masks]), covers)
    return LatticeSkeleton(g, graded, families)


# --- the nine classes ---------------------------------------------------------

_TYPE7_NOTE = (
    "type [7] classifies as II (skeleton isomorphic to type [3]); "
    "class IX is realized by type [9]"
)


class Classification(Record):
    """The class of a two-vertex graph: its ``label`` (I..IX), read from its
    ``canonical`` type (a :class:`CanonicalForm16`), its ``skeleton`` (a
    :class:`LatticeSkeleton`, built for rendering) and a ``note`` string or
    None."""

    __slots__ = __match_args__ = ("label", "canonical", "skeleton", "note")


def classify(g: Graph) -> Classification:
    """Class (I..IX) of a two-vertex graph's ideal lattice, with skeleton.

    The label is read from the graph's canonical type, so no skeletons are
    compared; two graphs share a label exactly when their skeletons are
    isomorphic.  Type [7] carries a note: its skeleton coincides with type
    [3]'s, so it classifies there, and class IX is realized by type [9].
    """
    if len(g.vertices) != 2:
        raise DomainError("classification needs exactly two vertices")
    cf = canonicalize16(g)
    note = _TYPE7_NOTE if cf.id == 7 else None
    return Classification(_CLASS_OF_TYPE[cf.id], cf, build_skeleton(g), note)
