"""The value classes behave as frozen dataclasses did: field-tuple equality
and hash, ``Name(field=value, ...)`` repr, no assignment or deletion, copy
and pickle, and field-tuple ordering for ``TwoVertexShape``.

The repr literals are the strings the dataclass versions printed, so a
change in any field's name, order or repr shows here.  Every ``Record``
subclass must have samples, so none escapes these checks of the methods
they inherit.
"""

import copy
import importlib
import os
import pickle
import subprocess
import sys

import pytest

from leavitt import (
    Classification,
    Cycle,
    CyclePolynomial,
    LambdaGeneratorSet,
    Path,
    Poset,
    QPoly,
    TwoVertexShape,
    build_skeleton,
    canonicalize16,
    classify_vertex,
    extract_vertex,
    graded_components,
    graded_lattice,
    hereditary_saturated_closure,
    lambda_reduce,
    monomial,
    parse_element,
    validate_graph,
)
import leavitt
from leavitt import graphs
from leavitt.records import Record
from leavitt.twovertex import SkeletonFamily

R1 = validate_graph(["v"], [("e", "v", "v")])
P2 = validate_graph(["a", "b"], [("x", "a", "b")])
TWO = validate_graph(["u", "v"], [("e", "u", "u"), ("a", "u", "v")])
SINK = validate_graph(["w"], [])


def _samples():
    """Two unequal objects of each class, by class name."""
    cp = CyclePolynomial.of(R1, ["e"], "v", [-1, 0, 1])
    gens = LambdaGeneratorSet.of(R1, [cp])
    skel = build_skeleton(R1)
    lattice = graded_lattice(R1)
    return {
        "Graph": (R1, P2),
        "Path": (Path.of(P2, ["x"]), Path.of(P2, [], at="a")),
        "Cycle": (Cycle.of(R1, ["e"]), Cycle.of(TWO, ["e"])),
        "VertexClass": (classify_vertex(R1, "v"), classify_vertex(P2, "a")),
        "HeredSatSet": (
            hereditary_saturated_closure(R1, ["v"]),
            hereditary_saturated_closure(P2, []),
        ),
        "Monomial": (monomial(P2, ["x"]), monomial(P2, [], ["x"])),
        "GradedDecomposition": (
            graded_components(parse_element(R1, "v + 2*e")),
            graded_components(parse_element(R1, "e")),
        ),
        "QPoly": (QPoly.of(["-1", "0", "1/2"]), QPoly.of([1])),
        "Poset": (lattice, Poset.build([1, 2, 3], lambda a, b: a <= b)),
        "GradedIdeal": (lattice.elements[1], lattice.elements[0]),
        "ExtractionWitness": (
            extract_vertex(P2, parse_element(P2, "2*x")),
            extract_vertex(P2, parse_element(P2, "b")),
        ),
        "CyclePolynomial": (cp, CyclePolynomial.of(R1, ["e"], "v", [2, 1])),
        "LambdaGeneratorSet": (gens, LambdaGeneratorSet.of(R1, [], ["v"])),
        "LambdaReduction": (lambda_reduce(R1, gens), lambda_reduce(R1, LambdaGeneratorSet.of(R1))),
        "TwoVertexShape": (TwoVertexShape(2, 1, 1, 0), TwoVertexShape(0, 0, 1, 1)),
        "CanonicalForm16": (canonicalize16(TWO), canonicalize16(validate_graph(["u", "v"], []))),
        "SkeletonFamily": (skel.families[0], SkeletonFamily(Cycle.of(R1, ["e"]), 0, frozenset())),
        "LatticeSkeleton": (skel, build_skeleton(SINK)),
        "Classification": (
            Classification("VIII", canonicalize16(TWO), skel),
            Classification("VIII", canonicalize16(TWO), skel, "a note"),
        ),
    }


SAMPLES = _samples()

FIELDS = {
    "Graph": ("vertices", "edges", "ends"),
    "Path": ("graph", "base", "edges"),
    "Cycle": ("graph", "edges"),
    "VertexClass": ("kind", "cycle"),
    "HeredSatSet": ("graph", "mask"),
    "Monomial": ("alpha", "beta"),
    "GradedDecomposition": ("graph", "components"),
    "QPoly": ("coeffs",),
    "Poset": ("elements", "cover_pairs"),
    "GradedIdeal": ("generators",),
    "ExtractionWitness": ("left", "right", "vertex", "scalar"),
    "CyclePolynomial": ("cycle", "base", "poly"),
    "LambdaGeneratorSet": ("graph", "polys", "vertex_gens"),
    "LambdaReduction": ("graph", "vertex_part", "polys"),
    "TwoVertexShape": ("loops_u", "loops_v", "uv", "vu"),
    "CanonicalForm16": ("id", "shape"),
    "SkeletonFamily": ("cycle", "att", "inside"),
    "LatticeSkeleton": ("graph", "graded", "families"),
    "Classification": ("label", "canonical", "skeleton", "note"),
}

G_R1 = "Graph(vertices=('v',), edges=('e',), ends=(('v', 'v'),))"
G_P2 = "Graph(vertices=('a', 'b'), edges=('x',), ends=(('a', 'b'),))"
CYCLE_E = f"Cycle(graph={G_R1}, edges=('e',))"
R1_EMPTY = f"HeredSatSet(graph={G_R1}, mask=0)"
R1_V = f"HeredSatSet(graph={G_R1}, mask=1)"
X_MONOMIAL = (
    f"Monomial(alpha=Path(graph={G_P2}, base='a', edges=('x',)), "
    f"beta=Path(graph={G_P2}, base='b', edges=()))"
)
R1_POLY = "QPoly(coeffs=(Fraction(-1, 1), Fraction(0, 1), Fraction(1, 1)))"
R1_CYCLE_POLY = f"CyclePolynomial(cycle={CYCLE_E}, base='v', poly={R1_POLY})"
R1_FAMILY = f"SkeletonFamily(cycle={CYCLE_E}, att=0, inside=frozenset({{1}}))"
R1_SKELETON = (
    f"LatticeSkeleton(graph={G_R1}, graded=Poset(elements=({R1_EMPTY}, {R1_V}), "
    f"cover_pairs=((0, 1),)), families=({R1_FAMILY},))"
)
SHAPE_6 = "TwoVertexShape(loops_u=1, loops_v=0, uv=1, vu=0)"


def _r1_monomial(edges):
    return (
        f"Monomial(alpha=Path(graph={G_R1}, base='v', edges={edges}), "
        f"beta=Path(graph={G_R1}, base='v', edges=()))"
    )


REPRS = {
    "Graph": G_R1,
    "Path": f"Path(graph={G_P2}, base='a', edges=('x',))",
    "Cycle": CYCLE_E,
    "VertexClass": f"VertexClass(kind='K1', cycle={CYCLE_E})",
    "HeredSatSet": R1_V,
    "Monomial": X_MONOMIAL,
    "GradedDecomposition": (
        f"GradedDecomposition(graph={G_R1}, components=("
        f"(0, Element(graph={G_R1}, terms=(({_r1_monomial('()')}, Fraction(1, 1)),))), "
        f"(1, Element(graph={G_R1}, terms=(({_r1_monomial(repr(('e',)))}, Fraction(2, 1)),)))))"
    ),
    "QPoly": "QPoly(coeffs=(Fraction(-1, 1), Fraction(0, 1), Fraction(1, 2)))",
    "Poset": (
        f"Poset(elements=(GradedIdeal(generators={R1_EMPTY}), GradedIdeal(generators={R1_V})), "
        "cover_pairs=((0, 1),))"
    ),
    "GradedIdeal": f"GradedIdeal(generators={R1_V})",
    "ExtractionWitness": (
        f"ExtractionWitness(left=(Monomial(alpha=Path(graph={G_P2}, base='b', edges=()), "
        f"beta=Path(graph={G_P2}, base='a', edges=('x',))),), "
        "right=(), vertex='b', scalar=Fraction(2, 1))"
    ),
    "CyclePolynomial": R1_CYCLE_POLY,
    "LambdaGeneratorSet": (
        f"LambdaGeneratorSet(graph={G_R1}, polys=({R1_CYCLE_POLY},), vertex_gens=frozenset())"
    ),
    "LambdaReduction": (
        f"LambdaReduction(graph={G_R1}, "
        f"vertex_part={R1_EMPTY}, "
        f"polys=(({CYCLE_E}, {R1_POLY}),))"
    ),
    "TwoVertexShape": "TwoVertexShape(loops_u=2, loops_v=1, uv=1, vu=0)",
    "CanonicalForm16": f"CanonicalForm16(id=6, shape={SHAPE_6})",
    "SkeletonFamily": R1_FAMILY,
    "LatticeSkeleton": R1_SKELETON,
    "Classification": (
        f"Classification(label='VIII', canonical=CanonicalForm16(id=6, shape={SHAPE_6}), "
        f"skeleton={R1_SKELETON}, note=None)"
    ),
}

NAMES = sorted(SAMPLES)


def _fields(obj):
    return tuple(getattr(obj, f) for f in FIELDS[type(obj).__name__])


def _record_classes():
    for module in ("graphs", "elements", "polynomials", "ideals", "twovertex", "cli"):
        importlib.import_module(f"leavitt.{module}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls.__name__)
            todo.append(cls)
    return found


def test_every_class_is_sampled():
    # Element compares and hashes its integer codes, not its field tuple;
    # test_elements.py checks its equality, hash, copy and pickle.
    assert set(SAMPLES) == set(FIELDS) == set(REPRS) == _record_classes() - {"Element"}
    for name, pair in SAMPLES.items():
        assert [type(x).__name__ for x in pair] == [name, name]


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_form(name):
    assert repr(SAMPLES[name][0]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_follow_the_field_tuple(name):
    a, b = SAMPLES[name]
    twin = type(a)(*_fields(a))
    assert twin == a and not twin != a
    assert hash(a) == hash(twin) == hash(_fields(a))
    assert a != b and (a == b) == (_fields(a) == _fields(b))
    assert a.__match_args__ == FIELDS[name]


@pytest.mark.parametrize("name", NAMES)
def test_every_field_takes_part_in_equality(name):
    a = SAMPLES[name][0]
    for field in FIELDS[name]:
        variant = copy.copy(a)
        object.__setattr__(variant, field, object())
        assert variant != a and a != variant
        assert hash(variant) == hash(_fields(variant))


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_only_against_the_same_class(name):
    a = SAMPLES[name][0]
    assert a.__eq__(_fields(a)) is NotImplemented
    assert a != _fields(a)


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = SAMPLES[name][0]
    field = FIELDS[name][0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    assert _fields(a) == _fields(SAMPLES[name][0])


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_give_an_equal_object(name):
    a = SAMPLES[name][0]
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)


def test_graph_caches_stay_out_of_equality_hash_and_repr(monkeypatch):
    warm = validate_graph(["v"], [("e", "v", "v")])
    classify_vertex(warm, "v")
    parse_element(warm, "e")
    assert warm._kclass is not None and warm._index is not None
    assert warm == R1 and hash(warm) == hash(R1) and repr(warm) == G_R1
    clone = pickle.loads(pickle.dumps(warm))
    assert clone._kclass is None and clone._index is None and clone == warm
    # The closure, the hereditary saturated sets and the K-classes behind a
    # skeleton all read one index, built once.
    built = []

    def counted(g, build=graphs._Index):
        built.append(build(g))
        return built[-1]

    monkeypatch.setattr(graphs, "_Index", counted)
    g = validate_graph(["u", "v"], [("e", "u", "u"), ("a", "u", "v")])
    build_skeleton(g)
    assert len(built) == 1 and built[0] is g._index


def test_two_vertex_shapes_order_by_their_field_tuples():
    tuples = [(2, 0, 0, 0), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 2, 0), (0, 1, 1, 0), (1, 0, 0, 1)]
    shapes = [TwoVertexShape(*t) for t in tuples]
    assert [s.astuple() for s in sorted(shapes)] == sorted(tuples)
    a, b = TwoVertexShape(0, 1, 1, 0), TwoVertexShape(1, 0, 0, 0)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or b <= a or a > b or a >= b)
    with pytest.raises(TypeError):
        a < (1, 0, 0, 0)


# Builds ideals, skeletons and a classification on fixed graphs, prints their
# repr and their pickle; given another process's pickle on stdin, it checks
# that the objects load equal to its own and prints their repr.
_REPR_SCRIPT = """
import pickle, sys
from leavitt import (
    CyclePolynomial, LambdaGeneratorSet, build_skeleton, classify, graded_lattice,
    lambda_reduce, validate_graph,
)
g3 = validate_graph(["w", "u", "v"], [("e", "u", "u"), ("a", "u", "v"), ("b", "w", "v")])
g2 = validate_graph(["u", "v"], [("p", "u", "u"), ("a", "u", "v")])
gens = LambdaGeneratorSet.of(g3, [CyclePolynomial.of(g3, ["e"], "u", [-1, 1])], ["v", "w"])
values = [graded_lattice(g3), lambda_reduce(g3, gens), build_skeleton(g3), classify(g2)]
print(repr(values))
print(pickle.dumps(values).hex())
other = sys.stdin.read().strip()
if other:
    loaded = pickle.loads(bytes.fromhex(other))
    assert loaded == values
    print(repr(loaded))
"""


def test_reprs_do_not_depend_on_the_string_hash_seed():
    """Vertex sets print from their bitmasks in vertex order, so three
    processes with different string-hash seeds print the same reprs, and
    each loads the previous one's pickle as equal objects with that repr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(leavitt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    runs, previous = [], ""
    for seed in ("1", "2", "3"):
        done = subprocess.run(
            [sys.executable, "-c", _REPR_SCRIPT], input=previous, capture_output=True,
            text=True, env=dict(env, PYTHONHASHSEED=seed), check=True,
        )
        runs.append(done.stdout.splitlines())
        previous = runs[-1][1]
    first = runs[0][0]
    assert [lines[0] for lines in runs] == [first] * 3
    assert [lines[2] for lines in runs[1:]] == [first] * 2
