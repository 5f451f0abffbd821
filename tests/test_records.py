"""The value classes behave as frozen dataclasses did: field-tuple equality
and hash, ``Name(field=value, ...)`` repr, no assignment or deletion, copy
and pickle, field-tuple ordering for ``TwoVertexShape``, and a constructor
that takes the fields in order, written by ``Record`` unless the class
caches something (only ``Graph``).  No record writes its own equality or
hash.

The repr literals are the strings the dataclass versions printed, except
that paths, cycles, monomials and elements print their integer codes (an
element its numerators and their one denominator) and polynomials their
numerators and one denominator, so a change in any field's name, order or
repr shows here.  Every ``Record``
subclass must have samples, so none escapes these checks of the methods
they inherit.
"""

import ast
import copy
import importlib
import inspect
import os
import pickle
import re
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
        "Element": (parse_element(R1, "v - 1/2*e"), parse_element(R1, "e")),
        "GradedDecomposition": (
            graded_components(parse_element(R1, "v + 2*e")),
            graded_components(parse_element(R1, "e")),
        ),
        "QPoly": (QPoly.of(["-1", "0", "1/2"]), QPoly.of([1])),
        "Poset": (lattice, Poset((1, 2, 3), ((0, 1), (1, 2)))),
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
            Classification("VIII", canonicalize16(TWO), skel, None),
            Classification("VIII", canonicalize16(TWO), skel, "a note"),
        ),
    }


SAMPLES = _samples()

FIELDS = {
    "Graph": ("vertices", "edges", "ends"),
    "Path": ("graph", "code"),
    "Cycle": ("graph", "ids"),
    "VertexClass": ("kind", "cycle"),
    "HeredSatSet": ("graph", "mask"),
    "Monomial": ("graph", "code"),
    "Element": ("graph", "codes", "den"),
    "GradedDecomposition": ("graph", "components"),
    "QPoly": ("nums", "den"),
    "Poset": ("elements", "covers"),
    "ExtractionWitness": ("left", "right", "vertex", "scalar"),
    "CyclePolynomial": ("cycle", "base", "poly"),
    "LambdaGeneratorSet": ("graph", "polys", "mask"),
    "LambdaReduction": ("graph", "vertex_part", "polys"),
    "TwoVertexShape": ("loops_u", "loops_v", "uv", "vu"),
    "CanonicalForm16": ("id", "shape"),
    "SkeletonFamily": ("cycle", "att", "inside"),
    "LatticeSkeleton": ("graph", "graded", "families"),
    "Classification": ("label", "canonical", "skeleton", "note"),
}

G_R1 = "Graph(vertices=('v',), edges=('e',), ends=(('v', 'v'),))"
G_P2 = "Graph(vertices=('a', 'b'), edges=('x',), ends=(('a', 'b'),))"
CYCLE_E = f"Cycle(graph={G_R1}, ids=(0,))"
R1_EMPTY = f"HeredSatSet(graph={G_R1}, mask=0)"
R1_V = f"HeredSatSet(graph={G_R1}, mask=1)"
R1_POLY = "QPoly(nums=(-1, 0, 1), den=1)"
R1_CYCLE_POLY = f"CyclePolynomial(cycle={CYCLE_E}, base='v', poly={R1_POLY})"
R1_FAMILY = f"SkeletonFamily(cycle={CYCLE_E}, att=0, inside=frozenset({{1}}))"
R1_SKELETON = (
    f"LatticeSkeleton(graph={G_R1}, graded=Poset(elements=({R1_EMPTY}, {R1_V}), "
    f"covers=((0, 1),)), families=({R1_FAMILY},))"
)
SHAPE_6 = "TwoVertexShape(loops_u=1, loops_v=0, uv=1, vu=0)"


REPRS = {
    "Graph": G_R1,
    "Path": f"Path(graph={G_P2}, code=(0, 0))",
    "Cycle": CYCLE_E,
    "VertexClass": f"VertexClass(kind='K1', cycle={CYCLE_E})",
    "HeredSatSet": R1_V,
    "Monomial": f"Monomial(graph={G_P2}, code=((0, 0), (1,)))",
    "Element": (
        f"Element(graph={G_R1}, codes=((((0,), (0,)), 2), (((0, 0), (0,)), -1)), den=2)"
    ),
    "GradedDecomposition": (
        f"GradedDecomposition(graph={G_R1}, components=("
        f"(0, Element(graph={G_R1}, codes=((((0,), (0,)), 1),), den=1)), "
        f"(1, Element(graph={G_R1}, codes=((((0, 0), (0,)), 2),), den=1))))"
    ),
    "QPoly": "QPoly(nums=(-2, 0, 1), den=2)",
    "Poset": (
        f"Poset(elements=(LambdaReduction(graph={G_R1}, vertex_part={R1_EMPTY}, polys=()), "
        f"LambdaReduction(graph={G_R1}, vertex_part={R1_V}, polys=())), covers=((0, 1),))"
    ),
    "ExtractionWitness": (
        f"ExtractionWitness(left=(Monomial(graph={G_P2}, code=((1,), (0, 0))),), "
        "right=(), vertex='b', scalar=2)"
    ),
    "CyclePolynomial": R1_CYCLE_POLY,
    "LambdaGeneratorSet": (
        f"LambdaGeneratorSet(graph={G_R1}, polys=({R1_CYCLE_POLY},), mask=0)"
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
    """Every Record subclass, by name."""
    for module in ("graphs", "elements", "polynomials", "ideals", "twovertex", "cli"):
        importlib.import_module(f"leavitt.{module}")
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found[cls.__name__] = cls
            todo.append(cls)
    return found


RECORDS = _record_classes()
# The one record that caches something in its constructor: Graph builds
# its name indexes.
OWN_INIT = {"Graph"}
GENERATED = sorted(set(RECORDS) - OWN_INIT)


def test_every_class_is_sampled():
    assert set(SAMPLES) == set(FIELDS) == set(REPRS) == set(RECORDS)
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


def test_no_record_writes_its_own_equality_or_hash():
    """Every record compares and hashes its field tuple through Record."""
    own = {
        name for name, cls in RECORDS.items()
        if "__eq__" in cls.__dict__ or "__hash__" in cls.__dict__
    }
    assert own == set()


@pytest.mark.parametrize("fields", [(), ("value",)])
def test_a_record_with_fewer_than_two_fields_is_refused(fields):
    """The field getter, repr and pickling need a field tuple, which
    ``attrgetter`` of one name does not give, so such a class is refused."""
    message = f"record Short needs two or more fields, not {fields!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        type("Short", (Record,), {"__slots__": fields, "__match_args__": fields})


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


def test_only_records_that_check_cache_or_default_write_a_constructor():
    written = {
        name for name, cls in RECORDS.items()
        if not cls.__init__.__code__.co_filename.startswith("<")
    }
    assert written == OWN_INIT
    for name in OWN_INIT:
        assert "__init__" in RECORDS[name].__dict__, name


@pytest.mark.parametrize("name", GENERATED)
def test_a_generated_constructor_takes_the_fields_in_order(name):
    cls, fields = RECORDS[name], FIELDS[name]
    init = cls.__dict__["__init__"]
    assert (init.__qualname__, init.__module__) == (f"{name}.__init__", cls.__module__)
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)
    a = SAMPLES[name][0]
    values = _fields(a)
    assert cls(*values) == cls(**dict(zip(fields, values))) == a
    missing = f"{name}.__init__() missing 1 required positional argument: '{fields[-1]}'"
    with pytest.raises(TypeError, match=re.escape(missing)):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, None)


def _only_sets_its_fields(init: ast.FunctionDef) -> bool:
    """Whether a constructor takes no defaults and does nothing but
    ``_set(self, "f", f)`` for each of its parameters in order."""
    names = [a.arg for a in init.args.args[1:]]
    body = [ast.unparse(stmt) for stmt in init.body]
    return not init.args.defaults and body == [f"_set(self, {f!r}, {f})" for f in names]


def test_no_constructor_only_sets_its_fields():
    """Record writes such a constructor itself, so none is written by hand."""
    package = os.path.dirname(leavitt.__file__)
    inits, boilerplate = set(), []
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
                for init in [n for n in cls.body if getattr(n, "name", None) == "__init__"]:
                    inits.add(cls.name)
                    if _only_sets_its_fields(init):
                        boilerplate.append(f"{filename}: {cls.name}")
    assert OWN_INIT <= inits
    assert boilerplate == []


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


# Builds a path, a cycle, a monomial, an element, a K1 vertex class, an
# extraction witness, a generator set, ideals, skeletons and a classification
# on fixed graphs, prints their repr and their pickle; given another process's
# pickle on stdin, it checks that the objects load equal to its own and prints
# their repr.
_REPR_SCRIPT = """
import pickle, sys
from leavitt import (
    Cycle, CyclePolynomial, LambdaGeneratorSet, Path, build_skeleton, classify,
    classify_vertex, extract_vertex, graded_lattice, lambda_reduce, monomial, parse_element,
    validate_graph,
)
g3 = validate_graph(["w", "u", "v"], [("e", "u", "u"), ("a", "u", "v"), ("b", "w", "v")])
g2 = validate_graph(["u", "v"], [("p", "u", "u"), ("a", "u", "v")])
r2 = validate_graph(["v"], [("e", "v", "v"), ("f", "v", "v")])
gens = LambdaGeneratorSet.of(g3, [CyclePolynomial.of(g3, ["e"], "u", [-1, 1])], ["v", "w"])
values = [
    Path.of(g3, ["e", "a"]), Cycle.of(g3, ["e"]), monomial(g3, ["e", "a"], ["b"]),
    parse_element(r2, "2*e.f*' - 1/2*f + v"), classify_vertex(g3, "u"),
    extract_vertex(r2, parse_element(r2, "e.f*' + 3*f.e.e*'")),
    graded_lattice(g3), gens, lambda_reduce(g3, gens), build_skeleton(g3), classify(g2),
]
print(repr(values))
print(pickle.dumps(values).hex())
other = sys.stdin.read().strip()
if other:
    loaded = pickle.loads(bytes.fromhex(other))
    assert loaded == values
    print(repr(loaded))
"""


def test_reprs_do_not_depend_on_the_string_hash_seed():
    """Vertex sets print from their bitmasks and paths and cycles from their
    integer codes, so three processes with different string-hash seeds print
    the same reprs, and each loads the previous one's pickle as equal objects
    with that repr."""
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
