"""The package surface: the names ``leavitt`` re-exports, resolved on first
access so that importing the package loads no layer, and each layer's own
``__all__``."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import leavitt

EXPORTS = {
    "errors": ["DomainError", "GraphError", "LpaError", "ParseError"],
    "graphs": [
        "Cycle", "Graph", "HeredSatSet", "Path", "Poset", "VertexClass",
        "all_hereditary_saturated_sets", "classify_vertex", "condition_k", "exit_range",
        "hereditary_saturated_closure", "k1_cycles", "parse_graph", "serialize_graph",
        "validate_graph",
    ],
    "elements": [
        "Element", "GradedDecomposition", "Monomial", "add", "format_element", "gdeg",
        "ghost_path_element", "graded_components", "monomial", "monomial_element", "mul",
        "normalize", "parse_element", "path_element", "scale", "sub", "unit", "vertex_element",
    ],
    "polynomials": ["QPoly"],
    "ideals": [
        "CyclePolynomial", "ExtractionWitness", "LambdaGeneratorSet", "LambdaReduction",
        "contains", "extract_vertex", "generator_set_from_json", "generator_set_to_json",
        "graded_lattice", "is_graded", "lambda_reduce", "lattice_dot", "nongraded_witness",
        "reduction_to_json", "vertex_membership",
    ],
    "twovertex": [
        "CanonicalForm16", "Classification", "LatticeSkeleton", "TwoVertexShape",
        "build_skeleton", "canonicalize16", "classify", "count_closed_form",
        "enumerate_up_to_iso",
    ],
}
NAMES = {name for names in EXPORTS.values() for name in names}
# Each layer's ``__all__``, in its own order: the package's names plus the
# ones a layer offers only under its own name.
LAYER_ALL = {
    "graphs": [
        "Graph", "Path", "Cycle", "VertexClass", "HeredSatSet", "Poset", "validate_graph",
        "parse_graph", "serialize_graph", "classify_vertex", "condition_k",
        "hereditary_saturated_closure", "all_hereditary_saturated_sets", "exit_range",
        "k1_cycles",
    ],
    "elements": [
        "Monomial", "Element", "GradedDecomposition", "vertex_element", "path_element",
        "ghost_path_element", "monomial", "monomial_element", "unit", "normalize", "mul", "add",
        "sub", "scale", "graded_components", "gdeg", "parse_element", "format_element",
    ],
    "polynomials": ["QPoly"],
    "ideals": [
        "Poset", "CyclePolynomial", "LambdaGeneratorSet", "LambdaReduction",
        "ExtractionWitness", "graded_lattice", "lattice_dot", "extract_vertex",
        "nongraded_witness", "lambda_reduce", "contains", "vertex_membership", "is_graded",
        "generator_set_from_json", "generator_set_to_json", "reduction_to_json",
    ],
    "twovertex": [
        "TwoVertexShape", "CanonicalForm16", "LatticeSkeleton", "SkeletonFamily",
        "Classification", "count_closed_form", "enumerate_up_to_iso", "canonicalize16",
        "canonical_form_of_shape", "build_skeleton", "classify",
    ],
    "records": ["FrozenInstanceError", "Record"],
}


def test_all_lists_the_re_exported_names():
    assert len(NAMES) == 62
    assert set(leavitt.__all__) == NAMES and len(leavitt.__all__) == 62


def test_each_layer_pins_its_all():
    for module, names in LAYER_ALL.items():
        layer = import_module(f"leavitt.{module}")
        assert layer.__all__ == names, module
        assert all(hasattr(layer, name) for name in names), module
    for module, names in EXPORTS.items():
        if module != "errors":
            assert set(names) <= set(LAYER_ALL[module]), module


def test_star_import_binds_every_name_from_its_module():
    namespace = {}
    exec("from leavitt import *", namespace)
    for module, names in EXPORTS.items():
        layer = getattr(leavitt, module)
        for name in names:
            assert namespace[name] is getattr(layer, name) is getattr(leavitt, name)
    assert leavitt.Poset is leavitt.ideals.Poset is leavitt.graphs.Poset


def test_dir_lists_the_names_and_the_layers():
    assert NAMES | set(EXPORTS) <= set(dir(leavitt))


def test_unknown_names_raise_the_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'leavitt' has no attribute 'nope'$"):
        leavitt.nope
    with pytest.raises(ImportError):
        exec("from leavitt import nope", {})


def test_names_and_layers_load_on_first_access():
    probe = """
import sys
import leavitt
loaded = lambda: sorted(m for m in sys.modules if m.startswith("leavitt."))
print(loaded())
print(leavitt.graphs.__name__, loaded())
print(leavitt.Classification.__module__, loaded())
print(leavitt.ideals.lambda_reduce.__module__, loaded())
"""
    env = dict(os.environ, PYTHONPATH=str(Path(leavitt.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    graphs = "'leavitt.errors', 'leavitt.graphs', 'leavitt.records'"
    assert done.stdout.splitlines() == [
        "[]",
        f"leavitt.graphs [{graphs}]",
        f"leavitt.twovertex [{graphs}, 'leavitt.twovertex']",
        "leavitt.ideals ['leavitt.errors', 'leavitt.graphs', 'leavitt.ideals', "
        "'leavitt.polynomials', 'leavitt.records', 'leavitt.twovertex']",
    ]
