"""The package surface: the names ``leavitt`` re-exports, resolved on first
access so that importing the package loads no layer."""

import os
import subprocess
import sys
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
        "Element", "GradedDecomposition", "Monomial", "add", "degree", "format_element", "gdeg",
        "ghost_path_element", "graded_components", "is_homogeneous", "monomial",
        "monomial_element", "mul", "mul_monomials", "normalize", "parse_element", "path_element",
        "scale", "sub", "unit", "vertex_element",
    ],
    "polynomials": ["QPoly"],
    "ideals": [
        "CyclePolynomial", "ExtractionWitness", "GradedIdeal", "LambdaGeneratorSet",
        "LambdaReduction", "contains", "extract_vertex", "generator_set_from_json",
        "generator_set_to_json", "graded_lattice", "is_graded", "lambda_reduce", "lattice_dot",
        "nongraded_witness", "reduction_to_json", "vertex_membership",
    ],
    "twovertex": [
        "CanonicalForm16", "Classification", "LatticeSkeleton", "TwoVertexShape",
        "build_skeleton", "canonicalize16", "classify", "count_closed_form",
        "enumerate_up_to_iso",
    ],
}
NAMES = {name for names in EXPORTS.values() for name in names}


def test_all_lists_the_re_exported_names():
    assert len(NAMES) == 66
    assert set(leavitt.__all__) == NAMES and len(leavitt.__all__) == 66


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
