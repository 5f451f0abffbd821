"""Computer algebra for Leavitt path algebras of finite directed graphs.

Graphs, exact element arithmetic with a rewriting normal form, graded and
cycle-polynomial ideal analysis, and the two-vertex classification.

The public surface is what the system uses: a class, function, method or
property is public when the ``lpa`` command line, another layer, the
benchmark in ``benches/`` or one of the paper's definitions (paths and
cycles, K-classes, hereditary saturated sets, graded and cycle-polynomial
ideals, the two-vertex count and classes) needs it.  Helpers that only a
test needs live with the tests.

Names load on first access (PEP 562): ``import leavitt`` imports no layer,
and ``leavitt.X`` or ``from leavitt import X`` imports only the module that
defines X.  The layer modules themselves resolve the same way.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "GraphError", "LpaError", "ParseError"),
    "graphs": (
        "Cycle", "Graph", "HeredSatSet", "Path", "Poset", "VertexClass",
        "all_hereditary_saturated_sets", "classify_vertex", "condition_k", "exit_range",
        "hereditary_saturated_closure", "k1_cycles", "parse_graph", "serialize_graph",
        "validate_graph",
    ),
    "elements": (
        "Element", "GradedDecomposition", "Monomial", "add", "format_element", "gdeg",
        "graded_components", "monomial", "monomial_element", "mul", "normalize",
        "parse_element", "path_element", "ghost_path_element", "scale", "sub", "unit",
        "vertex_element",
    ),
    "polynomials": ("QPoly",),
    "ideals": (
        "CyclePolynomial", "ExtractionWitness", "LambdaGeneratorSet", "LambdaReduction",
        "contains", "extract_vertex", "generator_set_from_json", "generator_set_to_json",
        "graded_lattice", "is_graded", "lambda_reduce", "lattice_dot", "nongraded_witness",
        "reduction_to_json", "vertex_membership",
    ),
    "twovertex": (
        "CanonicalForm16", "Classification", "LatticeSkeleton", "TwoVertexShape",
        "build_skeleton", "canonicalize16", "classify", "count_closed_form",
        "enumerate_up_to_iso",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
