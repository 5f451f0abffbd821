"""Computer algebra for Leavitt path algebras of finite directed graphs.

Graphs, exact element arithmetic with a rewriting normal form, graded and
cycle-polynomial ideal analysis, and the two-vertex classification.
"""

from .errors import DomainError, GraphError, LpaError, ParseError
from .graphs import (
    Cycle,
    Graph,
    HeredSatSet,
    Path,
    VertexClass,
    all_hereditary_saturated_sets,
    classify_vertex,
    condition_k,
    exit_range,
    hereditary_saturated_closure,
    k1_cycles,
    parse_graph,
    serialize_graph,
    validate_graph,
)
from .elements import (
    Element,
    GradedDecomposition,
    Monomial,
    add,
    degree,
    format_element,
    gdeg,
    graded_components,
    is_homogeneous,
    monomial,
    monomial_element,
    mul,
    mul_monomials,
    normalize,
    parse_element,
    path_element,
    ghost_path_element,
    scale,
    sub,
    unit,
    vertex_element,
)
from .polynomials import QPoly
from .ideals import (
    CyclePolynomial,
    ExtractionWitness,
    GradedIdeal,
    LambdaGeneratorSet,
    LambdaReduction,
    Poset,
    contains,
    extract_vertex,
    generator_set_from_json,
    generator_set_to_json,
    graded_lattice,
    is_graded,
    lambda_reduce,
    lattice_dot,
    nongraded_witness,
    reduction_to_json,
    vertex_membership,
)
from .twovertex import (
    CanonicalForm16,
    Classification,
    LatticeSkeleton,
    TwoVertexShape,
    build_skeleton,
    canonicalize16,
    classify,
    count_closed_form,
    enumerate_up_to_iso,
)

__version__ = "0.1.0"
