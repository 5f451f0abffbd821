"""Each oracle accepts a right answer and rejects a corrupted one.

Run with ``python3 -m pytest benches`` from the root of the repository.
"""

from __future__ import annotations

import json

import oracles
import workloads
from oracles import check


def graph(vs_es):
    return workloads.graph_text(*vs_es)


CHAINS = graph(workloads.loop_chains(2, 2))   # x0_0 -> x0_1, x1_0 -> x1_1, a loop everywhere
MIXED = graph((["a", "b", "c", "d"], [("p", "a", "a"), ("q", "a", "a"), ("f", "a", "b"),
                                      ("g", "b", "c"), ("h", "c", "b")]))


def families(op, out):
    return check("families", [op], [out])


def test_k_classes_from_components():
    vertices, edges = oracles.parse_graph(MIXED)
    classes = oracles.k_classes(vertices, edges)
    assert {v: classes[v][0] for v in vertices} == {"a": "K2", "b": "K1", "c": "K1", "d": "K0"}


def test_condition_k_rejects_corruption():
    op = {"kind": "condition_k", "graph": MIXED}
    assert families(op, [False, ["b", "c"]]) == []
    assert families(op, [True, []])
    assert families(op, [False, ["b"]])


def test_classify_vertex_rejects_wrong_class_and_cycle():
    op = {"kind": "classify_vertex", "graph": MIXED, "vertex": "b"}
    assert families(op, ["K1", ["g", "h"]]) == []
    assert families(op, ["K2", None])
    assert families(op, ["K1", ["h", "g"]])


def test_closure_and_hs_sets_reject_corruption():
    path = graph(workloads.path(4))
    closure = {"kind": "closure", "graph": path, "start": ["v2"]}
    assert families(closure, ["v0", "v1", "v2", "v3"]) == []   # saturation pulls the path back
    assert families(closure, ["v2", "v3"])
    op = {"kind": "hs_sets", "graph": path, "family": "path"}
    assert families(op, [[], ["v0", "v1", "v2", "v3"]]) == []
    assert families(op, [[], ["v3"], ["v0", "v1", "v2", "v3"]])   # {v3} is not saturated-closed
    assert families(op, [[]])
    iso = {"kind": "hs_sets", "graph": graph(workloads.isolated(2)), "family": "isolated"}
    assert families(iso, [[], ["v0"], ["v1"], ["v0", "v1"]]) == []
    assert families(iso, [[], ["v1"], ["v0"], ["v0", "v1"]])      # wrong order


def test_lattice_dot_rejects_a_missing_cover():
    op = {"kind": "lattice", "graph": graph(workloads.isolated(2))}
    dot = ('digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n  n0 [label="0"];\n'
           '  n1 [label="{v0}"];\n  n2 [label="{v1}"];\n  n3 [label="L"];\n'
           "  n0 -> n1;\n  n0 -> n2;\n  n1 -> n3;\n  n2 -> n3;\n}\n")
    assert families(op, dot) == []
    assert families(op, dot.replace("  n2 -> n3;\n", ""))


def test_k1_cycles_and_witness_reject_corruption():
    assert families({"kind": "k1_cycles", "graph": MIXED}, [["g", "h"]]) == []
    assert families({"kind": "k1_cycles", "graph": MIXED}, [["h", "g"]])
    op = {"kind": "nongraded_witness", "graph": MIXED}
    assert families(op, ["b", ["g", "h"], "b + g.h"]) == []
    assert families(op, ["c", ["h", "g"], "c + h.g"])


def test_lambda_reduce_against_sympy_gcd():
    ideal = {"vertices": [], "polys": [
        {"cycle": ["l0_0"], "base": "x0_0", "coeffs": ["-1", "0", "1"]},   # x^2 - 1
        {"cycle": ["l0_0"], "base": "x0_0", "coeffs": ["2", "2"]},         # 2x + 2
    ]}
    op = {"kind": "lambda_reduce", "graph": CHAINS, "ideal": ideal}
    want = {"vertices": ["x0_1"], "polys": [{"cycle": ["l0_0"], "base": "x0_0", "coeffs": ["1", "1"]}]}
    assert families(op, want) == []
    assert families(op, dict(want, polys=[{"cycle": ["l0_0"], "base": "x0_0", "coeffs": ["-1", "1"]}]))
    assert families(op, dict(want, vertices=[]))


def test_contains_against_sympy_divisibility():
    a = {"vertices": [], "polys": [{"cycle": ["l0_0"], "base": "x0_0", "coeffs": ["-1", "0", "1"]}]}
    b = {"vertices": [], "polys": [{"cycle": ["l0_0"], "base": "x0_0", "coeffs": ["1", "1"]}]}
    assert families({"kind": "contains", "graph": CHAINS, "ideal_a": a, "ideal_b": b}, True) == []
    assert families({"kind": "contains", "graph": CHAINS, "ideal_a": a, "ideal_b": b}, False)
    assert families({"kind": "contains", "graph": CHAINS, "ideal_a": b, "ideal_b": a}, True)


def algebra(ops, outputs):
    return check("algebra", ops, outputs)


def test_laurent_products_in_r1():
    op = {"kind": "mul", "graph": "R1", "x": "1*e1 + 2*e1*'", "y": "1*e1*'"}
    assert algebra([op], ["2*e1*'.e1*' + v"]) == []
    assert algebra([op], ["v + 2*e1*'.e1*'"])   # order
    assert algebra([op], ["2*e1*'.e1*' + 2*v"])


def test_matrix_units_and_unit_sum():
    n = workloads.P_N
    op = {"kind": "mul", "graph": "P", "units": [1, 3, 3, 0]}
    assert algebra([op], ["e0*'"]) == []
    assert algebra([op], ["0"])
    assert algebra([dict(op, units=[1, 3, 2, 0])], ["0"]) == []
    unit = {"kind": "unit_sum", "graph": "P", "text": ""}
    assert algebra([unit], [" + ".join(f"v{i}" for i in range(n))]) == []
    assert algebra([unit], [" + ".join(f"v{i}" for i in range(n - 1))])


def test_padded_twins_and_associativity_must_agree():
    x = "1*e2"
    ops = [{"kind": "mul", "graph": "R3", "x": x, "y": x},
           {"kind": "mul", "graph": "R3pad", "x": x, "y": x, "pair": 0}]
    assert algebra(ops, ["e2.e2", "e2.e2"]) == []
    assert algebra(ops, ["e2.e2", "e2.e2 + v"])
    trip = [{"kind": "mul_left", "graph": "R3", "x": x, "y": x, "z": x},
            {"kind": "mul_right", "graph": "R3", "x": x, "y": x, "z": x, "pair": 0}]
    assert algebra(trip, ["e2.e2.e2", "e2.e2.e2"]) == []
    assert algebra(trip, ["e2.e2.e2", "2*e2.e2.e2"])


def test_rose_normal_form_rejects_a_reducible_turn():
    op = {"kind": "normalize", "graph": "R3", "raw": [[["e1"], ["e1"], "1"]]}
    assert algebra([op], ["-e2.e2*' - e3.e3*' + v"]) == []
    assert algebra([op], ["e1.e1*'"])


def test_graded_components_must_partition_the_element():
    op = {"kind": "graded", "graph": "R3", "x": "1*e3 + 1*e2*'"}
    out = {"components": [[-1, "e2*'"], [1, "e3"]], "whole": "e2*' + e3"}
    assert algebra([op], [out]) == []
    assert algebra([op], [dict(out, components=[[1, "e3"]])])
    assert algebra([op], [dict(out, components=[[-1, "e3"], [1, "e2*'"]])])


def test_r3_values_reject_zero_and_wrong_scale():
    x, y = "2*e1 + 1*e2*' - 3*e3.e1", "1*e1*' - 1/2*e2"
    # e1.e1*' = v - e2.e2*' - e3.e3*' (CK2) turns the raw product into this normal form
    product = ("e2*'.e1*' - 2*e2.e2*' - 2*e3.e3*' + 3*e3.e2.e2*' + 3*e3.e3.e3*' + 3/2*v - 3*e3 - e1.e2"
               " + 3/2*e3.e1.e2")
    op = {"kind": "mul", "graph": "R3", "x": x, "y": y}
    assert algebra([op], [product]) == []
    assert algebra([op], ["0"])
    assert algebra([op], [product.replace("3/2*v", "3*v")])
    power = {"kind": "power", "graph": "R3", "x": "1*e2 + 1*e2*'", "n": 2}
    assert algebra([power], ["e2*'.e2*' + e2.e2*' + v + e2.e2"]) == []
    assert algebra([power], ["e2*'.e2*' + e2.e2*' + 2*v + e2.e2"])
    parse = {"kind": "parse", "graph": "R3", "text": "1*e1.e1*' + 1*e2.e2*' + 1*e3.e3*'"}
    assert algebra([parse], ["v"]) == []                               # CK2 at v
    assert algebra([parse], ["e2.e2*' + e3.e3*'"])


def test_extraction_witness_must_reapply():
    op = {"kind": "extract", "graph": "chain8", "x": "2*w + a0.a1.a2.a3.a4.a5.a6.a7"}
    left, right = ["b7*'.a6*'.a5*'.a4*'.a3*'.a2*'.a1*'.a0*'"], ["a0.a1.a2.a3.a4.a5.a6.b7"]
    assert algebra([op], [["w", "2", left, right]]) == []
    assert algebra([op], [["w", "1", left, right]])
    assert algebra([op], [["w", "2", [], right]])
    assert algebra([op], [["w", "0", left, right]])
    ghost = {"kind": "extract", "graph": "chain8", "x": "3*c1 - b1*'.a0*'"}
    assert algebra([ghost], [["c2", "-1", [], ["w", "a0", "b1"]]]) == []
    assert algebra([ghost], [["c2", "1", [], ["w", "a0", "b1"]]])


def test_census_swap_invariance_and_count():
    ops = [{"kind": "enumerate", "k": 1},
           {"kind": "classify", "shape": [1, 0, 0, 0], "edges": []},
           {"kind": "classify", "shape": [1, 0, 0, 0], "edges": [], "pair": 1}]
    good = [[2, [[1, 0, 0, 0], [0, 0, 1, 0]]], ["VIII", 5], ["VIII", 5]]
    errors = check("census", ops, good)
    assert len(errors) == 1 and "census totals" in errors[0]   # a partial census cannot match
    assert len(check("census", ops, [good[0], good[1], ["VII", 5]])) == 2
    assert len(check("census", ops, [[3, good[0][1]], good[1], good[2]])) == 2


def test_cli_outputs_reject_corruption():
    count = {"kind": "count2", "k": 3}
    n = len(workloads.census_shapes(3))
    assert check("cli", [count], [json.dumps({"count": n, "enumeration": n, "verified": True})]) == []
    assert check("cli", [count], [json.dumps({"count": n + 1, "enumeration": n + 1, "verified": True})])
    pair = [{"kind": "classify2"}, {"kind": "classify2", "pair": 0}]
    assert check("cli", pair, [json.dumps({"class": "II", "type": 3})] * 2) == []
    assert check("cli", pair, [json.dumps({"class": "II", "type": 3}), json.dumps({"class": "I", "type": 3})])
