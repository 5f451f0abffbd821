"""Output, exit codes and error reporting of the lpa command.

``GOLDEN`` pins the exact stdout (or, on exit 1, the exact stderr) of every
command in each of its formats on small fixture graphs.  An argument after
``--graph`` names a fixture in ``GRAPHS``; an argument ``@name`` stands for
the ideal JSON ``IDEALS[name]``.  A JSON expectation is the decoded payload,
and the output must be its ``json.dumps(indent=2, sort_keys=True)`` text.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leavitt
from leavitt.cli import main

R1_TEXT = "vertices: v\nedge e: v -> v\n"

GRAPHS = {
    "r1": R1_TEXT,
    "r2": "vertices: v\nedge e: v -> v\nedge f: v -> v\n",
    "p3": "vertices: a b c\nedge x: a -> b\nedge y: b -> c\n",
    "chain": (
        "vertices: c0 c1 c2\n"
        "edge l0: c0 -> c0\nedge t0: c0 -> c1\n"
        "edge l1: c1 -> c1\nedge t1: c1 -> c2\n"
        "edge l2: c2 -> c2\n"
    ),
    "two": "vertices: u v\nedge e: u -> u\nedge a: u -> v\n",  # type [6]
    "two7": "vertices: u v\nedge e: u -> u\nedge d: v -> u\n",  # type [7]
}

IDEALS = {
    "r1_a": '{"polys": [{"cycle": ["e"], "coeffs": ["-1", "0", "1"]}]}',
    "r1_b": '{"polys": [{"cycle": ["e"], "coeffs": ["-1", "1"]}]}',
    "r2_a": "{}",
    "r2_b": '{"vertices": ["v"]}',
    "p3_a": '{"vertices": ["b"]}',
    "p3_b": '{"vertices": ["c"]}',
    "chain_a": '{"polys": [{"cycle": ["l1"], "coeffs": ["2", "1"]}]}',
    "chain_b": '{"vertices": ["c1"]}',
    "two_a": '{"polys": [{"cycle": ["e"], "coeffs": ["1", "0", "1"]}]}',
    "two_b": '{"vertices": ["u"]}',
}

GOLDEN = [
    (["check-k", "--graph", "r1", "--format", "text"], 0, "false: K1 vertices [v]\n"),
    (["check-k", "--graph", "r1", "--format", "json"], 0,
        {"condition_k": False, "k1_vertices": ["v"]}),
    (["classify-vertex", "--graph", "r1", "--vertex", "v", "--format", "text"], 0,
        "K1 cycle (e)\n"),
    (["classify-vertex", "--graph", "r1", "--vertex", "v", "--format", "json"], 0,
        {"class": "K1", "cycle": ["e"]}),
    (["closure", "--graph", "r1", "--vertices", "v", "--format", "text"], 0, "{v}\n"),
    (["closure", "--graph", "r1", "--vertices", "v", "--format", "json"], 0, {"closure": ["v"]}),
    (["hs-sets", "--graph", "r1", "--format", "text"], 0,
        (
            "{}\n"
            "{v}\n"
        )),
    (["hs-sets", "--graph", "r1", "--format", "json"], 0, {"sets": [[], ["v"]]}),
    (["graded-lattice", "--graph", "r1", "--format", "text"], 0,
        (
            "<0>\n"
            "<v>\n"
            "<0> < <v>\n"
        )),
    (["graded-lattice", "--graph", "r1", "--format", "json"], 0,
        {"covers": [[0, 1]], "nodes": [[], ["v"]]}),
    (["graded-lattice", "--graph", "r1", "--format", "dot"], 0,
        (
            "digraph lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  n0 [label="0"];\n'
            '  n1 [label="L"];\n'
            "  n0 -> n1;\n"
            "}\n"
        )),
    (["normalize", "--graph", "r1", "e + e*'", "--format", "text"], 0, "e*' + e\n"),
    (["normalize", "--graph", "r1", "e + e*'", "--format", "json"], 0, {"normal_form": "e*' + e"}),
    (["mul", "--graph", "r1", "e + e*'", "2*e.e - e*'", "--format", "text"], 0,
        "-e*'.e*' - v + 2*e + 2*e.e.e\n"),
    (["mul", "--graph", "r1", "e + e*'", "2*e.e - e*'", "--format", "json"], 0,
        {"product": "-e*'.e*' - v + 2*e + 2*e.e.e"}),
    (["grade", "--graph", "r1", "e.e*'", "--format", "text"], 0, "0: v\n"),
    (["grade", "--graph", "r1", "e.e*'", "--format", "json"], 0, {"components": {"0": "v"}}),
    (["lambda-reduce", "--graph", "r1", "--ideal", "@r1_a", "--format", "text"], 0,
        "vertices {} with x^2 - 1 on (e)\n"),
    (["lambda-reduce", "--graph", "r1", "--ideal", "@r1_a", "--format", "json"], 0,
        {"polys": [{"base": "v", "coeffs": ["-1", "0", "1"], "cycle": ["e"]}], "vertices": []}),
    (["contains", "--graph", "r1", "@r1_a", "@r1_b", "--format", "text"], 0, "true\n"),
    (["contains", "--graph", "r1", "@r1_a", "@r1_b", "--format", "json"], 0, {"contains": True}),
    (["contains", "--graph", "r1", "@r1_b", "@r1_a", "--format", "text"], 0, "false\n"),
    (["contains", "--graph", "r1", "@r1_b", "@r1_a", "--format", "json"], 0, {"contains": False}),
    (["extract-vertex", "--graph", "r1", "2*e.e - e*'", "--format", "text"], 1,
        "error: vertex 'v' has exactly one closed simple path; "
        "extraction needs zero or at least two\n"),
    (["nongraded-witness", "--graph", "r1", "--format", "text"], 0, "(v, (e), v + e)\n"),
    (["nongraded-witness", "--graph", "r1", "--format", "json"], 0,
        {"witness": {"cycle": ["e"], "generator": "v + e", "vertex": "v"}}),
    (["classify2", "--graph", "r1", "--format", "text"], 1,
        "error: classification needs exactly two vertices\n"),
    (["check-k", "--graph", "r2", "--format", "text"], 0, "true\n"),
    (["check-k", "--graph", "r2", "--format", "json"], 0,
        {"condition_k": True, "k1_vertices": []}),
    (["classify-vertex", "--graph", "r2", "--vertex", "v", "--format", "text"], 0, "K2\n"),
    (["classify-vertex", "--graph", "r2", "--vertex", "v", "--format", "json"], 0,
        {"class": "K2"}),
    (["closure", "--graph", "r2", "--vertices", "v", "--format", "text"], 0, "{v}\n"),
    (["closure", "--graph", "r2", "--vertices", "v", "--format", "json"], 0, {"closure": ["v"]}),
    (["hs-sets", "--graph", "r2", "--format", "text"], 0,
        (
            "{}\n"
            "{v}\n"
        )),
    (["hs-sets", "--graph", "r2", "--format", "json"], 0, {"sets": [[], ["v"]]}),
    (["graded-lattice", "--graph", "r2", "--format", "text"], 0,
        (
            "<0>\n"
            "<v>\n"
            "<0> < <v>\n"
        )),
    (["graded-lattice", "--graph", "r2", "--format", "json"], 0,
        {"covers": [[0, 1]], "nodes": [[], ["v"]]}),
    (["graded-lattice", "--graph", "r2", "--format", "dot"], 0,
        (
            "digraph lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  n0 [label="0"];\n'
            '  n1 [label="L"];\n'
            "  n0 -> n1;\n"
            "}\n"
        )),
    (["normalize", "--graph", "r2", "e.f*' + 2*f", "--format", "text"], 0, "e.f*' + 2*f\n"),
    (["normalize", "--graph", "r2", "e.f*' + 2*f", "--format", "json"], 0,
        {"normal_form": "e.f*' + 2*f"}),
    (["mul", "--graph", "r2", "e.f*' + 2*f", "e*' - f", "--format", "text"], 0,
        "e.f*'.e*' + 2*f.e*' - e - 2*f.f\n"),
    (["mul", "--graph", "r2", "e.f*' + 2*f", "e*' - f", "--format", "json"], 0,
        {"product": "e.f*'.e*' + 2*f.e*' - e - 2*f.f"}),
    (["grade", "--graph", "r2", "e + 1/2*e.f*'", "--format", "text"], 0,
        (
            "0: 1/2*e.f*'\n"
            "1: e\n"
        )),
    (["grade", "--graph", "r2", "e + 1/2*e.f*'", "--format", "json"], 0,
        {"components": {"0": "1/2*e.f*'", "1": "e"}}),
    (["lambda-reduce", "--graph", "r2", "--ideal", "@r2_a", "--format", "text"], 0,
        "vertices {}\n"),
    (["lambda-reduce", "--graph", "r2", "--ideal", "@r2_a", "--format", "json"], 0,
        {"polys": [], "vertices": []}),
    (["contains", "--graph", "r2", "@r2_a", "@r2_b", "--format", "text"], 0, "true\n"),
    (["contains", "--graph", "r2", "@r2_a", "@r2_b", "--format", "json"], 0, {"contains": True}),
    (["contains", "--graph", "r2", "@r2_b", "@r2_a", "--format", "text"], 0, "false\n"),
    (["contains", "--graph", "r2", "@r2_b", "@r2_a", "--format", "json"], 0, {"contains": False}),
    (["extract-vertex", "--graph", "r2", "e*' - f", "--format", "text"], 0,
        "1*v via left [e*'] right [e, e]\n"),
    (["extract-vertex", "--graph", "r2", "e*' - f", "--format", "json"], 0,
        {"left": ["e*'"], "right": ["e", "e"], "scalar": "1", "vertex": "v"}),
    (["nongraded-witness", "--graph", "r2", "--format", "text"], 0, "none\n"),
    (["nongraded-witness", "--graph", "r2", "--format", "json"], 0, {"witness": None}),
    (["check-k", "--graph", "p3", "--format", "text"], 0, "true\n"),
    (["check-k", "--graph", "p3", "--format", "json"], 0,
        {"condition_k": True, "k1_vertices": []}),
    (["classify-vertex", "--graph", "p3", "--vertex", "b", "--format", "text"], 0, "K0\n"),
    (["classify-vertex", "--graph", "p3", "--vertex", "b", "--format", "json"], 0,
        {"class": "K0"}),
    (["closure", "--graph", "p3", "--vertices", "b,c", "--format", "text"], 0, "{a, b, c}\n"),
    (["closure", "--graph", "p3", "--vertices", "b,c", "--format", "json"], 0,
        {"closure": ["a", "b", "c"]}),
    (["hs-sets", "--graph", "p3", "--format", "text"], 0,
        (
            "{}\n"
            "{a, b, c}\n"
        )),
    (["hs-sets", "--graph", "p3", "--format", "json"], 0, {"sets": [[], ["a", "b", "c"]]}),
    (["graded-lattice", "--graph", "p3", "--format", "text"], 0,
        (
            "<0>\n"
            "<a, b, c>\n"
            "<0> < <a, b, c>\n"
        )),
    (["graded-lattice", "--graph", "p3", "--format", "json"], 0,
        {"covers": [[0, 1]], "nodes": [[], ["a", "b", "c"]]}),
    (["graded-lattice", "--graph", "p3", "--format", "dot"], 0,
        (
            "digraph lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  n0 [label="0"];\n'
            '  n1 [label="L"];\n'
            "  n0 -> n1;\n"
            "}\n"
        )),
    (["normalize", "--graph", "p3", "x.y + 3*b", "--format", "text"], 0, "3*b + x.y\n"),
    (["normalize", "--graph", "p3", "x.y + 3*b", "--format", "json"], 0,
        {"normal_form": "3*b + x.y"}),
    (["mul", "--graph", "p3", "x.y + 3*b", "y*'.x*' + a", "--format", "text"], 0, "a\n"),
    (["mul", "--graph", "p3", "x.y + 3*b", "y*'.x*' + a", "--format", "json"], 0,
        {"product": "a"}),
    (["grade", "--graph", "p3", "x.y.y*' - 2*b", "--format", "text"], 0,
        (
            "0: -2*b\n"
            "1: x\n"
        )),
    (["grade", "--graph", "p3", "x.y.y*' - 2*b", "--format", "json"], 0,
        {"components": {"0": "-2*b", "1": "x"}}),
    (["lambda-reduce", "--graph", "p3", "--ideal", "@p3_a", "--format", "text"], 0,
        "vertices {a, b, c}\n"),
    (["lambda-reduce", "--graph", "p3", "--ideal", "@p3_a", "--format", "json"], 0,
        {"polys": [], "vertices": ["a", "b", "c"]}),
    (["contains", "--graph", "p3", "@p3_a", "@p3_b", "--format", "text"], 0, "true\n"),
    (["contains", "--graph", "p3", "@p3_a", "@p3_b", "--format", "json"], 0, {"contains": True}),
    (["contains", "--graph", "p3", "@p3_b", "@p3_a", "--format", "text"], 0, "true\n"),
    (["contains", "--graph", "p3", "@p3_b", "@p3_a", "--format", "json"], 0, {"contains": True}),
    (["extract-vertex", "--graph", "p3", "y*'.x*' + a", "--format", "text"], 0,
        "1*c via left [c] right [x, y]\n"),
    (["extract-vertex", "--graph", "p3", "y*'.x*' + a", "--format", "json"], 0,
        {"left": ["c"], "right": ["x", "y"], "scalar": "1", "vertex": "c"}),
    (["nongraded-witness", "--graph", "p3", "--format", "text"], 0, "none\n"),
    (["nongraded-witness", "--graph", "p3", "--format", "json"], 0, {"witness": None}),
    (["check-k", "--graph", "chain", "--format", "text"], 0, "false: K1 vertices [c0, c1, c2]\n"),
    (["check-k", "--graph", "chain", "--format", "json"], 0,
        {"condition_k": False, "k1_vertices": ["c0", "c1", "c2"]}),
    (["classify-vertex", "--graph", "chain", "--vertex", "c1", "--format", "text"], 0,
        "K1 cycle (l1)\n"),
    (["classify-vertex", "--graph", "chain", "--vertex", "c1", "--format", "json"], 0,
        {"class": "K1", "cycle": ["l1"]}),
    (["closure", "--graph", "chain", "--vertices", "c1", "--format", "text"], 0, "{c1, c2}\n"),
    (["closure", "--graph", "chain", "--vertices", "c1", "--format", "json"], 0,
        {"closure": ["c1", "c2"]}),
    (["hs-sets", "--graph", "chain", "--format", "text"], 0,
        (
            "{}\n"
            "{c2}\n"
            "{c1, c2}\n"
            "{c0, c1, c2}\n"
        )),
    (["hs-sets", "--graph", "chain", "--format", "json"], 0,
        {"sets": [[], ["c2"], ["c1", "c2"], ["c0", "c1", "c2"]]}),
    (["graded-lattice", "--graph", "chain", "--format", "text"], 0,
        (
            "<0>\n"
            "<c2>\n"
            "<c1, c2>\n"
            "<c0, c1, c2>\n"
            "<0> < <c2>\n"
            "<c2> < <c1, c2>\n"
            "<c1, c2> < <c0, c1, c2>\n"
        )),
    (["graded-lattice", "--graph", "chain", "--format", "json"], 0,
        {"covers": [[0, 1], [1, 2], [2, 3]],
         "nodes": [[], ["c2"], ["c1", "c2"], ["c0", "c1", "c2"]]}),
    (["graded-lattice", "--graph", "chain", "--format", "dot"], 0,
        (
            "digraph lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  n0 [label="0"];\n'
            '  n1 [label="{c2}"];\n'
            '  n2 [label="{c1,c2}"];\n'
            '  n3 [label="L"];\n'
            "  n0 -> n1;\n"
            "  n1 -> n2;\n"
            "  n2 -> n3;\n"
            "}\n"
        )),
    (["normalize", "--graph", "chain", "l0 + t0.l1", "--format", "text"], 0, "l0 + t0.l1\n"),
    (["normalize", "--graph", "chain", "l0 + t0.l1", "--format", "json"], 0,
        {"normal_form": "l0 + t0.l1"}),
    (["mul", "--graph", "chain", "l0 + t0.l1", "t0*'.l0*' - c1", "--format", "text"], 0,
        "t0.l1.t0*'.l0*' - t0.l1\n"),
    (["mul", "--graph", "chain", "l0 + t0.l1", "t0*'.l0*' - c1", "--format", "json"], 0,
        {"product": "t0.l1.t0*'.l0*' - t0.l1"}),
    (["grade", "--graph", "chain", "l1 + c1", "--format", "text"], 0,
        (
            "0: c1\n"
            "1: l1\n"
        )),
    (["grade", "--graph", "chain", "l1 + c1", "--format", "json"], 0,
        {"components": {"0": "c1", "1": "l1"}}),
    (["lambda-reduce", "--graph", "chain", "--ideal", "@chain_a", "--format", "text"], 0,
        "vertices {c2} with x + 2 on (l1)\n"),
    (["lambda-reduce", "--graph", "chain", "--ideal", "@chain_a", "--format", "json"], 0,
        {"polys": [{"base": "c1", "coeffs": ["2", "1"], "cycle": ["l1"]}], "vertices": ["c2"]}),
    (["contains", "--graph", "chain", "@chain_a", "@chain_b", "--format", "text"], 0, "true\n"),
    (["contains", "--graph", "chain", "@chain_a", "@chain_b", "--format", "json"], 0,
        {"contains": True}),
    (["contains", "--graph", "chain", "@chain_b", "@chain_a", "--format", "text"], 0, "false\n"),
    (["contains", "--graph", "chain", "@chain_b", "@chain_a", "--format", "json"], 0,
        {"contains": False}),
    (["extract-vertex", "--graph", "chain", "t0*'.l0*' - c1", "--format", "text"], 0,
        "1*c1 via left [-] right [c0, l0, t0]\n"),
    (["extract-vertex", "--graph", "chain", "t0*'.l0*' - c1", "--format", "json"], 0,
        {"left": [], "right": ["c0", "l0", "t0"], "scalar": "1", "vertex": "c1"}),
    (["nongraded-witness", "--graph", "chain", "--format", "text"], 0, "(c0, (l0), c0 + l0)\n"),
    (["nongraded-witness", "--graph", "chain", "--format", "json"], 0,
        {"witness": {"cycle": ["l0"], "generator": "c0 + l0", "vertex": "c0"}}),
    (["check-k", "--graph", "two", "--format", "text"], 0, "false: K1 vertices [u]\n"),
    (["check-k", "--graph", "two", "--format", "json"], 0,
        {"condition_k": False, "k1_vertices": ["u"]}),
    (["classify-vertex", "--graph", "two", "--vertex", "u", "--format", "text"], 0,
        "K1 cycle (e)\n"),
    (["classify-vertex", "--graph", "two", "--vertex", "u", "--format", "json"], 0,
        {"class": "K1", "cycle": ["e"]}),
    (["closure", "--graph", "two", "--vertices", "v", "--format", "text"], 0, "{v}\n"),
    (["closure", "--graph", "two", "--vertices", "v", "--format", "json"], 0, {"closure": ["v"]}),
    (["hs-sets", "--graph", "two", "--format", "text"], 0,
        (
            "{}\n"
            "{v}\n"
            "{u, v}\n"
        )),
    (["hs-sets", "--graph", "two", "--format", "json"], 0, {"sets": [[], ["v"], ["u", "v"]]}),
    (["graded-lattice", "--graph", "two", "--format", "text"], 0,
        (
            "<0>\n"
            "<v>\n"
            "<u, v>\n"
            "<0> < <v>\n"
            "<v> < <u, v>\n"
        )),
    (["graded-lattice", "--graph", "two", "--format", "json"], 0,
        {"covers": [[0, 1], [1, 2]], "nodes": [[], ["v"], ["u", "v"]]}),
    (["graded-lattice", "--graph", "two", "--format", "dot"], 0,
        (
            "digraph lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  n0 [label="0"];\n'
            '  n1 [label="{v}"];\n'
            '  n2 [label="L"];\n'
            "  n0 -> n1;\n"
            "  n1 -> n2;\n"
            "}\n"
        )),
    (["normalize", "--graph", "two", "e.a - e*'", "--format", "text"], 0, "-e*' + e.a\n"),
    (["normalize", "--graph", "two", "e.a - e*'", "--format", "json"], 0,
        {"normal_form": "-e*' + e.a"}),
    (["mul", "--graph", "two", "e.a - e*'", "a*'.e*' + 2*u", "--format", "text"], 0,
        "e.a.a*'.e*' - 2*e*'\n"),
    (["mul", "--graph", "two", "e.a - e*'", "a*'.e*' + 2*u", "--format", "json"], 0,
        {"product": "e.a.a*'.e*' - 2*e*'"}),
    (["grade", "--graph", "two", "e + u", "--format", "text"], 0,
        (
            "0: u\n"
            "1: e\n"
        )),
    (["grade", "--graph", "two", "e + u", "--format", "json"], 0,
        {"components": {"0": "u", "1": "e"}}),
    (["lambda-reduce", "--graph", "two", "--ideal", "@two_a", "--format", "text"], 0,
        "vertices {v} with x^2 + 1 on (e)\n"),
    (["lambda-reduce", "--graph", "two", "--ideal", "@two_a", "--format", "json"], 0,
        {"polys": [{"base": "u", "coeffs": ["1", "0", "1"], "cycle": ["e"]}], "vertices": ["v"]}),
    (["contains", "--graph", "two", "@two_a", "@two_b", "--format", "text"], 0, "true\n"),
    (["contains", "--graph", "two", "@two_a", "@two_b", "--format", "json"], 0,
        {"contains": True}),
    (["contains", "--graph", "two", "@two_b", "@two_a", "--format", "text"], 0, "false\n"),
    (["contains", "--graph", "two", "@two_b", "@two_a", "--format", "json"], 0,
        {"contains": False}),
    (["extract-vertex", "--graph", "two", "a*'.e*' + 2*u", "--format", "text"], 0,
        "1*v via left [v] right [e, a]\n"),
    (["extract-vertex", "--graph", "two", "a*'.e*' + 2*u", "--format", "json"], 0,
        {"left": ["v"], "right": ["e", "a"], "scalar": "1", "vertex": "v"}),
    (["nongraded-witness", "--graph", "two", "--format", "text"], 0, "(u, (e), u + e)\n"),
    (["nongraded-witness", "--graph", "two", "--format", "json"], 0,
        {"witness": {"cycle": ["e"], "generator": "u + e", "vertex": "u"}}),
    (["classify2", "--graph", "two", "--format", "text"], 0, "class III (type [6])\n"),
    (["classify2", "--graph", "two", "--format", "json"], 0,
        {"class": "III", "shape": [1, 0, 1, 0], "type": 6}),
    (["classify2", "--graph", "two", "--format", "dot"], 0,
        (
            "digraph skeleton {\n"
            "  rankdir=BT;\n"
            '  n0 [shape=box, label="0"];\n'
            '  n1 [shape=box, label="{v}"];\n'
            '  n2 [shape=box, label="L"];\n'
            '  f0 [shape=ellipse, label="<P(e), v>"];\n'
            "  n0 -> n1;\n"
            "  n1 -> f0;\n"
            "  f0 -> n2;\n"
            "}\n"
        )),
    (["classify2", "--graph", "two7", "--format", "text"], 0,
        (
            "class II (type [7])\n"
            "note: type [7] classifies as II (skeleton isomorphic to type [3]); "
            "class IX is realized by type [9]\n"
        )),
    (["classify2", "--graph", "two7", "--format", "json"], 0,
        {"class": "II",
         "note": "type [7] classifies as II (skeleton isomorphic to type [3]); "
                 "class IX is realized by type [9]",
         "shape": [1, 0, 0, 1],
         "type": 7}),
    (["count2", "--edges", "-1", "--format", "text"], 1,
        "error: edge count must be nonnegative\n"),
    (["count2", "--edges", "-1", "--verify", "--format", "text"], 1,
        "error: edge count must be nonnegative\n"),
    (["enum2", "--edges", "-1", "--format", "text"], 1, "error: edge count must be nonnegative\n"),
    (["count2", "--edges", "-1", "--format", "json"], 1,
        "error: edge count must be nonnegative\n"),
    (["count2", "--edges", "-1", "--verify", "--format", "json"], 1,
        "error: edge count must be nonnegative\n"),
    (["enum2", "--edges", "-1", "--format", "json"], 1, "error: edge count must be nonnegative\n"),
    (["count2", "--edges", "0", "--format", "text"], 0, "1\n"),
    (["count2", "--edges", "0", "--verify", "--format", "text"], 0,
        "1 (formula) == 1 (enumeration)\n"),
    (["enum2", "--edges", "0", "--format", "text"], 0, "(0,0,0,0)\n"),
    (["count2", "--edges", "0", "--format", "json"], 0, {"count": 1}),
    (["count2", "--edges", "0", "--verify", "--format", "json"], 0,
        {"count": 1, "enumeration": 1, "verified": True}),
    (["enum2", "--edges", "0", "--format", "json"], 0, {"shapes": [[0, 0, 0, 0]]}),
    (["count2", "--edges", "2", "--format", "text"], 0, "6\n"),
    (["count2", "--edges", "2", "--verify", "--format", "text"], 0,
        "6 (formula) == 6 (enumeration)\n"),
    (["enum2", "--edges", "2", "--format", "text"], 0,
        (
            "(2,0,0,0)\n"
            "(1,1,0,0)\n"
            "(1,0,1,0)\n"
            "(1,0,0,1)\n"
            "(0,0,2,0)\n"
            "(0,0,1,1)\n"
        )),
    (["count2", "--edges", "2", "--format", "json"], 0, {"count": 6}),
    (["count2", "--edges", "2", "--verify", "--format", "json"], 0,
        {"count": 6, "enumeration": 6, "verified": True}),
    (["enum2", "--edges", "2", "--format", "json"], 0,
        {"shapes": [[2, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [0, 0, 2, 0],
                    [0, 0, 1, 1]]}),
    (["count2", "--edges", "3", "--format", "text"], 0, "10\n"),
    (["count2", "--edges", "3", "--verify", "--format", "text"], 0,
        "10 (formula) == 10 (enumeration)\n"),
    (["enum2", "--edges", "3", "--format", "text"], 0,
        (
            "(3,0,0,0)\n"
            "(2,1,0,0)\n"
            "(2,0,1,0)\n"
            "(2,0,0,1)\n"
            "(1,1,1,0)\n"
            "(1,0,2,0)\n"
            "(1,0,1,1)\n"
            "(1,0,0,2)\n"
            "(0,0,3,0)\n"
            "(0,0,2,1)\n"
        )),
    (["count2", "--edges", "3", "--format", "json"], 0, {"count": 10}),
    (["count2", "--edges", "3", "--verify", "--format", "json"], 0,
        {"count": 10, "enumeration": 10, "verified": True}),
    (["enum2", "--edges", "3", "--format", "json"], 0,
        {"shapes": [[3, 0, 0, 0], [2, 1, 0, 0], [2, 0, 1, 0], [2, 0, 0, 1], [1, 1, 1, 0],
                    [1, 0, 2, 0], [1, 0, 1, 1], [1, 0, 0, 2], [0, 0, 3, 0], [0, 0, 2, 1]]}),
    (["count2", "--edges", "13", "--format", "text"], 0, "280\n"),
    (["count2", "--edges", "13", "--verify", "--format", "text"], 1,
        "error: edge count 13 exceeds the enumeration guard 12\n"),
    (["enum2", "--edges", "13", "--format", "text"], 1,
        "error: edge count 13 exceeds the enumeration guard 12\n"),
    (["count2", "--edges", "13", "--format", "json"], 0, {"count": 280}),
    (["count2", "--edges", "13", "--verify", "--format", "json"], 1,
        "error: edge count 13 exceeds the enumeration guard 12\n"),
    (["enum2", "--edges", "13", "--format", "json"], 1,
        "error: edge count 13 exceeds the enumeration guard 12\n"),
]


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("graphs")
    for name, text in GRAPHS.items():
        (directory / f"{name}.graph").write_text(text)
    return directory


@pytest.fixture
def r1(tmp_path):
    path = tmp_path / "r1.graph"
    path.write_text(R1_TEXT)
    return str(path)


def _resolve(argv, directory):
    out = []
    for i, arg in enumerate(argv):
        if i and argv[i - 1] == "--graph":
            arg = str(directory / f"{arg}.graph")
        elif arg.startswith("@"):
            arg = IDEALS[arg[1:]]
        out.append(arg)
    return out


@pytest.mark.parametrize(
    "argv, code, expected", GOLDEN, ids=[f"{i:03d}-{c[0][0]}" for i, c in enumerate(GOLDEN)]
)
def test_golden_output(graph_dir, capsys, argv, code, expected):
    assert main(_resolve(argv, graph_dir)) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", expected)
    elif isinstance(expected, str):
        assert (out, err) == (expected, "")
    else:
        assert (out, err) == (json.dumps(expected, indent=2, sort_keys=True) + "\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        [],
        ["check-k"],
        ["classify-vertex", "--graph", "r1.graph"],
        ["mul", "--graph", "r1.graph", "e"],
        ["count2"],
        ["count2", "--edges", "x"],
        ["check-k", "--graph", "r1.graph", "--format", "dot"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: lpa")


def test_module_entry_point(r1, tmp_path):
    """``python -m leavitt.cli`` runs ``main`` and exits with its code."""
    src = str(Path(leavitt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def lpa(graph):
        argv = [sys.executable, "-m", "leavitt.cli", "check-k", "--graph", graph]
        return subprocess.run(argv, capture_output=True, text=True, env=env)

    done = lpa(r1)
    assert (done.returncode, done.stdout, done.stderr) == (0, "false: K1 vertices [v]\n", "")
    done = lpa(str(tmp_path / "missing.graph"))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_lambda_reduce_rejects_strings_for_lists(r1, capsys):
    for poly in ('{"cycle": ["e"], "coeffs": "11"}', '{"cycle": "e", "coeffs": ["1", "1"]}'):
        assert main(["lambda-reduce", "--graph", r1, "--ideal", '{"polys": [%s]}' % poly]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "must be a list" in err
    assert main(["lambda-reduce", "--graph", r1, "--ideal",
                 '{"polys": [{"cycle": ["e"], "coeffs": ["1", "1"]}]}']) == 0
    assert capsys.readouterr().out == "vertices {} with x + 1 on (e)\n"


def test_unreadable_files_exit_1(tmp_path, r1, capsys):
    directory = tmp_path / "dir"
    directory.mkdir()
    latin1 = tmp_path / "latin1.graph"
    latin1.write_bytes("vertices: vé\n".encode("latin-1"))
    for path in (directory, latin1, tmp_path / "missing.graph"):
        for argv in (
            ["check-k", "--graph", str(path)],
            ["lambda-reduce", "--graph", r1, "--ideal", str(path)],
        ):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_malformed_ideals_and_numbers_exit_1(r1, capsys):
    big = "7" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
    runs = [
        ["lambda-reduce", "--graph", r1, "--ideal", '{"polys": 5}'],
        ["lambda-reduce", "--graph", r1, "--ideal", '{"polys": null}'],
        ["lambda-reduce", "--graph", r1, "--ideal",
         '{"polys": [{"cycle": ["e"], "coeffs": ["1e999999999"]}]}'],
        ["contains", "--graph", r1, '{"polys": [{"cycle": ["e"], "coeffs": [1e9]}]}', "{}"],
    ]
    if len(big) > 1:  # an interpreter with an int() digit limit
        runs += [
            ["lambda-reduce", "--graph", r1, "--ideal",
             '{"polys": [{"cycle": ["e"], "coeffs": [%s]}]}' % big],
            ["normalize", "--graph", r1, f"{big}*v"],
            ["mul", "--graph", r1, "e", f"1/{big}*v"],
        ]
    for argv in runs:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_count_beyond_the_digit_limit_exits_1(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int() digit limit")
    edges = "1" + "0" * (limit // 2)  # the count has about 3/2 * limit digits
    for fmt in ("text", "json"):
        assert main(["count2", "--edges", edges, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
        assert len(err) < 200
