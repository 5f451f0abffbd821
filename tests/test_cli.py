"""Output, exit codes and error reporting of the lpa command.

``GOLDEN`` pins the exact stdout (or, on exit 1, the exact stderr) of every
command in each of its formats on small fixture graphs.  An argument after
``--graph`` names a fixture in ``GRAPHS``; an argument ``@name`` stands for
the ideal JSON ``IDEALS[name]``.  A JSON expectation is the decoded payload,
and the output must be its ``json.dumps(indent=2, sort_keys=True)`` text.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import coprime_pair

import leavitt
from leavitt.cli import COMMANDS, build_parser, main

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


def test_only_the_chosen_format_is_rendered(graph_dir, capsys, monkeypatch):
    """Each golden argument list that succeeds renders its text lines once
    under text and never under json or dot."""
    rendered = []

    def counted(run):
        def wrapped(g, args):
            out = run(g, args)
            return out._replace(lines=lambda: rendered.append(args.format) or out.lines())
        return wrapped

    commands = tuple(c._replace(run=counted(c.run)) for c in leavitt.cli.COMMANDS)
    monkeypatch.setattr(leavitt.cli, "COMMANDS", commands)
    for argv, code, _ in GOLDEN:
        rendered.clear()
        assert main(_resolve(argv, graph_dir)) == code
        capsys.readouterr()
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        assert rendered == ([] if code or fmt != "text" else ["text"])


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


def test_an_argument_that_begins_with_a_minus_goes_after_dashes(r1, capsys):
    """argparse reads a word that begins with '-' as an option, so a single
    negative term is a usage error unless ``--`` comes before it."""
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--graph", r1, "-1/2*e"])
    assert exc.value.code == 2
    assert "the following arguments are required: element" in capsys.readouterr().err
    for argv, out in [
        (["normalize", "--graph", r1, "--", "-1/2*e"], "-1/2*e\n"),
        (["grade", "--graph", r1, "--", "-e"], "1: -e\n"),
        (["mul", "--graph", r1, "--", "-e", "e"], "-e.e\n"),
        (["mul", "--graph", r1, "e", "--", "-e"], "-e.e\n"),
        (["contains", "--graph", r1, "--", '{"vertices": []}', '{"vertices": ["v"]}'], "true\n"),
    ]:
        assert main(argv) == 0
        assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("command, names, what", [
    ("normalize", ["element"], "element expression"),
    ("mul", ["left", "right"], "element expression"),
    ("grade", ["element"], "element expression"),
    ("extract-vertex", ["element"], "element expression"),
    ("contains", ["ideal_a", "ideal_b"], "ideal JSON (file or inline)"),
])
def test_help_of_each_positional_argument_names_dashes(capsys, command, names, what):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # the wrapping follows the terminal width
    for name in names:
        assert f" {name} {what}; one that begins with '-' goes after -- " in text


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


# The library modules each command loads beyond the package, ``errors`` and
# ``records``; an lpa process pays to compile every module it imports.
LAYERS_BY_COMMAND = [
    (("graphs",), [
        ["check-k", "--graph", "r1"],
        ["classify-vertex", "--graph", "r1", "--vertex", "v"],
        ["closure", "--graph", "r1", "--vertices", "v"],
        ["hs-sets", "--graph", "r1"],
    ]),
    (("graphs", "twovertex"), [
        ["count2", "--edges", "3", "--verify"],
        ["enum2", "--edges", "2"],
        ["classify2", "--graph", "two", "--format", "dot"],
    ]),
    (("elements", "graphs"), [
        ["normalize", "--graph", "r1", "e + v"],
        ["mul", "--graph", "r1", "e", "e*'"],
        ["grade", "--graph", "r1", "e + v"],
    ]),
    (("graphs", "ideals", "polynomials"), [
        ["graded-lattice", "--graph", "chain", "--format", "dot"],
        ["lambda-reduce", "--graph", "chain", "--ideal", "@chain_a"],
        ["contains", "--graph", "chain", "@chain_a", "@chain_b"],
    ]),
    (("elements", "graphs", "ideals", "polynomials"), [
        ["extract-vertex", "--graph", "p3", "x + y"],
        ["nongraded-witness", "--graph", "r1"],
    ]),
]

# Runs lpa as ``python -m`` does, then reports the modules it loaded.
_REPORT_MODULES = """
import runpy, sys
code = 0
try:
    runpy.run_module("leavitt.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(" ".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def test_every_command_has_a_module_budget():
    budgeted = [argv[0] for _, runs in LAYERS_BY_COMMAND for argv in runs]
    assert sorted(budgeted) == sorted(cmd.name for cmd in COMMANDS)


def _run_reporting_modules(argv):
    """The finished ``lpa`` process of argv, run under ``-S`` so that site
    hooks add no modules of their own, and the set of modules it loaded."""
    src = str(Path(leavitt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", _REPORT_MODULES, *argv],
        capture_output=True, text=True, env=env,
    )
    return done, set(done.stderr.split())


@pytest.mark.parametrize(
    "layers, argv",
    [(layers, argv) for layers, runs in LAYERS_BY_COMMAND for argv in runs],
    ids=[argv[0] for _, runs in LAYERS_BY_COMMAND for argv in runs],
)
def test_each_command_loads_only_its_layers(graph_dir, layers, argv):
    """No command imports a layer it does not use, nor ``dataclasses``,
    ``inspect``, ``pathlib`` or ``typing``; on these integer inputs none
    imports ``fractions`` or the ``decimal`` and ``numbers`` it brings."""
    done, loaded = _run_reporting_modules(_resolve(argv, graph_dir))
    assert done.returncode == 0 and done.stdout, done.stderr
    expected = {"leavitt", "leavitt.errors", "leavitt.records", *(f"leavitt.{m}" for m in layers)}
    assert {m for m in loaded if m.startswith("leavitt")} == expected
    assert not loaded & {"dataclasses", "inspect", "pathlib", "typing"}
    assert not loaded & {"fractions", "decimal", "numbers"}


def test_a_fractional_coefficient_still_reads_exactly(graph_dir):
    """``fractions`` is loaded when a coefficient needs it: "0.25" is 1/4."""
    ideal = '{"polys": [{"cycle": ["e"], "coeffs": ["0.25", "1"]}]}'
    argv = ["lambda-reduce", "--graph", str(graph_dir / "r1.graph"), "--ideal", ideal]
    done, loaded = _run_reporting_modules(argv)
    assert (done.returncode, done.stdout) == (0, "vertices {} with x + 1/4 on (e)\n")
    assert "fractions" in loaded


def _parse_outcome(parse, argv, capsys):
    """(stdout, stderr, exit code) of a parse that is expected to exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (*capsys.readouterr(), exc.value.code)


def _parser_cases():
    """Argument lists that exit while parsing: each command's help, the
    command alone, and a valid argument list (from ``LAYERS_BY_COMMAND``)
    with a bad ``--format``, a trailing unknown option or an extra
    positional; then no arguments, the top-level help and an unknown word."""
    valid = {argv[0]: argv for _, runs in LAYERS_BY_COMMAND for argv in runs}
    cases = []
    for cmd in COMMANDS:
        argv = valid[cmd.name]
        cases += [[cmd.name, "--help"], [cmd.name], [*argv, "--format", "yaml"],
                  [*argv, "--bogus"], [*argv, "extra"]]
    return cases + [[], ["--help"], ["nope"]]


@pytest.mark.parametrize("argv", _parser_cases(), ids=lambda argv: " ".join(argv) or "-")
def test_main_parses_as_the_full_parser(graph_dir, capsys, monkeypatch, argv):
    """``main`` builds only the named command's subparser; its help, usage
    errors and exit codes are byte for byte those of the full parser."""
    monkeypatch.setenv("COLUMNS", "100")  # help text wraps at the terminal width
    argv = _resolve(argv, graph_dir)
    full = _parse_outcome(lambda a: build_parser().parse_args(a), argv, capsys)
    assert _parse_outcome(main, argv, capsys) == full
    assert full[2] == (0 if "--help" in argv else 2)


def test_lambda_reduce_rejects_strings_for_lists(r1, capsys):
    for poly in ('{"cycle": ["e"], "coeffs": "11"}', '{"cycle": "e", "coeffs": ["1", "1"]}'):
        assert main(["lambda-reduce", "--graph", r1, "--ideal", '{"polys": [%s]}' % poly]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "must be a list" in err
    assert main(["lambda-reduce", "--graph", r1, "--ideal",
                 '{"polys": [{"cycle": ["e"], "coeffs": ["1", "1"]}]}']) == 0
    assert capsys.readouterr().out == "vertices {} with x + 1 on (e)\n"


def test_lambda_reduce_refuses_unknown_ideal_keys(r1, capsys):
    assert main(["lambda-reduce", "--graph", r1, "--ideal", '{"poly": []}']) == 1
    assert capsys.readouterr() == ("", "error: unknown ideal JSON keys: ['poly']\n")


def test_deeply_nested_ideal_json_is_an_error(r1, tmp_path, capsys):
    deep = '{"vertices": %s}' % ("[" * 100_000 + "]" * 100_000)
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (["lambda-reduce", "--graph", r1, "--ideal", str(path)],
                 ["contains", "--graph", r1, deep, '{"vertices": []}']):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: bad ideal JSON: nested too deeply\n")


def _loop_ideal(*polys):
    entries = [{"cycle": ["e"], "coeffs": [str(c) for c in cs]} for cs in polys]
    return json.dumps({"polys": entries})


def test_lambda_reduce_coprime_degree_200_pair(r1, capsys):
    """Their gcd is 1, so the loop's vertex joins the vertex part."""
    ideal = _loop_ideal(*coprime_pair(200))
    assert main(["lambda-reduce", "--graph", r1, "--ideal", ideal, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"polys": [], "vertices": ["v"]}


def test_degree_budget_exits_1(r1, capsys):
    """A polynomial of degree 257 is refused at once by both ideal commands;
    one of degree 256 is read."""
    at, over = _loop_ideal(coprime_pair(256)[0]), _loop_ideal(coprime_pair(257)[0])
    assert main(["lambda-reduce", "--graph", r1, "--ideal", at]) == 0
    assert capsys.readouterr().out.startswith("vertices {} with x^256 ")
    err = "error: polynomial of degree 257 is over the degree budget of 256\n"
    for argv in (["lambda-reduce", "--ideal", over], ["contains", at, over]):
        assert main(argv + ["--graph", r1]) == 1
        assert capsys.readouterr() == ("", err)


def test_size_budget_exits_1(r1, capsys):
    """Two degree-32 polynomials with 300-digit coefficients, 20 KB of JSON
    whose gcd takes seconds, are refused before any gcd runs."""
    rng = random.Random(1)
    big = [[rng.randrange(10**299, 10**300) for _ in range(33)] for _ in range(2)]
    start = time.perf_counter()
    assert main(["lambda-reduce", "--graph", r1, "--ideal", _loop_ideal(*big)]) == 1
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: polynomial of size ")
    assert err.endswith(" coefficient bits) is over the size budget of 250000\n")


def test_zero_denominator_is_named(r1, capsys):
    ideal = '{"polys": [{"cycle": ["e"], "coeffs": ["1", "1/0"]}]}'
    assert main(["lambda-reduce", "--graph", r1, "--ideal", ideal]) == 1
    assert capsys.readouterr() == ("", "error: bad coefficient in ['1', '1/0']: zero denominator\n")


def test_lambda_reduce_planted_factor_matches_sympy(r1, capsys):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(7)
    factor = sympy.Poly(
        [sympy.Rational(rng.choice((1, 2, 3)), rng.randint(1, 4))]
        + [sympy.Rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        + [sympy.Rational(rng.choice((-2, -1, 1, 2)), 3)],
        x, domain="QQ",
    )
    a, b = (sympy.Poly(cs[::-1], x, domain="QQ") for cs in coprime_pair(60, seed=1))
    p, q = a * factor, b * factor
    gcd = p.gcd(q).monic()
    assert gcd.degree() == 5

    def ascending(poly):
        return [str(Fraction(int(c.p), int(c.q))) for c in reversed(poly.all_coeffs())]

    ideal = _loop_ideal(ascending(p), ascending(q))
    assert main(["lambda-reduce", "--graph", r1, "--ideal", ideal, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "polys": [{"base": "v", "coeffs": ascending(gcd), "cycle": ["e"]}], "vertices": [],
    }


def test_integer_ideals_build_no_fraction(graph_dir, capsys, monkeypatch):
    """On integer coefficients, lambda-reduce and contains read, reduce,
    compare and print the loop chain's ideals on ints alone."""
    import fractions

    built = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    chain = str(graph_dir / "chain.graph")
    a = [
        {"cycle": ["l2"], "base": "c2", "coeffs": ["-2", "0", "2"]},
        {"cycle": ["l2"], "coeffs": [4, 4]},
    ]
    b = [{"cycle": ["l2"], "coeffs": ["-3", "0", "3"]}]
    c = a + [{"cycle": ["l0"], "coeffs": ["3", "-6", "3"]}]
    a, b, c = (json.dumps({"polys": polys}) for polys in (a, b, c))
    runs = [
        (["lambda-reduce", "--ideal", a], "vertices {} with x + 1 on (l2)\n"),
        (["lambda-reduce", "--ideal", c], "vertices {c1, c2} with x^2 - 2*x + 1 on (l0)\n"),
        (["contains", a, b], "false\n"),
        (["contains", b, a], "true\n"),
        (["lambda-reduce", "--ideal", b, "--format", "json"], json.dumps(
            {"polys": [{"base": "c2", "coeffs": ["-1", "0", "1"], "cycle": ["l2"]}],
             "vertices": []}, indent=2, sort_keys=True) + "\n"),
    ]
    for argv, out in runs:
        assert main(argv + ["--graph", chain]) == 0
        assert capsys.readouterr() == (out, "")
    assert built == []
    assert fractions.Fraction("6/4") == fractions.Fraction(3, 2) and len(built) == 2


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


def test_hs_set_budget_exits_1(tmp_path, capsys):
    """40 isolated vertices have 2^40 hereditary saturated sets; listing
    stops at the budget instead of running for hours."""
    path = tmp_path / "isolated40.graph"
    path.write_text("vertices: " + " ".join(f"v{i}" for i in range(40)) + "\n")
    for command in ("hs-sets", "graded-lattice"):
        assert main([command, "--graph", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: more than {leavitt.graphs.HS_SET_BUDGET} hereditary saturated sets\n"


def test_member_budget_exits_1(tmp_path, capsys, monkeypatch):
    """Four isolated vertices have 16 sets holding 32 members: a bound of 32
    lists them, and one of 31 makes both commands exit 1 before any line is
    written.  The bound itself, 10^7, is pinned in ``test_scale.py``."""
    path = tmp_path / "isolated4.graph"
    path.write_text("vertices: a b c d\n")
    for command in ("hs-sets", "graded-lattice"):
        for budget, code in ((32, 0), (31, 1)):
            monkeypatch.setattr(leavitt.graphs, "MEMBER_BUDGET", budget)
            for fmt in ("text", "json"):
                assert main([command, "--graph", str(path), "--format", fmt]) == code
                out, err = capsys.readouterr()
                if code:
                    assert out == ""
                    assert err == "error: more than 31 members of hereditary saturated sets\n"
                else:
                    assert out and err == ""


def test_hs_sets_and_closure_name_each_set_once(tmp_path, capsys, monkeypatch):
    """Under ``--format text`` each set's names are read once, for the
    payload and the lines alike: 16 reads for the 16 sets of four isolated
    vertices, one for a closure."""
    path = tmp_path / "isolated4.graph"
    path.write_text("vertices: a b c d\n")
    HeredSatSet, reads = leavitt.graphs.HeredSatSet, []
    names = HeredSatSet.sorted_members
    monkeypatch.setattr(HeredSatSet, "sorted_members", lambda s: reads.append(s) or names(s))
    for argv, count, head in (([], 16, ["{}", "{a}"]), (["--vertices", "b,a"], 1, ["{a, b}"])):
        reads.clear()
        command = "closure" if argv else "hs-sets"
        assert main([command, "--graph", str(path), "--format", "text", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == head and len(lines) == count
        assert len(reads) == count


def test_a_sample_of_the_differential_inputs_exits_without_a_traceback(tmp_path, monkeypatch):
    """2,000 of the argument lists that ``tests/lpa_differential.py`` compares
    between two trees, drawn with a fixed seed, malformed ones among them, run
    in process: each exits 0, 1 or 2, none raises, and each outcome's digest
    is the one in ``tests/golden/lpa_sample.txt`` (``lpa_differential.py
    --write-golden`` rewrites it), so any byte of output that changes shows.
    The file names the Python minor version that wrote it, since help text
    wraps differently in another, and the test fails on another by name."""
    from lpa_differential import (
        GOLDEN, GOLDEN_HEADER, PYTHON, digest, run_in_process, sample_cases
    )

    monkeypatch.setenv("COLUMNS", "80")  # as the golden file was written
    with open(GOLDEN, encoding="utf-8") as fh:
        header, *golden = fh.read().splitlines()
    written = header.removeprefix("# ").split(",")[0]
    assert written == PYTHON, f"{written} wrote the digests, this is {PYTHON}: use --write-golden"
    assert header == GOLDEN_HEADER
    directory, codes, differing = str(tmp_path), set(), []
    cases = sample_cases(directory)
    assert len(cases) == len(golden)
    for argv, want in zip(cases, golden):
        try:
            out, err, code = run_in_process(argv)
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1, 2), argv
        codes.add(code)
        if digest(directory, out, err, code) != want:
            shown = [a.replace(directory, "{dir}") for a in argv]
            differing.append(f"{shown}: exit {code}, stdout {out[:300]!r}, stderr {err[:300]!r}")
    assert codes == {0, 1, 2}
    first = "\n".join(differing[:5])
    assert not differing, f"{len(differing)} lists differ from the golden digests, first:\n{first}"
