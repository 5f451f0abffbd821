"""Spans around the public functions of ``leavitt``'s layers.

A span records its name, start, end, parent span and operation id.  Spans
are kept in memory in flat arrays and written out when the run ends.  The
wrappers replace each public function on its own module and on every module
that imported it by name (``ideals.mul`` is ``elements.mul``), plus a few
methods: ``LatticeSkeleton.canonical_key`` and the ``QPoly`` arithmetic.
Generator functions are left alone, because a span around one would end
before its iteration starts.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import defaultdict

import leavitt
from leavitt import cli, elements, graphs, ideals, polynomials, twovertex

LAYERS = {
    "graphs": graphs,
    "elements": elements,
    "polynomials": polynomials,
    "ideals": ideals,
    "twovertex": twovertex,
    "cli": cli,
}
METHODS = {
    "polynomials": (polynomials.QPoly, ("gcd", "divides", "monic", "__divmod__", "__mul__", "__add__")),
    "twovertex": (twovertex.LatticeSkeleton, ("canonical_key",)),
}
# Counters read from results: span name -> (counter, size of the result).
RESULT_COUNTERS = {
    "elements.mul": ("elements.mul.terms_out", lambda r: len(r.terms)),
    "graphs.all_hereditary_saturated_sets": ("graphs.hs_sets.found", len),
    "ideals.extract_vertex": ("ideals.extract.factors", lambda w: len(w.left) + len(w.right)),
}


def public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not inspect.isgeneratorfunction(fn):
            yield name, fn


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self.counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    def begin_op(self, op_id: int) -> None:
        """Record spans for operation ``op_id`` until :meth:`end_op`."""
        self.op_id = op_id
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, op, start, end, stack = (
            self.name_id, self.parent, self.op, self.start, self.end, self.stack
        )
        counter = RESULT_COUNTERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if counter:
                counters[counter[0]] += counter[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [leavitt, *LAYERS.values()]
        for layer, module in LAYERS.items():
            for name, fn in public_functions(module):
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._undo.append((m, attr, fn))
                            setattr(m, attr, wrapper)
        for layer, (cls, names) in METHODS.items():
            for name in names:
                raw = vars(cls)[name]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(f"{layer}.{cls.__name__}.{name}", fn)
                self._undo.append((cls, name, raw))
                setattr(cls, name, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def summary(self, rounds: int) -> dict:
        """Per-name calls, inclusive and self milliseconds, per layer self time.

        Inclusive time counts only the outermost span of a name, so a
        function reached again below itself is not counted twice.
        """
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != self.name_id[i]:
                p = self.parent[p]
            if p < 0:
                total[name] += dur
        layer_self = defaultdict(float)
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s
        return {
            "rounds": rounds,
            "spans": n,
            "calls": dict(calls),
            "total_ms": {k: v * 1e3 for k, v in total.items()},
            "layer_self_ms": {k: v * 1e3 for k, v in layer_self.items()},
            "counters": dict(self.counters),
        }

    def dump(self, stem: str) -> str:
        """Write the spans as flat columns in machine byte order plus a JSON index."""
        columns = {"name_id": self.name_id, "parent": self.parent, "op": self.op,
                   "start": self.start, "end": self.end}
        with open(stem + ".bin", "wb") as fh:
            for col in columns.values():
                col.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "count": len(self.name_id),
                       "columns": [[k, c.typecode] for k, c in columns.items()]}, fh)
        return stem + ".json"
