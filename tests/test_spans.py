"""The benchmark's span tracer against the library: every method it wraps
exists, and uninstalling it puts back every attribute it replaced."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benches" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_only_existing_names_and_restores_them():
    spans = _load_spans()
    for cls, names in spans.METHODS.values():
        assert [n for n in names if n not in vars(cls)] == [], cls.__name__
    owners = [spans.leavitt, *spans.LAYERS.values(), *(cls for cls, _ in spans.METHODS.values())]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = [dict(vars(owner)) for owner in owners]
    finally:
        tracer.uninstall()
    for cls, names in spans.METHODS.values():
        at = owners.index(cls)
        assert all(during[at][n] is not before[at][n] for n in names), cls.__name__
    for owner, old in zip(owners, before):
        now = vars(owner)
        assert [a for a in old.keys() | now.keys() if old.get(a) is not now.get(a)] == [], owner
