"""The benchmark's layer tracer still finds what it wraps and names.

perfbench/tracer.py wraps library functions and methods by name, and counts
moves per schema name from perfbench/catalog.py, so a refactor that moves or
renames one of them would otherwise show only in the slow benchmark tests,
or not at all.  These tests read perfbench/ and change nothing in it.
"""

import importlib
import random
from pathlib import Path

from foamcalc import ALL_SCHEMAS, Iet, Weight, decorated, dsl, foamdiag
from foamcalc.acceptance import _insert_dots, demo_basis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DOC = """
basis { r2 = 1.4142135623730951 digits 16; }
foam u { start []; cup 0 1+1*r2 d; split 1 L 1; cross 1; merge 1 L; cap 0; end; }
planarfoam p { start []; cup 0 1/2; cap 0; end; }
"""


def test_tracer_counts_each_layer_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        basis = demo_basis("r2")
        lengths = [Weight.rational(basis, 1), Weight.generator(basis, "r2")]
        d = _insert_dots(random.Random(1), foamdiag.iet_closure(Iet(lengths, [2, 1])), 2)
        trace = decorated.flip_reduce(d)
        assert decorated.validate_trace(d, trace).ok
        dsl.parse_document(DOC)
        metrics = tracer.metrics()
        patched = list(tracer.patches)
    finally:
        tracer.uninstall()
    for name in ("foamdiag.apply_event.calls", "foamdiag.build.calls", "dsl.parse.calls"):
        assert metrics[name] > 0, name
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_catalog_counts_every_schema(monkeypatch):
    """A schema missing from the catalog would read 0 in the per-schema counters."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    catalog = importlib.import_module("catalog")
    assert set(catalog.MOVE_SCHEMAS) == set(ALL_SCHEMAS)
