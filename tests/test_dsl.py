"""Text format: parse/print round trips and hostile-input behavior."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foamcalc import dsl, foamdiag, planar
from foamcalc import (
    BracketSum,
    Document,
    FoamDiagram,
    FoamError,
    FoamSyntaxError,
    DslSemanticError,
    Iet,
    PlanarFoam,
    PrecisionExhausted,
    RESERVED,
    parse_bytes,
    parse_document,
    parse_weight,
    print_document,
    weight_to_text,
)
from foamcalc.acceptance import rand_document

SAMPLE = """
# a representative document
basis {
  r2 = 1.4142135623730951 digits 16;
}
iet s {
  lengths = [1, 1*r2];
  perm = [2, 1];
}
iet f {
  lengths = [1/2, 1/2 + 1*r2];
  perm = [1, 2];
  flips = [1, 0];
}
foam u {
  start [];
  cup 0 1 + 1*r2 d;
  split 1 L 1;
  cross 1;
  merge 1 L;
  cap 0;
  end;
}
foam marked {
  start [];
  cup 0 2/3 u;
  dot 0;
  label 1 (2, -1; 1);
  cap 0;
  end;
}
planarfoam p {
  start [];
  cup 0 1/2*1*r2;
  merge 0;
  split 0 1/2*1*r2;
  cap 0;
  end;
}
bracket b = 2*[1, 1*r2] + -1*[1/2, 3];
bracket z = 0;
"""


def test_parse_sample_document():
    doc = parse_document(SAMPLE)
    assert tuple(doc.names()) == ("s", "f", "u", "marked", "p", "b", "z")
    kind, item = doc.get("s")
    assert kind == "iet" and isinstance(item, Iet)
    assert isinstance(doc.get("u")[1], FoamDiagram)
    assert isinstance(doc.get("p")[1], PlanarFoam)
    assert isinstance(doc.get("b")[1], BracketSum)
    assert doc.get("z")[1].is_zero()
    assert doc.get("f")[1].is_flipped()


def test_parsing_applies_each_event_once(monkeypatch):
    """The parser validates each event against its slice and the diagram
    keeps those slices: no second pass over the events."""
    calls = []

    def counting(apply):
        def wrapped(cur, e):
            calls.append(e)
            return apply(cur, e)

        return wrapped

    for module, name in ((dsl, "apply_event"), (foamdiag, "apply_event"),
                         (dsl, "apply_pevent"), (planar, "apply_pevent")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    doc = parse_document(SAMPLE)
    diagrams = [doc.get(name)[1] for name in ("u", "marked", "p")]
    assert len(calls) == sum(len(d.events) for d in diagrams) == 13
    for d in diagrams:
        assert d.slices == type(d)(d.basis, d.start, d.events).slices


def test_print_parse_round_trip():
    doc = parse_document(SAMPLE)
    text = print_document(doc)
    again = parse_document(text)
    assert again == doc
    assert print_document(again) == text


def test_weight_text_is_explicit():
    doc = parse_document(SAMPLE)
    w = parse_weight("1*r2 - 1/3", doc.basis)
    assert weight_to_text(w) == "-1/3+1*r2"
    assert parse_weight(weight_to_text(w), doc.basis) == w


def test_unknown_generator():
    with pytest.raises(DslSemanticError):
        parse_document("iet s { lengths = [1*r9]; perm = [1]; }")


def test_reserved_words_rejected():
    assert "basis" in RESERVED and "L" in RESERVED
    with pytest.raises(FoamError):
        parse_document("basis { cross = 1.5 digits 2; }")


def test_duplicate_names_rejected():
    text = "iet a { lengths = [1]; perm = [1]; }\n" * 2
    with pytest.raises(DslSemanticError):
        parse_document(text)


def test_basis_block_must_come_first():
    text = (
        "iet s { lengths = [1]; perm = [1]; }\n"
        "basis { r2 = 1.41 digits 2; }\n"
    )
    with pytest.raises(FoamError):
        parse_document(text)


def test_syntax_errors_carry_position():
    with pytest.raises(FoamSyntaxError) as exc_info:
        parse_document("iet s {\n  lengths = [1;\n}")
    assert exc_info.value.line == 2


def test_semantic_errors_name_the_event():
    text = (
        "foam bad {\n"
        "  start [];\n"
        "  cup 0 1 u;\n"
        "  split 0 L 2;\n"
        "  end;\n"
        "}"
    )
    with pytest.raises(DslSemanticError) as exc_info:
        parse_document(text)
    msg = str(exc_info.value)
    assert "bad" in msg and "event 1" in msg


def test_zero_denominator():
    with pytest.raises(FoamError):
        parse_document("iet s { lengths = [1/0]; perm = [1]; }")


def test_product_of_irrationals_rejected():
    text = (
        "basis { r2 = 1.41 digits 2; }\n"
        "iet s { lengths = [1*r2*1*r2]; perm = [1]; }"
    )
    with pytest.raises(DslSemanticError):
        parse_document(text)


def test_deep_nesting_is_cut_off():
    expr = "(" * 200 + "1" + ")" * 200
    with pytest.raises(FoamSyntaxError):
        parse_document(f"iet s {{ lengths = [{expr}]; perm = [1]; }}")


def test_huge_integer_literal():
    lit = "9" * 5000
    with pytest.raises(FoamError):
        parse_document(f"iet s {{ lengths = [{lit}]; perm = [1]; }}")


def test_precision_cap_at_parse_time():
    # r2 - 7/5 is positive, but a one-digit enclosure cannot decide it
    text = (
        "basis { r2 = 1.4142135623730951 digits 16; }\n"
        "iet s { lengths = [1*r2 - 7/5, 2]; perm = [2, 1]; }"
    )
    assert parse_document(text).get("s")
    with pytest.raises(PrecisionExhausted):
        parse_document(text, precision_cap=1)


def test_parse_bytes_rejects_bad_utf8():
    with pytest.raises(FoamSyntaxError):
        parse_bytes(b"iet s { lengths = [\xff]; perm = [1]; }")


def test_random_documents_round_trip():
    rng = random.Random(7)
    for i in range(30):
        doc = rand_document(rng, i)
        text = print_document(doc)
        assert parse_document(text) == doc, text


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_fuzzed_bytes_raise_only_domain_errors(data):
    try:
        parse_bytes(data)
    except FoamError:
        pass
