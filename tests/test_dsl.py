"""Text format: parse/print round trips and hostile-input behavior."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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
    GeneratorBasis,
    PrecisionExhausted,
    RESERVED,
    Weight,
    parse_bytes,
    parse_document,
    parse_weight,
    print_document,
    weight_to_text,
)
from foamcalc.acceptance import rand_document
from foamcalc.weights import Generator

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
    assert [name for _, name, _ in doc.items] == ["s", "f", "u", "marked", "p", "b", "z"]
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

    for module, name in ((foamdiag, "apply_event"), (planar, "apply_pevent")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    doc = parse_document(SAMPLE)
    diagrams = [doc.get(name)[1] for name in ("u", "marked", "p")]
    assert len(calls) == sum(len(d.events) for d in diagrams) == 13
    for d in diagrams:
        assert d.slices == type(d)(d.basis, d.start, d.events).slices


def test_one_word_errors_are_pinned():
    """Direction, flag and flip bit share one reader; each keeps its message."""
    for text, message in (
        ("foam f { start [1:x]; end; }",
         "expected direction u or d near 'x' (line 1, column 19)"),
        ("foam f { start []; cup 0 1 u; merge 0 X; end; }",
         "expected flag L or R near 'X' (line 1, column 39)"),
        ("iet s { lengths = [1, 1]; perm = [2, 1]; flips = [0, 2]; }",
         "expected 0 or 1 near '2' (line 1, column 54)"),
    ):
        with pytest.raises(FoamSyntaxError) as exc_info:
            parse_document(text)
        assert str(exc_info.value) == message


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


def test_reserved_words_may_name_items():
    """Only generator names are refused: an item name stands where no
    keyword can, so a reserved word names an item and round-trips."""
    text = "iet start {\n  lengths = [1, 2];\n  perm = [2, 1];\n}\nbracket end = 0;\n"
    doc = parse_document(text)
    assert [(kind, name) for kind, name, _ in doc.items] == [("iet", "start"), ("bracket", "end")]
    assert print_document(doc) == text
    assert parse_document(print_document(doc)) == doc


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
    assert (exc_info.value.line, exc_info.value.col) == (2, 15)


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("iet s { lengths = [1.]; perm = [1]; }", "malformed number", 1, 20),
        ("iet s { lengths = [1.a]; perm = [1]; }", "malformed number", 1, 20),
        ("\r\n\r\n  12.", "malformed number", 3, 3),
        ("iet s {\n  lengths = [$1];\n}", "unexpected character '$'", 2, 14),
        ("iet s { lengths = [\x00]; }", "unexpected character '\\x00'", 1, 20),
        ("iet \u00e9", "unexpected character '\u00e9'", 1, 5),
        ("iet s { lengths = [1.5.3]; perm = [1]; }", "unexpected character '.'", 1, 23),
        ("iet s {\n\tlengths = [1;\n}", "expected ']' near ';'", 2, 14),
        ("iet s {\t\t$", "unexpected character '$'", 1, 10),
        ("iet s {\r\n  lengths\r= [1;\r\n}", "expected ']' near ';'", 2, 15),
        # the column at the end of input does not count a trailing comment
        ("iet s { lengths = [1]; # no newline", "expected a field name at end of input", 1, 24),
        ("iet __#", "expected '{' at end of input", 1, 7),
        ("iet s { lengths = [1]; perm = [1]", "expected ';' at end of input", 1, 34),
        # the token error comes before the semantic error the tokens would give
        ("iet s { lengths = [1]; perm = [1]; }\niet s @", "unexpected character '@'", 2, 7),
    ],
)
def test_syntax_error_positions_are_pinned(text, message, line, col):
    with pytest.raises(FoamSyntaxError) as exc_info:
        parse_document(text)
    err = exc_info.value
    assert str(err) == f"{message} (line {line}, column {col})"
    assert (err.line, err.col) == (line, col)


def test_a_zero_planar_start_strand_names_its_line():
    with pytest.raises(DslSemanticError) as exc_info:
        parse_document("planarfoam p {\n  start [1, 0];\n  end;\n}")
    assert str(exc_info.value) == "in planarfoam 'p' (line 2): start strand 1 must be nonzero"


def test_the_format_doc_lists_the_reserved_words():
    """docs/format.md names every reserved word of the parser, and no other."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "format.md").read_text()
    listed = doc[doc.index("The keywords of the format"):].split(") are reserved")[0]
    assert set(re.findall(r"`(\w+)`", listed)) == RESERVED


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
    # the column counts characters: two two-byte ones precede the bad byte
    with pytest.raises(FoamSyntaxError) as exc_info:
        parse_bytes(b"# \xc3\xa9\xc3\xa9\n\xc3\xa9\xc3\xa9\xff")
    assert str(exc_info.value) == "invalid UTF-8 (line 2, column 3)"


def test_parse_bytes_skips_a_byte_order_mark():
    mark = b"\xef\xbb\xbf"
    assert parse_bytes(mark + SAMPLE.encode()) == parse_document(SAMPLE)
    # columns count from the first character after the mark
    for data, message in [
        (mark + b"\xff", "invalid UTF-8 (line 1, column 1)"),
        (mark + b"# \xc3\xa9\n\xc3\xa9\xff", "invalid UTF-8 (line 2, column 2)"),
        (mark + b"iet $", "unexpected character '$' (line 1, column 5)"),
        # only the first mark is skipped; a second one is a character
        (mark + mark + b"\xff", "invalid UTF-8 (line 1, column 2)"),
        (mark + mark, "unexpected character '\\ufeff' (line 1, column 1)"),
    ]:
        with pytest.raises(FoamSyntaxError) as exc_info:
            parse_bytes(data)
        assert str(exc_info.value) == message


_MEASURE_PARSE = """
import resource, sys
from foamcalc import parse_document
text = sys.stdin.read()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
parse_document(text)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_a_megabyte_document_parses_in_bounded_memory():
    """Matching the token grammar keeps no stack that grows with the text:
    parsing about 1 MB of long weight sums raises the peak RSS by less than
    64 MB.  On Linux x86-64 with CPython 3.11 the parse stays within the
    peak that reading the text set, and a backtracking match of the whole
    text would add about 95 MB."""
    total = "+".join(str(k % 10) for k in range(1, 60))
    text = "".join(
        f"iet s{i} {{  # item {i}\n  lengths = [{total}, 1/2, 3/4];\n  perm = [3, 1, 2];\n}}\n"
        for i in range(6000)
    )
    assert len(text) > 1_000_000
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE_PARSE], input=text, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64 * 1024  # ru_maxrss is in KiB on Linux


# --- the tokenizer against the character loop it replaced ------------------


def _reference_tokenize(text):
    """The character-by-character tokenizer that the regex one replaced:
    ``(kind, text, line, col)`` of every token, ending with eof."""

    def ident_start(ch):
        return ch == "_" or "a" <= ch <= "z" or "A" <= ch <= "Z"

    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ident_start(ch):
            j = i
            while j < n and (ident_start(text[j]) or "0" <= text[j] <= "9"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == ".":
                if j + 1 >= n or not ("0" <= text[j + 1] <= "9"):
                    raise FoamSyntaxError("malformed number", line, col)
                j += 1
                while j < n and "0" <= text[j] <= "9":
                    j += 1
            toks.append(("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "{}[]();,=:*+-/":
            toks.append(("sym", ch, line, col))
            col += 1
            i += 1
            continue
        raise FoamSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of the FoamError it
    raises."""
    try:
        return fn(*args)
    except FoamError as exc:
        return type(exc).__name__, str(exc)


def _token_kind(t):
    if not t:
        return "eof"
    if t[0] in "{}[]();,=:*+-/":
        return "sym"
    return "num" if "0" <= t[0] <= "9" else "ident"


def _regex_tokens(text):
    """``(kind, text, line, col)`` of every token that ``dsl._tokenize``
    returns, placed at the offsets that the error path computes."""
    toks = dsl._tokenize(text)
    offsets = dsl._offsets(text)
    assert len(offsets) == len(toks)
    return [
        (_token_kind(t), t, *dsl._position(text, o)) for t, o in zip(toks, offsets)
    ]


def test_bounded_offset_scan_agrees_with_the_full_one():
    """Error positions scan only up to the token they name: on random
    documents, with comments and blank lines put in, the offsets up to
    token k are those of the full scan."""
    rng = random.Random(11)
    for i in range(20):
        lines = print_document(rand_document(rng, i)).splitlines()
        text = "".join(
            line + rng.choice(["\n", "\n\n", "  # note\n", "\r\n\t"]) for line in lines
        )
        full = dsl._offsets(text)
        for k in rng.sample(range(len(full)), min(10, len(full))) + [0, len(full) - 1]:
            assert dsl._offsets(text, k) == full[: k + 1]
            parser = dsl._Parser(text)
            assert parser.where(k) == dsl._position(text, full[k])


def test_every_event_starts_with_its_position():
    """parse_diagram reads an event's leading position itself, and every
    other field through the kind's readers, which are the field codecs'
    readers after the position, in field order."""
    kinds = foamdiag.EVENT_KINDS + planar.PEVENT_KINDS
    assert set(dsl._FIELD_READERS) == set(kinds)
    for cls in kinds:
        first, *rest = dsl._FIELD_CODECS[cls]
        assert first[0] == "pos" and first[1] is dsl._TEXT_CODECS["int"][0]
        assert dsl._FIELD_READERS[cls] == tuple(read for _, read, _ in rest)


_PIECES = st.sampled_from(
    ["iet", "r2", "_x9", "cup", "0", "12", "1.5", "3.", ".", "..", "#", "# c\n",
     "\n", "\r\n", "\r", "\t", " ", "{", "}", "[", "]", "(", ")", ";", ",",
     "=", ":", "*", "+", "-", "/", "\u00e9", "\u0663", "\u00a0", "\u2028",
     "\x00", "$",
     # a comment without a newline, blanks alone, and a token with blanks
     # after it: each may end the text or be all of it
     "# tail", " \t\r\n ", "x  "]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_PIECES | st.characters(), max_size=40).map("".join))
@example("")
@example("  \t\n ")
@example("# only a comment")
@example("iet __#")
@example("iet s   ")
@example("iet s\n# c\n  # d")
# a scan that restarted after a failed match would read tokens from inside
# a comment here, or read past a character that no token takes
@example("# a\n@")
@example("1#1\n.5")
@example("r2#2.5\n.5")
@example("1.5#.3\n.3")
@example("1 .5")
@example("x\x0by")
def test_tokenizer_agrees_with_the_character_loop(text):
    assert _outcome(_regex_tokens, text) == _outcome(_reference_tokenize, text)


# --- weight expressions against the public Weight operations ---------------
#
# An expression tree in the grammar's own shape: a sum is a list of
# (sign, product) pairs, a product a list of factors, and a factor one of
# ("-", f), ("+", f), ("()", sum), ("int", digits, denominator digits or
# None), ("dec", text) or ("gen", name).

_BASIS = GeneratorBasis(
    [Generator("r2", "1.4142135623730951", 16), Generator("r3", "1.7320508075688772", 16)]
)


def _digits(small):
    return st.one_of(small, st.just("9" * 4301))


_LEAVES = st.one_of(
    st.tuples(
        st.just("int"),
        _digits(st.integers(0, 40).map(str)),
        st.none() | _digits(st.sampled_from(["0", "1", "2", "3", "12", "07"])),
    ),
    st.tuples(st.just("dec"), st.sampled_from(["0.5", "1.25", "0.0", "3.125"])
              | st.just("1." + "2" * 4301)),
    st.tuples(st.just("gen"), st.sampled_from(["r2", "r2", "r3", "r9"])),
)


def _trees(factor):
    """Sums of products of ``factor``.  The first term has sign "+": a
    leading minus is read as a unary minus on the first factor."""
    product = st.lists(factor, min_size=1, max_size=2)
    return st.tuples(
        product, st.lists(st.tuples(st.sampled_from("+-"), product), max_size=1)
    ).map(lambda t: [("+", t[0])] + t[1])


_FACTORS = st.recursive(
    _LEAVES,
    lambda f: st.one_of(
        st.tuples(st.sampled_from("-+"), f),
        st.tuples(st.just("()"), _trees(f)),
    ),
    max_leaves=6,
)

_SUMS = _trees(_FACTORS)


def _deep(tree, n):
    """``tree`` as the one factor of a sum, under ``n`` unary signs and
    parentheses."""
    f = ("()", tree)
    for k in range(n):
        sign = "-+("[k % 3]
        f = ("()", [("+", [f])]) if sign == "(" else (sign, f)
    return [("+", [f])]


def _rational(w):
    """w as a Fraction when it is a multiple of the unit (index 0), else None."""
    if any(i for i, _ in w.nums):
        return None
    return Fraction(sum(n for _, n in w.nums), w.den)


class _Oracle:
    """Renders a tree and evaluates it with the public Weight operations,
    raising the errors the parser raises, in the order it meets them."""

    def __init__(self, tree):
        self.parts = []
        self.at = {}  # id of a node -> offset of its first character
        self.render_sum(tree)
        self.text = "".join(self.parts)

    def emit(self, s):
        self.parts.append(s)

    def offset(self):
        return sum(len(p) for p in self.parts)

    def render_sum(self, terms):
        for k, (sign, product) in enumerate(terms):
            if k:
                self.emit(f" {sign} ")
            for j, f in enumerate(product):
                if j:
                    self.emit("*")
                self.render_factor(f)

    def render_factor(self, f):
        self.at[id(f)] = self.offset()
        if f[0] in "+-":
            self.emit(f[0])
            self.render_factor(f[1])
        elif f[0] == "()":
            self.emit("(")
            self.render_sum(f[1])
            self.emit(")")
        elif f[0] == "int":
            self.emit(f[1])
            if f[2] is not None:
                self.emit("/")
                self.at[id(f), "den"] = self.offset()
                self.emit(f[2])
        else:
            self.emit(f[1])

    def fail(self, message, near, offset):
        shown = near if len(near) <= 24 else near[:24] + "..."
        raise FoamSyntaxError(f"{message} near {shown!r}", 1, offset + 1)

    def eval_sum(self, terms, depth):
        w = self.eval_product(terms[0][1], depth)
        for sign, product in terms[1:]:
            x = self.eval_product(product, depth)
            w = w - x if sign == "-" else w + x
        return w

    def eval_product(self, product, depth):
        w = self.eval_factor(product[0], depth)
        for f in product[1:]:
            x = self.eval_factor(f, depth)
            qa, qx = _rational(w), _rational(x)
            if qx is not None:
                w = w.scale(qx)
            elif qa is not None:
                w = x.scale(qa)
            else:
                raise DslSemanticError("product of two irrational weights (line 1)")
        return w

    def eval_factor(self, f, depth):
        if depth > 64:
            raise FoamSyntaxError("expression nested too deeply", 1, self.at[id(f)] + 1)
        if f[0] == "-":
            return -self.eval_factor(f[1], depth + 1)
        if f[0] == "+":
            return self.eval_factor(f[1], depth + 1)
        if f[0] == "()":
            return self.eval_sum(f[1], depth + 1)
        if f[0] == "gen":
            try:
                return Weight.generator(_BASIS, f[1])
            except DslSemanticError as exc:  # the parser names the line
                raise DslSemanticError(f"{exc} (line 1)") from None
        if f[0] == "dec":
            if len(f[1]) > 4300:
                self.fail("number literal too large", f[1], self.at[id(f)])
            return Weight.rational(_BASIS, Fraction(f[1]))
        if len(f[1]) > 4300:
            self.fail("integer literal too large", f[1], self.at[id(f)])
        num, den = int(f[1]), 1
        if f[2] is not None:
            if len(f[2]) > 4300:
                self.fail("integer literal too large", f[2], self.at[id(f), "den"])
            den = int(f[2])
            if den == 0:
                self.fail("zero denominator", f[2], self.at[id(f), "den"])
        return Weight.rational(_BASIS, Fraction(num, den))


def _check_weight_expression(tree):
    oracle = _Oracle(tree)
    want = _outcome(oracle.eval_sum, tree, 0)
    got = _outcome(parse_weight, oracle.text, _BASIS)
    assert got == want, oracle.text
    if isinstance(got, Weight):
        assert got.coeffs == want.coeffs and hash(got) == hash(want)
        assert all(type(c) is Fraction and c for _, c in got.coeffs)


@settings(max_examples=300, deadline=None)
@given(_SUMS)
def test_weight_expressions_match_public_operations(tree):
    _check_weight_expression(tree)


@settings(max_examples=50, deadline=None)
@given(_trees(_LEAVES), st.integers(60, 70))
def test_deep_weight_expressions_match_public_operations(tree, n):
    _check_weight_expression(_deep(tree, n))


@pytest.mark.parametrize("text, want", [
    ("(r2-r2)*r3", "0"),
    ("r3*(r2 - r2)", "0"),
    ("0*r2*r3", "0"),
    ("(1 + r2 - r2)*r3", "1*r3"),
    ("-(1/2 + r2)*2 - -3*r3", "-1-2*r2+3*r3"),
    ("r2*1/2 + 1/2*r2 - 1.5", "-3/2+1*r2"),
    ("0.5*-r2", "-1/2*r2"),
    ("2*-(1 + r2)*-3", "6+6*r2"),
])
def test_rational_factors_are_decided_by_their_support(text, want):
    assert weight_to_text(parse_weight(text, _BASIS)) == want


_BIG = "1" + "0" * 4299  # 4300 digits: the most that int() reads by default
_TOO_BIG = _BIG + "0"


def _syntax(message, col):
    return "FoamSyntaxError", f"{message} (line 1, column {col})"


@pytest.mark.parametrize("text, want", [
    # n, n/d, n*name, n/d*name and name, after at most one sign
    ("0", "0"),
    ("0*r2", "0"),
    ("-r2", "-1*r2"),
    ("14/3*r2 - 2/4 + r3", "-1/2+14/3*r2+1*r3"),
    (_BIG, _BIG),
    (f"2{_BIG[1:]}/{_BIG}*r2", "2*r2"),
    (f"1/{_BIG}", f"1/{_BIG}"),
    # longer products, chains of signs, a literal after *
    ("2*r2*3", "6*r2"),
    ("r2*2", "2*r2"),
    ("2*1", "2"),
    ("- -3", "3"),
    ("2*-r2", "-2*r2"),
    ("(" * 63 + "-1" + ")" * 63, "-1"),
    ("(" * 64 + "1" + ")" * 64, "1"),
    # errors keep their text and position
    ("1/0", _syntax("zero denominator near '0'", 3)),
    ("1/2/3", _syntax("unexpected input after the weight expression near '/'", 4)),
    ("2*r9", ("DslSemanticError", "unknown generator 'r9' (line 1)")),
    ("r9", ("DslSemanticError", "unknown generator 'r9' (line 1)")),
    ("1*r2*r3", ("DslSemanticError", "product of two irrational weights (line 1)")),
    (_TOO_BIG, _syntax(f"integer literal too large near '{_BIG[:24]}...'", 1)),
    (f"1/{_TOO_BIG}", _syntax(f"integer literal too large near '{_BIG[:24]}...'", 3)),
    (f"-{_TOO_BIG}*r2", _syntax(f"integer literal too large near '{_BIG[:24]}...'", 2)),
    ("(" * 64 + "-1" + ")" * 64, _syntax("expression nested too deeply", 66)),
    ("(" * 65 + "-1" + ")" * 65, _syntax("expression nested too deeply", 66)),
    # where one factor ends and the next begins
    ("1.5/2", _syntax("unexpected input after the weight expression near '/'", 4)),
    ("1/r2", _syntax("expected a denominator near 'r2'", 3)),
    ("1/-2", _syntax("expected a denominator near '-'", 3)),
    ("2*+r2", "2*r2"),
    ("2/3*3/2*r2", "1*r2"),
    ("(1+r2)*r2", ("DslSemanticError", "product of two irrational weights (line 1)")),
    ("(1+r2)\n*\nr2", ("DslSemanticError", "product of two irrational weights (line 2)")),
    ("(" * 63 + "2*-1" + ")" * 63, "-2"),
    ("(" * 64 + "2*-1" + ")" * 64, _syntax("expression nested too deeply", 68)),
], ids=lambda v: f"{v[:12]}...{len(v)}chars" if isinstance(v, str) and len(v) > 40 else None)
def test_terms_on_both_sides_of_the_plain_term_boundary(text, want):
    """The value, or the error text and position, of single terms: the
    printer's forms, and the seams between the factors that the one term
    reader reads inline."""
    got = _outcome(parse_weight, text, _BASIS)
    assert (weight_to_text(got) if isinstance(got, Weight) else got) == want


def test_each_weight_expression_builds_one_weight(monkeypatch):
    """Terms add into one coefficient map: no Weight per literal or operator."""
    exprs = [
        "1", "-121/128 + 183/256*r2", "3/7*r2 - 5/11*r3", "r2*1/2 + (1 - r3)*2",
        "-(-(1/2 + r2))", "(r2 - r2)*r3 + 0.25", "1*r2 + 1*r2 - 2*r2",
        "2*(1/3 + 1/3*r3)*3", "+1/2", "0",
    ]
    text = "basis { r2 = 1.4142135623730951 digits 16; r3 = 1.7320508075688772 digits 16; }\n"
    text += "".join(
        f"bracket b{k} = 1*[{a}, {b}];\n" for k, (a, b) in enumerate(zip(exprs, exprs[1:]))
    )
    built = []
    init, of = Weight.__init__, Weight._of.__func__

    def counting_init(self, *args):
        built.append("init")
        init(self, *args)

    def counting_of(cls, *args):
        built.append("_of")
        return of(cls, *args)

    monkeypatch.setattr(Weight, "__init__", counting_init)
    monkeypatch.setattr(Weight, "_of", classmethod(counting_of))
    doc = parse_document(text)
    monkeypatch.undo()
    assert len(doc.items) == len(exprs) - 1
    assert len(built) <= 2 * len(doc.items)


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
