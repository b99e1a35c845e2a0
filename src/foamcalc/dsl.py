"""Text format for foam documents.

A document is UTF-8 text, one declaration per block, `#` comments to end of
line.  An optional `basis { ... }` block comes first and declares the
irrational generators; after it any number of named items:

    basis {
      r2 = 1.41421356 digits 8;
    }
    iet s {
      lengths = [1/2, 1/2];
      perm = [2, 1];
    }
    foam u {
      start [];
      cup 0 1+1*r2 d;
      split 1 L 1;
      cross 1;
      merge 1 L;
      cap 0;
      end;
    }
    planarfoam p {
      start [];
      cup 0 1/2;
      cap 0;
      end;
    }
    bracket b = 2*[1,1*r2] + -1*[1/2,3];

Weight expressions admit rational literals (`3`, `1/2`, exact decimals),
generator names, `+`, `-`, parentheses, and `*` where at least one factor is
rational.  `split` takes the flag and the weight of the left output strand;
the planar `split` takes just that weight.  `label` takes a group element as
`(<free ints>;<torsion ints>)`.

The text is split into tokens by one compiled regular expression, in one
pass that also skips blanks and comments.  A token carries its offset in the
text; line and column are computed from it only when a message needs them.
Each weight expression adds its terms into one coefficient map and builds
one `Weight`.

Syntax errors carry line and column, both counted from 1, the column in
characters; semantic errors (unknown generator, event invalid against the
current slice) carry the event index.  `print_document` emits a canonical
form: parsing its output reproduces the document exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, NoReturn, Union

from .decorated import GroupLabel
from .errors import (
    DslSemanticError,
    FoamError,
    FoamSyntaxError,
    PrecisionExhausted,
)
from .foamdiag import EVENT_KINDS, Dir, FoamDiagram, Order, Strand
from .iet import Iet
from .planar import PEVENT_KINDS, BracketSum, PlanarFoam
from .weights import MAX_DIGITS, Generator, GeneratorBasis, Weight

Item = Union[Iet, FoamDiagram, PlanarFoam, BracketSum]

ITEM_KINDS = ("iet", "foam", "planarfoam", "bracket")

# Words with a fixed grammatical role; generators may not shadow them.
RESERVED = frozenset(
    ("basis", "lengths", "perm", "flips", "digits", "start", "end")
    + ITEM_KINDS
    + tuple(cls.keyword for cls in EVENT_KINDS + PEVENT_KINDS)
    + tuple(x.value for x in (*Dir, *Order))
)

_MAX_EXPR_DEPTH = 64


@dataclass(frozen=True)
class Document:
    """A parsed document: the basis plus named items in declaration order."""

    basis: GeneratorBasis
    items: tuple[tuple[str, str, Item], ...]  # (kind, name, value)

    def names(self) -> tuple[str, ...]:
        return tuple(name for _, name, _ in self.items)

    def get(self, name: str) -> tuple[str, Item]:
        for kind, n, value in self.items:
            if n == name:
                return kind, value
        raise DslSemanticError(f"no item named {name!r}")


class _Tok:
    """A token: its kind ("ident", "num", "sym" or "eof"), its text, and the
    offset of its first character in the document."""

    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset


# One token per match, after the blanks and comments before it.  A comment
# that runs to the end of the input is left to the eof alternative, so that
# the end of input sits where that comment starts.  The digits of a number
# are matched whole: a number followed by a dot and no digit is malformed.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*\n)*"
    r"(?:(?P<sym>[{}\[\]();,=:*+\-/])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>[0-9]+(?![0-9])(?:\.[0-9]+|(?!\.)))"
    r"|(?P<eof>)(?:#[^\n]*)?\Z"
    r"|(?P<malformed>[0-9]+\.)"
    r"|(?P<bad>.))",
    re.S,
)

_NOT_TOKENS = frozenset(("eof", "malformed", "bad"))


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column, both counted from 1, of the character at ``offset``;
    the column counts characters."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(text: str) -> list[_Tok]:
    """The tokens of ``text``, ending with one eof token."""
    toks: list[_Tok] = []
    append = toks.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in _NOT_TOKENS:
            break  # the eof alternative matches at the end of any text
        append(_Tok(kind, m[kind], m.start(kind)))
    offset = m.start(kind)
    if kind == "malformed":
        raise FoamSyntaxError("malformed number", *_position(text, offset))
    if kind == "bad":
        raise FoamSyntaxError(f"unexpected character {m[kind]!r}", *_position(text, offset))
    append(_Tok("eof", "", offset))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0

    # token plumbing -----------------------------------------------------
    #
    # Only a symbol token has a one-symbol text, so a symbol is recognised
    # by its text alone.

    def peek(self, ahead: int = 0) -> _Tok:
        j = min(self.k + ahead, len(self.toks) - 1)
        return self.toks[j]

    def advance(self) -> _Tok:
        t = self.toks[self.k]
        if t.kind != "eof":
            self.k += 1
        return t

    def line(self, t: _Tok) -> int:
        return _position(self.text, t.offset)[0]

    def fail(self, message: str, tok: _Tok | None = None) -> NoReturn:
        t = tok if tok is not None else self.peek()
        text = t.text if len(t.text) <= 24 else t.text[:24] + "..."
        where = f" near {text!r}" if t.kind != "eof" else " at end of input"
        raise FoamSyntaxError(message + where, *_position(self.text, t.offset))

    def at_sym(self, ch: str, ahead: int = 0) -> bool:
        return self.peek(ahead).text == ch

    def accept_sym(self, ch: str) -> bool:
        if self.toks[self.k].text == ch:
            self.k += 1
            return True
        return False

    def expect_sym(self, ch: str) -> _Tok:
        t = self.advance()
        if t.text != ch:
            self.fail(f"expected {ch!r}", t)
        return t

    def expect_ident(self, what: str = "a name") -> _Tok:
        t = self.advance()
        if t.kind != "ident":
            self.fail(f"expected {what}", t)
        return t

    # scalar literals ----------------------------------------------------

    def _int_value(self, t: _Tok, what: str) -> int:
        if t.kind != "num" or "." in t.text:
            self.fail(f"expected {what}", t)
        try:
            return int(t.text)
        except ValueError:
            self.fail("integer literal too large", t)

    def nonneg_int(self, what: str) -> int:
        return self._int_value(self.advance(), what)

    def signed_int(self, what: str) -> int:
        neg = self.accept_sym("-")
        v = self._int_value(self.advance(), what)
        return -v if neg else v

    # weight expressions -------------------------------------------------
    #
    # A weight expression adds its terms into one map from generator index
    # to coefficient and builds one Weight at the end.  A term or factor is
    # read as ``(q, v)``, its value being q times v: v is a generator index,
    # 0 (the unit) when the value is the rational q, or the coefficient map
    # of a parenthesised sum that is not rational.  So ``not v`` says that
    # the value is rational; a zero q always comes with v = 0.

    def weight_expr(self, basis: GeneratorBasis, depth: int = 0) -> Weight:
        acc: dict = {}
        self._sum(basis, acc, False, depth)
        return Weight._of(basis, tuple(sorted([
            (i, c if c.__class__ is Fraction else Fraction(c))
            for i, c in acc.items() if c
        ])))

    def _sum(self, basis: GeneratorBasis, acc: dict, neg: bool, depth: int) -> None:
        """Add the terms of a sum into ``acc``, negated when ``neg``."""
        toks = self.toks
        term_neg = neg
        while True:
            q, v = self._product(basis, term_neg, depth)
            if v.__class__ is int:
                c = acc.get(v)
                acc[v] = q if c is None else c + q
            else:
                for i, c in v.items():
                    qc = q * c
                    old = acc.get(i)
                    acc[i] = qc if old is None else old + qc
            op = toks[self.k].text
            if op == "+":
                term_neg = neg
            elif op == "-":
                term_neg = not neg
            else:
                return
            self.k += 1

    def _product(self, basis: GeneratorBasis, neg: bool, depth: int) -> tuple:
        """A product of factors, negated when ``neg``.  All factors but one
        must be rational."""
        q, v = self._factor(basis, neg, depth)
        toks = self.toks
        while toks[self.k].text == "*":
            star = toks[self.k]
            self.k += 1
            qb, vb = self._factor(basis, False, depth)
            if not vb:
                q = q * qb
            elif not v:
                v = vb
                if qb != 1:  # q is 1 unless the factor has a unary minus
                    q = q * qb
            else:
                raise DslSemanticError(
                    f"product of two irrational weights (line {self.line(star)})"
                )
            if not q:
                v = 0
        return q, v

    def _factor(self, basis: GeneratorBasis, neg: bool, depth: int) -> tuple:
        """One factor, negated when ``neg``."""
        t = self.toks[self.k]
        if depth > _MAX_EXPR_DEPTH:
            raise FoamSyntaxError(
                "expression nested too deeply", *_position(self.text, t.offset)
            )
        kind, text = t.kind, t.text
        if kind == "num":
            self.k += 1
            return self._literal(t, neg), 0
        if kind == "ident":
            self.k += 1
            # unknown generator -> DslSemanticError from the basis
            return (-1 if neg else 1), basis.index(text)
        self.advance()
        if text == "-":
            return self._factor(basis, not neg, depth + 1)
        if text == "+":
            return self._factor(basis, neg, depth + 1)
        if text == "(":
            acc: dict = {}
            self._sum(basis, acc, neg, depth + 1)
            self.expect_sym(")")
            v = {i: c for i, c in acc.items() if c}
            if v.keys() <= {0}:
                return v.get(0, 0), 0
            return 1, v
        self.fail("expected a weight", t)

    def _literal(self, t: _Tok, neg: bool):
        """The value of a number token and of the ``/ denominator`` after it,
        negated when ``neg``."""
        text = t.text
        if "." in text:
            try:
                q = Fraction(text)
            except ValueError:
                self.fail("number literal too large", t)
            return -q if neg else q
        try:
            num = int(text)
        except ValueError:
            self.fail("integer literal too large", t)
        if neg:
            num = -num
        if self.toks[self.k].text != "/":
            return num
        self.k += 1
        dt = self.advance()
        den = self._int_value(dt, "a denominator")
        if den == 0:
            self.fail("zero denominator", dt)
        return Fraction(num, den)

    # shared list helper -------------------------------------------------

    def comma_list(self, one: Callable[[], object], closer: str) -> list:
        out: list = []
        if self.at_sym(closer):
            return out
        out.append(one())
        while self.accept_sym(","):
            out.append(one())
        return out

    # blocks ---------------------------------------------------------------

    def parse_basis_block(self) -> GeneratorBasis:
        self.expect_sym("{")
        gens: list[Generator] = []
        seen: set[str] = set()
        while not self.accept_sym("}"):
            name_tok = self.expect_ident("a generator name")
            name = name_tok.text
            if name in RESERVED:
                raise DslSemanticError(
                    f"generator name {name!r} is reserved (line {self.line(name_tok)})"
                )
            if name in seen:
                raise DslSemanticError(
                    f"duplicate generator {name!r} (line {self.line(name_tok)})"
                )
            self.expect_sym("=")
            neg = self.accept_sym("-")
            num = self.advance()
            if num.kind != "num":
                self.fail("expected a decimal enclosure", num)
            try:
                Generator(name, num.text, 1).midpoint()
            except ValueError:
                self.fail("number literal too large", num)
            kw = self.expect_ident("'digits'")
            if kw.text != "digits":
                self.fail("expected 'digits'", kw)
            dt = self.advance()
            digits = self._int_value(dt, "a digit count")
            if digits < 1:
                raise DslSemanticError(
                    f"digit count must be positive (line {self.line(dt)})"
                )
            if digits > MAX_DIGITS:
                raise DslSemanticError(
                    f"digit count must be at most {MAX_DIGITS} (line {self.line(dt)})"
                )
            self.expect_sym(";")
            gens.append(Generator(name, ("-" if neg else "") + num.text, digits))
            seen.add(name)
        return GeneratorBasis(gens)

    def parse_iet(self, basis: GeneratorBasis, name: str) -> Iet:
        self.expect_sym("{")
        fields: dict[str, list] = {}
        while not self.accept_sym("}"):
            key = self.expect_ident("a field name")
            if key.text not in ("lengths", "perm", "flips"):
                self.fail("expected lengths, perm or flips", key)
            if key.text in fields:
                self.fail(f"duplicate field {key.text!r}", key)
            self.expect_sym("=")
            self.expect_sym("[")
            if key.text == "lengths":
                vals = self.comma_list(lambda: self.weight_expr(basis), "]")
            elif key.text == "perm":
                vals = self.comma_list(
                    lambda: self.nonneg_int("a rank"), "]"
                )
            else:
                vals = self.comma_list(lambda: self._word("num", _BITS, "0 or 1"), "]")
            self.expect_sym("]")
            self.expect_sym(";")
            fields[key.text] = vals
        if "lengths" not in fields or "perm" not in fields:
            raise DslSemanticError(
                f"iet {name!r} needs both lengths and perm"
            )
        try:
            return Iet(fields["lengths"], fields["perm"], fields.get("flips"))
        except PrecisionExhausted:
            raise
        except FoamError as exc:
            raise DslSemanticError(f"in iet {name!r}: {exc}") from None

    def _word(self, kind: str, words: dict, what: str):
        """The value of the next token, which must be one of ``words``."""
        t = self.advance()
        if t.kind == kind and t.text in words:
            return words[t.text]
        self.fail(f"expected {what}", t)

    def parse_diagram(
        self, basis: GeneratorBasis, kind: str, name: str
    ) -> FoamDiagram | PlanarFoam:
        calc = _CALCULI[kind]
        self.expect_sym("{")
        kw = self.expect_ident("'start'")
        if kw.text != "start":
            self.fail("expected 'start'", kw)
        self.expect_sym("[")
        start = self.comma_list(lambda: calc.read_strand(self, basis), "]")
        self.expect_sym("]")
        self.expect_sym(";")
        events: list = []
        slices = [tuple(start)]
        while True:
            kw = self.expect_ident("an event keyword")
            if kw.text == "end":
                self.expect_sym(";")
                break
            cls = calc.keywords.get(kw.text)
            if cls is None:
                self.fail(calc.unknown, kw)
            e = cls(*[read(self, basis) for _, read, _ in _FIELD_CODECS[cls]])
            self.expect_sym(";")
            try:
                slices.append(calc.diagram.step(slices[-1], e))
            except PrecisionExhausted:
                raise
            except FoamError as exc:
                raise DslSemanticError(
                    f"in {kind} {name!r}: event {len(events)}"
                    f" (line {self.line(kw)}): {exc}"
                ) from None
            events.append(e)
        self.expect_sym("}")
        return calc.diagram._from_slices(basis, slices[0], tuple(events), tuple(slices))

    def _strand(self, basis: GeneratorBasis) -> Strand:
        w = self.weight_expr(basis)
        self.expect_sym(":")
        return Strand(w, self._word("ident", _DIRS, "direction u or d"))

    def _group_label(self, basis: GeneratorBasis) -> GroupLabel:
        self.expect_sym("(")
        free = self.comma_list(lambda: self.signed_int("an integer"), ";")
        self.expect_sym(";")
        tors = self.comma_list(lambda: self.signed_int("an integer"), ")")
        self.expect_sym(")")
        return GroupLabel(tuple(free), tuple(tors))

    def parse_bracket(self, basis: GeneratorBasis, name: str) -> BracketSum:
        self.expect_sym("=")
        if (
            self.peek().kind == "num"
            and self.peek().text == "0"
            and self.at_sym(";", 1)
        ):
            self.advance()
            self.advance()
            return BracketSum.zero(basis)
        terms = [self._bracket_term(basis, 1)]
        while True:
            if self.at_sym("+"):
                self.advance()
                terms.append(self._bracket_term(basis, 1))
            elif self.at_sym("-"):
                self.advance()
                terms.append(self._bracket_term(basis, -1))
            else:
                break
        self.expect_sym(";")
        return BracketSum(basis, terms)

    def _bracket_term(self, basis, sign: int) -> tuple[int, Weight, Weight]:
        while self.accept_sym("-"):
            sign = -sign
        c = 1
        if self.peek().kind == "num":
            c = self.nonneg_int("an integer coefficient")
            self.expect_sym("*")
        self.expect_sym("[")
        a = self.weight_expr(basis)
        self.expect_sym(",")
        b = self.weight_expr(basis)
        self.expect_sym("]")
        return (sign * c, a, b)


def parse_document(text: str, precision_cap: int | None = None) -> Document:
    p = _Parser(text)
    basis = GeneratorBasis(())
    items: list[tuple[str, str, Item]] = []
    names: set[str] = set()
    first = True
    while p.peek().kind != "eof":
        kw = p.expect_ident("a declaration keyword")
        if kw.text == "basis":
            if not first:
                p.fail("basis block must be the first declaration", kw)
            basis = p.parse_basis_block()
            if precision_cap is not None:
                basis = basis.with_precision_cap(precision_cap)
            first = False
            continue
        first = False
        if kw.text not in ITEM_KINDS:
            p.fail("expected basis, iet, foam, planarfoam or bracket", kw)
        name_tok = p.expect_ident("an item name")
        name = name_tok.text
        if name in names:
            raise DslSemanticError(
                f"duplicate item name {name!r} (line {p.line(name_tok)})"
            )
        names.add(name)
        if kw.text == "iet":
            value: Item = p.parse_iet(basis, name)
        elif kw.text in _CALCULI:
            value = p.parse_diagram(basis, kw.text, name)
        else:
            value = p.parse_bracket(basis, name)
        items.append((kw.text, name, value))
    return Document(basis, tuple(items))


def parse_bytes(data: bytes, precision_cap: int | None = None) -> Document:
    """parse_document on raw bytes; rejects non-UTF-8 with a position."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first invalid one decode
        prefix = data[: exc.start].decode("utf-8")
        raise FoamSyntaxError("invalid UTF-8", *_position(prefix, len(prefix))) from None
    return parse_document(text, precision_cap)


def parse_weight(text: str, basis: GeneratorBasis) -> Weight:
    """A weight expression on its own, over an already known basis."""
    p = _Parser(text)
    w = p.weight_expr(basis)
    if p.peek().kind != "eof":
        p.fail("unexpected input after the weight expression")
    return w


# canonical printer ---------------------------------------------------------


def _rat_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def weight_to_text(w: Weight) -> str:
    """Canonical expression for a weight; parses back to the same value."""
    if w.is_zero():
        return "0"
    parts: list[str] = []
    for i, c in w.coeffs:
        mag = _rat_text(abs(c))
        body = mag if i == 0 else f"{mag}*{w.basis.name(i)}"
        if parts:
            parts.append("+" + body if c > 0 else "-" + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return "".join(parts)


def bracket_to_text(s: BracketSum) -> str:
    """Canonical expression for a bracket sum; ``0`` when it is empty."""
    if not s.terms:
        return "0"
    return " + ".join(
        f"{c}*[{weight_to_text(a)},{weight_to_text(b)}]" for c, a, b in s.terms
    )


def _label_text(g: GroupLabel) -> str:
    free = ",".join(str(n) for n in g.free)
    tors = ",".join(str(n) for n in g.tors)
    return f"({free};{tors})"


_DIRS = {d.value: d for d in Dir}
_ORDERS = {o.value: o for o in Order}
_BITS = {"0": False, "1": True}

# Text form of each event field type, keyed by the annotation's name: how
# the parser reads it and how the printer writes it.
_TEXT_CODECS = {
    "int": (lambda p, basis: p.nonneg_int("a position"), str),
    "Order": (lambda p, basis: p._word("ident", _ORDERS, "flag L or R"), lambda o: o.value),
    "Dir": (lambda p, basis: p._word("ident", _DIRS, "direction u or d"), lambda d: d.value),
    "Weight": (_Parser.weight_expr, weight_to_text),
    "GroupLabel": (_Parser._group_label, _label_text),
}

# (field name, reader, writer) of every field of every event kind.
_FIELD_CODECS = {
    cls: tuple((f.name, *_TEXT_CODECS[f.type]) for f in fields(cls))
    for cls in EVENT_KINDS + PEVENT_KINDS
}


def _event_line(e) -> str:
    words = [e.keyword] + [write(getattr(e, name)) for name, _, write in _FIELD_CODECS[type(e)]]
    return "  " + " ".join(words) + ";"


@dataclass
class _Calculus:
    """A diagram item kind: its diagram class and the text of its strands."""

    diagram: type  # a SlicedDiagram subclass: event kinds and slice rule
    unknown: str  # syntax error for an event keyword the kind lacks
    read_strand: Callable
    strand_text: Callable

    def __post_init__(self):
        self.keywords = {cls.keyword: cls for cls in self.diagram.kinds}


_CALCULI = {
    "foam": _Calculus(
        FoamDiagram, "unknown event", _Parser._strand,
        lambda s: f"{weight_to_text(s.weight)}:{s.dir.value}",
    ),
    "planarfoam": _Calculus(
        PlanarFoam, "unknown planar event", _Parser.weight_expr, weight_to_text,
    ),
}


def print_document(doc: Document) -> str:
    lines: list[str] = []
    gens = doc.basis.entries[1:]
    if gens:
        lines.append("basis {")
        for g in gens:
            lines.append(f"  {g.name} = {g.enclosure} digits {g.digits};")
        lines.append("}")
    for kind, name, value in doc.items:
        if kind == "iet":
            t = value
            lines.append(f"iet {name} {{")
            lines.append(
                "  lengths = ["
                + ", ".join(weight_to_text(l) for l in t.lengths)
                + "];"
            )
            lines.append("  perm = [" + ", ".join(str(k) for k in t.perm) + "];")
            if any(t.flips):
                lines.append(
                    "  flips = ["
                    + ", ".join("1" if f else "0" for f in t.flips)
                    + "];"
                )
            lines.append("}")
        elif kind in _CALCULI:
            calc = _CALCULI[kind]
            lines.append(f"{kind} {name} {{")
            lines.append(
                "  start [" + ", ".join(calc.strand_text(x) for x in value.start) + "];"
            )
            lines += [_event_line(e) for e in value.events]
            lines += ["  end;", "}"]
        else:
            lines.append(f"bracket {name} = {bracket_to_text(value)};")
    return "\n".join(lines) + ("\n" if lines else "")
