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

Syntax errors carry line and column; semantic errors (unknown generator,
event invalid against the current slice) carry the event index.
`print_document` emits a canonical form: parsing its output reproduces the
document exactly.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class _Tok:
    kind: str  # "ident" | "num" | "sym" | "eof"
    text: str
    line: int
    col: int


_SYMBOLS = frozenset("{}[]();,=:*+-/")


def _is_ident_start(ch: str) -> bool:
    return ch == "_" or "a" <= ch <= "z" or "A" <= ch <= "Z"


def _is_ident_char(ch: str) -> bool:
    return _is_ident_start(ch) or "0" <= ch <= "9"


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
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
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            toks.append(_Tok("ident", text[i:j], line, col))
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
            toks.append(_Tok("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Tok("sym", ch, line, col))
            col += 1
            i += 1
            continue
        raise FoamSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.k = 0

    # token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok:
        j = min(self.k + ahead, len(self.toks) - 1)
        return self.toks[j]

    def advance(self) -> _Tok:
        t = self.toks[self.k]
        if t.kind != "eof":
            self.k += 1
        return t

    def fail(self, message: str, tok: _Tok | None = None) -> NoReturn:
        t = tok if tok is not None else self.peek()
        text = t.text if len(t.text) <= 24 else t.text[:24] + "..."
        where = f" near {text!r}" if t.kind != "eof" else " at end of input"
        raise FoamSyntaxError(message + where, t.line, t.col)

    def at_sym(self, ch: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == "sym" and t.text == ch

    def accept_sym(self, ch: str) -> bool:
        if self.at_sym(ch):
            self.advance()
            return True
        return False

    def expect_sym(self, ch: str) -> _Tok:
        t = self.advance()
        if t.kind != "sym" or t.text != ch:
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

    def weight_expr(self, basis: GeneratorBasis, depth: int = 0) -> Weight:
        w = self.weight_term(basis, depth)
        while True:
            if self.at_sym("+"):
                self.advance()
                w = w + self.weight_term(basis, depth)
            elif self.at_sym("-"):
                self.advance()
                w = w - self.weight_term(basis, depth)
            else:
                return w

    def weight_term(self, basis: GeneratorBasis, depth: int) -> Weight:
        w = self.weight_factor(basis, depth)
        while self.at_sym("*"):
            star = self.advance()
            w = self._weight_mul(w, self.weight_factor(basis, depth), star)
        return w

    def weight_factor(self, basis: GeneratorBasis, depth: int) -> Weight:
        if depth > _MAX_EXPR_DEPTH:
            t = self.peek()
            raise FoamSyntaxError("expression nested too deeply", t.line, t.col)
        t = self.advance()
        if t.kind == "sym" and t.text == "-":
            return -self.weight_factor(basis, depth + 1)
        if t.kind == "sym" and t.text == "+":
            return self.weight_factor(basis, depth + 1)
        if t.kind == "sym" and t.text == "(":
            w = self.weight_expr(basis, depth + 1)
            self.expect_sym(")")
            return w
        if t.kind == "num":
            return Weight.rational(basis, self._rational_after(t))
        if t.kind == "ident":
            # unknown generator -> DslSemanticError from the basis
            return Weight.generator(basis, t.text)
        self.fail("expected a weight", t)

    def _rational_after(self, t: _Tok) -> Fraction:
        if "." in t.text:
            try:
                return Fraction(t.text)
            except ValueError:
                self.fail("number literal too large", t)
        num = self._int_value(t, "a number")
        if self.at_sym("/"):
            self.advance()
            dt = self.advance()
            den = self._int_value(dt, "a denominator")
            if den == 0:
                self.fail("zero denominator", dt)
            return Fraction(num, den)
        return Fraction(num)

    def _weight_mul(self, a: Weight, b: Weight, star: _Tok) -> Weight:
        qa = a.as_rational()
        qb = b.as_rational()
        if qb is not None:
            return a.scale(qb)
        if qa is not None:
            return b.scale(qa)
        raise DslSemanticError(
            f"product of two irrational weights (line {star.line})"
        )

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
                    f"generator name {name!r} is reserved (line {name_tok.line})"
                )
            if name in seen:
                raise DslSemanticError(
                    f"duplicate generator {name!r} (line {name_tok.line})"
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
                    f"digit count must be positive (line {dt.line})"
                )
            if digits > MAX_DIGITS:
                raise DslSemanticError(
                    f"digit count must be at most {MAX_DIGITS} (line {dt.line})"
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
                    f" (line {kw.line}): {exc}"
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
    toks = _tokenize(text)
    p = _Parser(toks)
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
                f"duplicate item name {name!r} (line {name_tok.line})"
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
        prefix = data[: exc.start]
        line = prefix.count(b"\n") + 1
        col = exc.start - (prefix.rfind(b"\n") + 1) + 1
        raise FoamSyntaxError("invalid UTF-8", line, col) from None
    return parse_document(text, precision_cap)


def parse_weight(text: str, basis: GeneratorBasis) -> Weight:
    """A weight expression on its own, over an already known basis."""
    p = _Parser(_tokenize(text))
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
