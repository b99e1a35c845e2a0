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

The tokens come out of one `findall`, blanks and comments skipped, and the
same scan checks the text against the token grammar: where no token fits,
it takes the rest of the text as one string, and the token error is read
off that rest.  A token is a plain string, `""` at the end of input.
Token offsets, and so line and column, are computed by a second walk over
the same pattern only when a message needs them, and that walk stops at
the token the message names.
One loop reads each weight expression: it multiplies out the factors of
each term and adds the terms into one coefficient map, which builds one
`Weight`.  Only a parenthesised sum recurses.

Syntax errors carry line and column, both counted from 1, the column in
characters; semantic errors (unknown generator, event invalid against the
current slice) carry the line, and an invalid event also its index.
`print_document` emits a canonical form: parsing its output reproduces the
document exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd
from typing import Callable, NoReturn, Union

from .decorated import GroupLabel
from .errors import (
    DslSemanticError,
    FoamError,
    FoamSyntaxError,
    PrecisionExhausted,
)
from .exterior import WedgeValue
from .foamdiag import EVENT_KINDS, Dir, FoamDiagram, Order, Strand
from .iet import Iet
from .planar import PEVENT_KINDS, BracketSum, PlanarFoam
from .weights import MAX_DIGITS, Generator, GeneratorBasis, Weight, _normalised, _parse_decimal, _ratio

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

    def get(self, name: str) -> tuple[str, Item]:
        for kind, n, value in self.items:
            if n == name:
                return kind, value
        raise DslSemanticError(f"no item named {name!r}")


# The token grammar: blanks and comments, then one token; the end of input
# sits where a comment that runs to it starts.  Quantifiers are possessive, so
# a match keeps no backtracking stack that grows with the text.  The digits of
# a number are matched whole: a number followed by a dot and no digit is
# malformed.
_SKIP = r"(?:[ \t\r\n]++|#[^\n]*+\n)*+"
_TOKEN = r"[{}\[\]();,=:*+\-/]|[A-Za-z_][A-Za-z0-9_]*+|[0-9]++(?:\.[0-9]++|(?!\.))"
_END = r"(?:#[^\n]*+)?\Z"

# One findall over _TEXTS both takes the tokens and decides whether the text
# is valid, because every search matches where it starts.  After the blanks
# and comments, which take every newline and every comment that a newline
# ends, comes the end of input, a comment that runs to it, a token, or else
# a character that starts none of them; there the match takes the rest of
# the text as one string.  So the matches tile the text: findall skips no
# character, and never starts a match inside a comment, as a scan that went
# on one character after a failed match would.  The text is valid exactly
# when no rest is taken.  A rest can only be the last string before the end
# of input, and the token pattern does not match it in full, or it would
# have matched at its start.
_TEXTS = re.compile(rf"{_SKIP}(?:({_TOKEN}|(?!#)(?s:.+))|{_END})")
_TOKEN_TEXT = re.compile(_TOKEN)


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column, both counted from 1, of the character at ``offset``;
    the column counts characters."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, ending with ``""`` for the end of input.
    A token is ``""`` (eof), a symbol, a number when it starts with a digit,
    or else a name."""
    toks = _TEXTS.findall(text)
    # after trailing blanks, findall also matches the empty end once more
    if len(toks) > 1 and not toks[-2]:
        toks.pop()
    if len(toks) > 1 and _TOKEN_TEXT.fullmatch(toks[-2]) is None:
        # the rest of the text from a character that starts no token; a
        # digit there starts digits and a dot with no digit after it
        rest = toks[-2]
        message = "malformed number" if "0" <= rest[0] <= "9" else f"unexpected character {rest[0]!r}"
        raise FoamSyntaxError(message, *_position(text, len(text) - len(rest)))
    return toks


def _offsets(text: str, stop: int | None = None) -> list[int]:
    """The offset of each token of ``text``, a text that ``_tokenize``
    accepts, ending with the end of input's, or with token ``stop``'s when
    that comes first.  The end of input sits after the blanks and comments
    before it, so where a comment that runs to it starts."""
    offsets: list[int] = []
    for k, m in enumerate(_TEXTS.finditer(text)):
        if m[1] is None:
            offsets.append(re.compile(_SKIP).match(text, m.start()).end())
            break
        offsets.append(m.start(1))
        if k == stop:
            break
    return offsets


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0

    # token plumbing -----------------------------------------------------
    #
    # A token is its text, and the parser names it by its index in
    # ``toks``.  A check reads the token at the cursor and moves past it
    # only when it passes, so a failure points at the cursor, and after a
    # pass ``self.k - 1`` names the token read.  Tokens are ASCII, so
    # ``isidentifier`` tells the names exactly and ``isdigit`` the integers.

    def peek(self, ahead: int = 0) -> str:
        return self.toks[min(self.k + ahead, len(self.toks) - 1)]

    def where(self, k: int) -> tuple[int, int]:
        return _position(self.text, _offsets(self.text, k)[k])

    def semantic(self, message: str, k: int | None = None, detail: str = "") -> NoReturn:
        """A semantic error at token k, by default the token just read:
        the message, ``(line N)``, then the detail."""
        k = self.k - 1 if k is None else k
        raise DslSemanticError(f"{message} (line {self.where(k)[0]}){detail}") from None

    def fail(self, message: str, k: int | None = None) -> NoReturn:
        k = self.k if k is None else k
        t = self.toks[k]
        text = t if len(t) <= 24 else t[:24] + "..."
        near = f" near {text!r}" if t else " at end of input"
        raise FoamSyntaxError(message + near, *self.where(k))

    def at(self, word: str, ahead: int = 0) -> bool:
        return self.peek(ahead) == word

    def accept(self, word: str) -> bool:
        if self.toks[self.k] == word:
            self.k += 1
            return True
        return False

    def expect(self, word: str) -> None:
        """Move past ``word``, a symbol or a keyword."""
        if self.toks[self.k] != word:
            self.fail(f"expected {word!r}")
        self.k += 1

    def expect_ident(self, what: str) -> str:
        t = self.toks[self.k]
        if not t.isidentifier():
            self.fail(f"expected {what}")
        self.k += 1
        return t

    # scalar literals ----------------------------------------------------

    def nonneg_int(self, what: str) -> int:
        t = self.toks[self.k]
        if not t.isdigit():
            self.fail(f"expected {what}")
        try:
            v = int(t)
        except ValueError:
            self.fail("integer literal too large")
        self.k += 1
        return v

    def signed_int(self, what: str) -> int:
        neg = self.accept("-")
        v = self.nonneg_int(what)
        return -v if neg else v

    # weight expressions -------------------------------------------------
    #
    # One loop reads a weight expression.  It adds each term into one map
    # from generator index to integer numerator over one denominator, and
    # builds one Weight at the end.  A term is the product of its factors,
    # n/d times v with d positive: v is 0 while the product is rational,
    # else a generator index or the numerator map of a parenthesised sum
    # that is not rational, whose denominator d takes in.  A unary sign
    # negates n.  A second irrational factor is refused unless n is 0; a
    # zero term may add a zero numerator, and every reader of the map drops
    # zeros.  No Fraction is built, except for a decimal literal.

    def weight_expr(self, basis: GeneratorBasis) -> Weight:
        acc: dict = {}
        den = self._sum(basis, acc, 0)
        return Weight._of(basis, *_normalised(den, acc))

    def _sum(self, basis: GeneratorBasis, acc: dict, depth: int) -> int:
        """Add the terms of the sum at the cursor into ``acc``, as numerators
        over the denominator it returns, and move past them.  ``depth``
        counts the parentheses and unary signs around the sum; a factor
        under more than 64 of them is an error."""
        toks = self.toks
        index = basis._index  # generator name -> index
        k = self.k
        den = 1
        n = 1  # the sign of the first term
        while True:
            d, v, star = 1, 0, 0  # star: the term's last '*', 0 before the first
            while True:  # the factors of the term
                t = toks[k]
                f = 0  # an irrational factor's v; 0 for the rational q/r
                if t.isdigit():  # an integer and its denominator
                    try:
                        q = int(t)
                    except ValueError:
                        self.fail("integer literal too large", k)
                    k += 1
                    r = 1
                    if toks[k] == "/":
                        k += 1
                        t = toks[k]
                        if not t.isdigit():
                            self.fail("expected a denominator", k)
                        try:
                            r = int(t)
                        except ValueError:
                            self.fail("integer literal too large", k)
                        if not r:
                            self.fail("zero denominator", k)
                        k += 1
                elif t.isidentifier():  # a generator
                    f = index.get(t)
                    if f is None:
                        try:
                            basis.index(t)
                        except DslSemanticError as exc:  # unknown: name its line
                            self.semantic(str(exc), k)
                    k += 1
                elif t == "-" or t == "+" or t == "(":
                    level = depth
                    while t == "-" or t == "+" or t == "(":  # each nests what follows
                        k += 1
                        if level >= _MAX_EXPR_DEPTH:
                            raise FoamSyntaxError("expression nested too deeply", *self.where(k))
                        level += 1
                        if t == "(":
                            break
                        if t == "-":
                            n = -n
                        t = toks[k]
                    if t != "(":
                        continue  # the factor under the signs
                    self.k = k
                    inner: dict = {}
                    r = self._sum(basis, inner, level)
                    self.expect(")")
                    k = self.k
                    m = {i: c for i, c in inner.items() if c}
                    if m.keys() <= {0}:
                        q = m.get(0, 0)
                    else:
                        f = m
                        d *= r
                elif t[:1].isdigit():  # a decimal
                    try:
                        x = Fraction(t)
                    except ValueError:
                        self.fail("number literal too large", k)
                    q, r = x.numerator, x.denominator
                    k += 1
                else:
                    self.fail("expected a weight", k)
                if f:
                    if v and n:
                        self.semantic("product of two irrational weights", star)
                    v = f
                else:
                    n *= q
                    d *= r
                    if star and not v:  # two rational factors: keep them small
                        g = gcd(n, d)
                        n //= g
                        d //= g
                if toks[k] != "*":
                    break
                star = k
                k += 1
            if den % d:  # widen acc to the lcm of den and d
                g = d // gcd(den, d)
                for i in acc:
                    acc[i] *= g
                den *= g
            n *= den // d
            if v.__class__ is int:
                acc[v] = acc.get(v, 0) + n
            else:
                for i, c in v.items():
                    acc[i] = acc.get(i, 0) + n * c
            t = toks[k]
            if t == "+":
                n = 1
            elif t == "-":
                n = -1
            else:
                self.k = k
                return den
            k += 1

    # shared list helper -------------------------------------------------

    def comma_list(self, one: Callable[[], object], closer: str) -> list:
        out: list = []
        if self.at(closer):
            return out
        out.append(one())
        while self.accept(","):
            out.append(one())
        return out

    # blocks ---------------------------------------------------------------

    def parse_basis_block(self) -> GeneratorBasis:
        self.expect("{")
        gens: list[Generator] = []
        seen: set[str] = set()
        while not self.accept("}"):
            name = self.expect_ident("a generator name")
            if name in RESERVED:
                self.semantic(f"generator name {name!r} is reserved")
            if name in seen:
                self.semantic(f"duplicate generator {name!r}")
            self.expect("=")
            neg = self.accept("-")
            num = self.peek()
            if not num[:1].isdigit():
                self.fail("expected a decimal enclosure")
            try:
                _parse_decimal(num)
            except ValueError:
                self.fail("number literal too large")
            self.k += 1
            self.expect("digits")
            digits = self.nonneg_int("a digit count")
            if digits < 1:
                self.semantic("digit count must be positive")
            if digits > MAX_DIGITS:
                self.semantic(f"digit count must be at most {MAX_DIGITS}")
            self.expect(";")
            gens.append(Generator(name, ("-" if neg else "") + num, digits))
            seen.add(name)
        return GeneratorBasis(gens)

    def parse_iet(self, basis: GeneratorBasis, name: str) -> Iet:
        self.expect("{")
        fields: dict[str, list] = {}
        while not self.accept("}"):
            key = self.expect_ident("a field name")
            if key not in ("lengths", "perm", "flips"):
                self.fail("expected lengths, perm or flips", self.k - 1)
            if key in fields:
                self.fail(f"duplicate field {key!r}", self.k - 1)
            self.expect("=")
            self.expect("[")
            if key == "lengths":
                vals = self.comma_list(lambda: self.weight_expr(basis), "]")
            elif key == "perm":
                vals = self.comma_list(
                    lambda: self.nonneg_int("a rank"), "]"
                )
            else:
                vals = self.comma_list(lambda: self._word(_BITS, "0 or 1"), "]")
            self.expect("]")
            self.expect(";")
            fields[key] = vals
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

    def _word(self, words: dict, what: str):
        """The value of the next token, which must be one of ``words``."""
        t = self.toks[self.k]
        if t not in words:
            self.fail(f"expected {what}")
        self.k += 1
        return words[t]

    def parse_diagram(
        self, basis: GeneratorBasis, kind: str, name: str
    ) -> FoamDiagram | PlanarFoam:
        calc = _CALCULI[kind]
        self.expect("{")
        self.expect("start")
        self.expect("[")
        start = self.comma_list(lambda: calc.read_strand(self, basis), "]")
        self.expect("]")
        self.expect(";")
        try:
            cur = calc.diagram.start_slice(start)
        except PrecisionExhausted:
            raise
        except FoamError as exc:  # name the line of the start list
            self.semantic(f"in {kind} {name!r}", self.k - 1, f": {exc}")
        toks, keywords, step = self.toks, calc.keywords, calc.diagram.step
        events: list = []
        slices = [cur]
        while True:
            mark = self.k
            kind_readers = keywords.get(toks[mark])
            if kind_readers is None:  # end, or an error
                kw = self.expect_ident("an event keyword")
                if kw == "end":
                    self.expect(";")
                    break
                self.fail(calc.unknown, mark)
            cls, readers = kind_readers
            # every event kind's first field is its position
            self.k = mark + 1
            pos = self.nonneg_int("a position")
            e = cls(pos, *[read(self, basis) for read in readers]) if readers else cls(pos)
            if toks[self.k] != ";":
                self.fail("expected ';'")
            self.k += 1
            try:
                cur = step(cur, e)
            except PrecisionExhausted:
                raise
            except FoamError as exc:
                self.semantic(f"in {kind} {name!r}: event {len(events)}", mark, f": {exc}")
            slices.append(cur)
            events.append(e)
        self.expect("}")
        return calc.diagram._from_slices(basis, slices[0], tuple(events), tuple(slices))

    def _strand(self, basis: GeneratorBasis) -> Strand:
        w = self.weight_expr(basis)
        self.expect(":")
        return Strand(w, self._word(_DIRS, "direction u or d"))

    def _group_label(self, basis: GeneratorBasis) -> GroupLabel:
        self.expect("(")
        free = self.comma_list(lambda: self.signed_int("an integer"), ";")
        self.expect(";")
        tors = self.comma_list(lambda: self.signed_int("an integer"), ")")
        self.expect(")")
        return GroupLabel(tuple(free), tuple(tors))

    def parse_bracket(self, basis: GeneratorBasis, name: str) -> BracketSum:
        self.expect("=")
        if self.at("0") and self.at(";", 1):
            self.k += 2
            return BracketSum.zero(basis)
        terms = [self._bracket_term(basis, 1)]
        while True:
            if self.accept("+"):
                terms.append(self._bracket_term(basis, 1))
            elif self.accept("-"):
                terms.append(self._bracket_term(basis, -1))
            else:
                break
        self.expect(";")
        return BracketSum(basis, terms)

    def _bracket_term(self, basis, sign: int) -> tuple[int, Weight, Weight]:
        while self.accept("-"):
            sign = -sign
        c = 1
        if self.peek()[:1].isdigit():
            c = self.nonneg_int("an integer coefficient")
            self.expect("*")
        self.expect("[")
        a = self.weight_expr(basis)
        self.expect(",")
        b = self.weight_expr(basis)
        self.expect("]")
        return (sign * c, a, b)


# The basis of a document without a basis block; a basis is immutable, so
# every such document shares this one.
_EMPTY_BASIS = GeneratorBasis(())


def parse_document(text: str, precision_cap: int | None = None) -> Document:
    p = _Parser(text)
    basis = _EMPTY_BASIS
    items: list[tuple[str, str, Item]] = []
    names: set[str] = set()
    first = True
    while p.peek():
        kw = p.expect_ident("a declaration keyword")
        if kw == "basis":
            if not first:
                p.fail("basis block must be the first declaration", p.k - 1)
            basis = p.parse_basis_block()
            if precision_cap is not None:
                basis = basis.with_precision_cap(precision_cap)
            first = False
            continue
        first = False
        if kw not in ITEM_KINDS:
            p.fail("expected basis, iet, foam, planarfoam or bracket", p.k - 1)
        name = p.expect_ident("an item name")
        if name in names:
            p.semantic(f"duplicate item name {name!r}")
        names.add(name)
        if kw == "iet":
            value: Item = p.parse_iet(basis, name)
        elif kw in _CALCULI:
            value = p.parse_diagram(basis, kw, name)
        else:
            value = p.parse_bracket(basis, name)
        items.append((kw, name, value))
    return Document(basis, tuple(items))


def parse_bytes(data: bytes, precision_cap: int | None = None) -> Document:
    """parse_document on UTF-8 bytes, after an optional byte order mark;
    rejects invalid UTF-8 with a position counted after the mark."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object holds the bytes after the mark; those before the first
        # invalid one decode
        prefix = exc.object[: exc.start].decode("utf-8")
        raise FoamSyntaxError("invalid UTF-8", *_position(prefix, len(prefix))) from None
    return parse_document(text, precision_cap)


def parse_weight(text: str, basis: GeneratorBasis) -> Weight:
    """A weight expression on its own, over an already known basis."""
    p = _Parser(text)
    w = p.weight_expr(basis)
    if p.peek():
        p.fail("unexpected input after the weight expression")
    return w


# canonical printer ---------------------------------------------------------


def weight_to_text(w: Weight) -> str:
    """Canonical expression for a weight; parses back to the same value."""
    if w.is_zero():
        return "0"
    parts: list[str] = []
    for i, n in w.nums:
        p, q = _ratio(abs(n), w.den)
        mag = str(p) if q == 1 else f"{p}/{q}"
        body = mag if i == 0 else f"{mag}*{w.basis.name(i)}"
        if parts:
            parts.append("+" + body if n > 0 else "-" + body)
        else:
            parts.append(body if n > 0 else "-" + body)
    return "".join(parts)


def bracket_to_text(s: BracketSum) -> str:
    """Canonical expression for a bracket sum; ``0`` when it is empty."""
    if not s.terms:
        return "0"
    return " + ".join(
        f"{c}*[{weight_to_text(a)},{weight_to_text(b)}]" for c, a, b in s.terms
    )


def wedge_to_text(v: WedgeValue) -> str:
    """Canonical expression for a wedge value; ``0`` when it is zero."""
    entries = v.to_json()
    if not entries:
        return "0"
    return " + ".join(f"{t['coeff']}*({t['left']}^{t['right']})" for t in entries)


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
    "Order": (lambda p, basis: p._word(_ORDERS, "flag L or R"), lambda o: o.value),
    "Dir": (lambda p, basis: p._word(_DIRS, "direction u or d"), lambda d: d.value),
    "Weight": (_Parser.weight_expr, weight_to_text),
    "GroupLabel": (_Parser._group_label, _label_text),
}

# (field name, reader, writer) of every field of every event kind.
_FIELD_CODECS = {
    cls: tuple((f.name, *_TEXT_CODECS[f.type]) for f in fields(cls))
    for cls in EVENT_KINDS + PEVENT_KINDS
}
# The readers of each event kind's fields after its position, which the
# parser reads itself.
_FIELD_READERS = {
    cls: tuple(read for _, read, _ in codecs[1:]) for cls, codecs in _FIELD_CODECS.items()
}


def _event_line(e) -> str:
    words = [e.keyword] + [write(getattr(e, name)) for name, _, write in _FIELD_CODECS[type(e)]]
    return "  " + " ".join(words) + ";"


@dataclass
class _Calculus:
    """A diagram item kind: its diagram class and the text of its strands."""

    diagram: type  # a SlicedDiagram subclass: event kinds, start and slice rules
    unknown: str  # syntax error for an event keyword the kind lacks
    read_strand: Callable
    strand_text: Callable

    def __post_init__(self):
        # event keyword -> (event kind, its readers after the position)
        self.keywords = {cls.keyword: (cls, _FIELD_READERS[cls]) for cls in self.diagram.kinds}


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
