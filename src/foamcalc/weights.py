"""Exact arithmetic for real-valued weights.

A weight is a finite Q-linear combination over a declared generator basis.
Generator 0 is always the rational unit "1".  The non-unit generators are
declared with a decimal enclosure (midpoint string plus a precision in
digits, at most ``MAX_DIGITS``) and are assumed Q-linearly independent
together with 1.  Under that contract the zero test is structural: a weight
is zero iff its coefficient vector is empty.

The basis parses each enclosure once, into integers over one shared
denominator ``10**D``: the midpoint ``mid_i / 10**D`` and the radius
``rad_i / 10**D``, where D is the largest digit count or midpoint decimal
count of the basis.  The sign of a nonzero weight ``sum c_i x_i`` is then
decided without building a Fraction: with the coefficients written as
integers ``n_i`` over one denominator, the enclosure of the weight is
``center +/- spread`` over a positive denominator, where
``center = sum n_i mid_i`` and ``spread = sum |n_i| rad_i``.  When the
enclosure straddles zero the oracle raises :class:`PrecisionExhausted`
instead of guessing; its message gives the exact Fraction bounds of
:meth:`Weight.interval`.

A weight is stored as integers: a positive denominator ``den`` and a sorted
tuple ``nums`` of ``(index, numerator)`` pairs with no zero numerator and
``gcd(den, *numerators) == 1``, so equal weights have equal fields and zero
is ``(1, ())``.  Wedge values (``exterior.WedgeValue``) use the same form
with generator pairs as keys, and share the arithmetic of their base
``_Sparse``.  A sum or difference of two is one merge of the two key-sorted
``nums`` tuples, with no dict and no sort, and takes a ``gcd`` only where
the denominator is not 1; scaling takes one ``gcd``.  A sum of many terms
(``_Sparse.combination``, and ``exterior.wedge_sum`` for wedges) adds every
term's numerators over the lcm of the denominators and takes the ``gcd``
once.  The sign oracle reads the numerators as the ``n_i`` above.
Fractions appear only at the edge: constructor input, the ``coeffs``
(``terms``) tuple of ``(key, Fraction)`` pairs, built on each access,
``interval`` (the only form of the exact enclosure bounds) and JSON input.
The hash is that of ``(basis, den, nums)``, computed on first use, and a
decided sign is kept on the weight the same way; an undecided sign is never
kept, so it raises on every call.  A sum of two weights that keep the same
decided sign keeps that sign, with no enclosure computed.  That is exact:
over a common denominator the sum's numerators are ``n_i + n'_i``, so its
center is the sum of the two centers and its spread at most the sum of the
two spreads, and dividing out a common factor scales both alike.  Where
both enclosures exclude 0 on one side, so does the sum's, and the oracle
would decide the same sign without raising.  Wedge values have no sign,
and their sums keep none.  A float is refused wherever a coefficient or
scalar comes in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import BasisMismatch, DslSemanticError, PrecisionExhausted

NEGATIVE = -1
ZERO = 0
POSITIVE = 1

# Largest accepted digit count of an enclosure.  It is the bound CPython puts
# on the digits of a decimal literal; a larger count would only make the
# basis build ever larger powers of ten.
MAX_DIGITS = 4300


def _parse_decimal(text: str) -> tuple[int, int]:
    """``(n, e)`` with ``n / 10**e`` the exact value of a decimal literal as
    the document format writes one, like '1.4142' or '-3': an optional minus,
    ASCII digits, then optionally a point and digits; e is the number of
    decimals."""
    m = re.fullmatch(r"(-?[0-9]+)(?:\.([0-9]+))?", text)
    if m is None:
        raise ValueError(f"bad decimal literal {text!r}")
    whole, frac = m.groups("")
    return int(whole + frac), len(frac)


@dataclass(frozen=True)
class Generator:
    """One basis entry: a name plus a decimal enclosure of its value."""

    name: str
    enclosure: str
    digits: int


UNIT = Generator("1", "1", 0)


class GeneratorBasis:
    """Ordered list of generators; entry 0 is always the unit.  Each
    enclosure is parsed once, here, into the integers over ``10**D`` that
    the sign oracle reads."""

    def __init__(self, entries: Iterable[Generator] = ()):
        entries = list(entries)
        if not entries or entries[0].name != "1":
            entries = [UNIT] + entries
        names = [g.name for g in entries]
        if len(set(names)) != len(names):
            raise DslSemanticError("duplicate generator names in basis")
        mids, D = [], 0
        for i, g in enumerate(entries):
            if i:
                if g.digits <= 0:
                    raise DslSemanticError(f"generator {g.name}: digits must be positive")
                if g.digits > MAX_DIGITS:
                    raise DslSemanticError(
                        f"generator {g.name}: digit count must be at most {MAX_DIGITS}"
                    )
                D = max(D, g.digits)
            n, e = _parse_decimal(g.enclosure)  # validates the enclosure
            mids.append((n, e))
            D = max(D, e)
        # Entry 0 is the unit, the only entry named "1": its radius is 0.
        self._mid = tuple(n * 10 ** (D - e) for n, e in mids)
        self._rad = (0,) + tuple(10 ** (D - g.digits) for g in entries[1:])
        self.entries: tuple[Generator, ...] = tuple(entries)
        self._index = {g.name: i for i, g in enumerate(self.entries)}
        self._scale = 10 ** D
        self._hash = hash(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GeneratorBasis) and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GeneratorBasis({[g.name for g in self.entries]})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DslSemanticError(f"unknown generator {name!r}") from None

    def name(self, i: int) -> str:
        return self.entries[i].name

    def with_precision_cap(self, digits: int) -> "GeneratorBasis":
        """Copy of the basis with every enclosure capped at ``digits`` digits.

        Used by the CLI --precision override.  Capping can only widen the
        intervals; it never invents precision the declaration does not have.
        """
        if digits <= 0:
            raise DslSemanticError("precision override must be positive")
        capped = [
            Generator(g.name, g.enclosure, min(g.digits, digits))
            for g in self.entries[1:]
        ]
        return GeneratorBasis(capped)


def _rational(q):
    """``q`` as an int or a Fraction.  A float is refused: its binary
    rounding error would enter the exact arithmetic as a true value."""
    if isinstance(q, float):
        raise TypeError(f"float {q!r} in exact arithmetic; pass an int, a Fraction or a string")
    return q if q.__class__ is int or q.__class__ is Fraction else Fraction(q)


def _from_rationals(items: list) -> tuple[int, tuple]:
    """``(den, nums)`` of the sparse vector given as sorted ``(key, q)``
    pairs with q a nonzero int or Fraction.  With ``den`` the lcm of the
    reduced denominators, ``gcd(den, *nums)`` is already 1."""
    den = lcm(*[q.denominator for _, q in items])
    return den, tuple([(k, q.numerator * (den // q.denominator)) for k, q in items])


def _normalised(den: int, terms: dict) -> tuple[int, tuple]:
    """``(den, nums)`` of the map ``terms`` from key to numerator over
    ``den``: zeros dropped, keys sorted, the common factor divided out."""
    g = gcd(den, *terms.values())  # zeros do not change a gcd
    if g == 1:
        out = [kn for kn in terms.items() if kn[1]]
    else:
        out = [(k, n // g) for k, n in terms.items() if n]
    if not out:
        return 1, ()
    out.sort()
    return den // g, tuple(out)


def _combine(da: int, a: tuple, db: int, b: tuple, sign: int) -> tuple[int, tuple]:
    """``a/da + sign * b/db`` for two sparse integer vectors, normalised as
    :func:`_normalised` would: one merge of the two key-sorted tuples, and
    a ``gcd`` only over a denominator other than 1."""
    if da == db:
        ma, mb = 1, sign
    else:
        g = gcd(da, db)
        ma, mb = db // g, sign * da // g
    out = []
    append = out.append
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ka, na = a[i]
        kb, nb = b[j]
        if ka == kb:
            n = na * ma + nb * mb
            if n:
                append((ka, n))
            i += 1
            j += 1
        elif ka < kb:
            append((ka, na * ma))
            i += 1
        else:
            append((kb, nb * mb))
            j += 1
    if i < la:
        out += [(k, n * ma) for k, n in a[i:]]
    if j < lb:
        out += [(k, n * mb) for k, n in b[j:]]
    if not out:
        return 1, ()
    den = da * ma
    if den != 1:
        g = gcd(den, *[n for _, n in out])
        if g != 1:
            return den // g, tuple([(k, n // g) for k, n in out])
    return den, tuple(out)


def _add_into(acc: dict, m: int, nums) -> None:
    """Add m times the ``(key, n)`` numerators ``nums`` into the map
    ``acc`` from key to numerator."""
    get = acc.get
    for k, n in nums:
        acc[k] = get(k, 0) + n * m


def _sum(terms: list, add=_add_into) -> tuple[int, tuple]:
    """``(den, nums)`` of the sum of ``m * x / d`` over the ``(m, d, x)``
    terms, m an int, where ``add(acc, k, x)`` adds k times the numerators
    of x into ``acc``: every term goes in over the lcm of the denominators,
    and the sum is normalised once."""
    den = lcm(*[t[1] for t in terms])
    acc: dict = {}
    for m, d, x in terms:
        add(acc, m * (den // d), x)
    return _normalised(den, acc)


def _ratio(n: int, den: int) -> tuple[int, int]:
    """``n/den`` in lowest terms."""
    g = gcd(n, den)
    return n // g, den // g


class _Sparse:
    """The integer core shared by Weight and WedgeValue: a rational vector
    as integer numerators ``nums``, a sorted tuple of ``(key, n)`` with no
    zero n, over the positive denominator ``den``, with
    ``gcd(den, *n) == 1``.  So equal vectors have equal fields."""

    __slots__ = ("basis", "den", "nums", "_hash", "_sign")
    _noun = "vectors"  # for the basis-mismatch message

    @classmethod
    def _of(cls, basis: GeneratorBasis, den: int, nums: tuple):
        """Trusted constructor: ``(den, nums)`` is normalised already and
        every key is valid."""
        v = object.__new__(cls)
        v.basis = basis
        v.den = den
        v.nums = nums
        v._hash = v._sign = None
        return v

    @classmethod
    def combination(cls, basis: GeneratorBasis, terms):
        """The sum of ``m * v`` over the ``(int m, vector v)`` terms, every v
        over ``basis``; zero when there are no terms."""
        items = []
        for m, v in terms:
            if v.basis != basis:
                raise BasisMismatch(f"{cls._noun} over different bases")
            items.append((m, v.den, v.nums))
        return cls._of(basis, *_sum(items))

    def _as_fractions(self) -> tuple:
        den = self.den
        return tuple([(k, Fraction(n, den)) for k, n in self.nums])

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, self.__class__)
            and self.basis == other.basis
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.basis, self.den, self.nums))
        return h

    def _check_basis(self, other) -> None:
        if self.basis != other.basis:
            raise BasisMismatch(f"{self._noun} over different bases")

    def __add__(self, other):
        if self.basis is not other.basis:
            self._check_basis(other)
        v = self._of(self.basis, *_combine(self.den, self.nums, other.den, other.nums, 1))
        s = self._sign
        if s is not None and s == other._sign:  # like signs: see the module docstring
            v._sign = s
        return v

    def __sub__(self, other):
        if self.basis is not other.basis:
            self._check_basis(other)
        return self._of(self.basis, *_combine(self.den, self.nums, other.den, other.nums, -1))

    def __neg__(self):
        return self._of(self.basis, self.den, tuple([(k, -n) for k, n in self.nums]))

    def scale(self, q):
        """This vector times the rational ``q``."""
        q = _rational(q)
        p = q.numerator
        return self._of(self.basis, *_normalised(self.den * q.denominator, {k: n * p for k, n in self.nums}))


class Weight(_Sparse):
    """Sparse Q-linear combination over a basis, keyed by generator index.
    Immutable and hashable."""

    __slots__ = ()
    _noun = "weights"

    def __init__(self, basis: GeneratorBasis, coeffs: Mapping[int, Fraction]):
        items = []
        for i, c in coeffs.items():
            c = _rational(c)
            if c:
                if not 0 <= i < len(basis):
                    raise BasisMismatch(f"generator index {i} outside basis")
                items.append((i, c))
        items.sort()
        self.basis = basis
        self.den, self.nums = _from_rationals(items)
        self._hash = self._sign = None

    @classmethod
    def rational(cls, basis: GeneratorBasis, q) -> "Weight":
        return cls(basis, {0: q})

    @classmethod
    def generator(cls, basis: GeneratorBasis, name: str) -> "Weight":
        return cls._of(basis, 1, ((basis.index(name), 1),))

    coeffs = property(_Sparse._as_fractions, doc="The sorted ``(index, Fraction)`` pairs.")

    def _enclosure(self) -> tuple[int, int]:
        """The enclosure's numerators over ``den * basis._scale``."""
        mid, rad = self.basis._mid, self.basis._rad
        center = spread = 0
        for i, n in self.nums:
            center += n * mid[i]
            spread += abs(n) * rad[i]
        return center, spread

    def interval(self) -> tuple[Fraction, Fraction]:
        """Exact enclosure [lo, hi] of the real value."""
        center, spread = self._enclosure()
        scale = self.den * self.basis._scale
        return Fraction(center - spread, scale), Fraction(center + spread, scale)

    def sign(self) -> int:
        """NEGATIVE, ZERO or POSITIVE; raises PrecisionExhausted if undecided.

        Zero is structural (declared independence); otherwise the enclosure
        ``center +/- spread`` (see the module docstring) must exclude 0.  A
        decided sign is kept on the weight; an undecided one raises on
        every call.
        """
        s = self._sign
        if s is not None:
            return s
        nums = self.nums
        if not nums:
            s = ZERO
        elif len(nums) == 1 and nums[0][0] == 0:  # a rational
            s = POSITIVE if nums[0][1] > 0 else NEGATIVE
        else:
            center, spread = self._enclosure()
            if center > spread:
                s = POSITIVE
            elif center < -spread:
                s = NEGATIVE
            else:
                lo, hi = self.interval()
                raise PrecisionExhausted(
                    f"sign of {self} straddles 0 in [{lo}, {hi}] at declared precision"
                )
        self._sign = s
        return s

    def __repr__(self) -> str:
        if not self.nums:
            return "Weight(0)"
        parts = []
        for i, c in self.coeffs:
            name = self.basis.name(i)
            parts.append(str(c) if i == 0 else f"{c}*{name}")
        return "Weight(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        """Object mapping generator name -> "p/q", keys in basis order."""
        name, den = self.basis.name, self.den
        return {name(i): "%d/%d" % _ratio(n, den) for i, n in self.nums}


def weight_from_json(basis: GeneratorBasis, obj: Mapping[str, str]) -> Weight:
    """Inverse of Weight.to_json against a declared basis."""
    try:
        items = obj.items()
    except AttributeError:
        raise DslSemanticError(f"weight must be an object, got {obj!r}") from None
    coeffs = {}
    for name, text in items:
        try:
            i, digits = basis.index(str(name)), str(text)
            if "e" in digits or "E" in digits:  # an exponent's cost grows with its size
                raise ValueError
            coeffs[i] = Fraction(digits)
        except (ValueError, ZeroDivisionError):
            raise DslSemanticError(f"bad rational {text!r} for generator {name!r}") from None
    return Weight._of(basis, *_from_rationals(sorted([(i, q) for i, q in coeffs.items() if q])))


def weight_cmp(x: Weight, y: Weight) -> int:
    """Numeric comparison via the sign oracle: -1, 0 or +1."""
    return (x - y).sign()
