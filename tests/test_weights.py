"""Weights: exact linear combinations over a declared generator basis."""

import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foamcalc import dsl, weights
from foamcalc import (
    BasisMismatch,
    DslSemanticError,
    Generator,
    GeneratorBasis,
    Iet,
    NEGATIVE,
    POSITIVE,
    PrecisionExhausted,
    Weight,
    WedgeValue,
    ZERO,
    flip_reduce,
    iet_closure,
    mirror,
    parse_weight,
    validate_trace,
    wedge,
    weight_cmp,
    weight_from_json,
)
from foamcalc.acceptance import _insert_dots, rand_positive_weight

# ---------------------------------------------------------------- basis


def test_unit_is_prepended(basis):
    assert basis.entries[0].name == "1"
    assert Weight.rational(basis, 3).interval() == (3, 3)  # the unit is exact
    assert len(basis) == 2


def test_enclosures_are_parsed_once(basis, monkeypatch):
    def no_parse(text):
        raise AssertionError("enclosure re-parsed")

    monkeypatch.setattr(weights, "_parse_decimal", no_parse)
    assert Weight.generator(basis, "r2").interval() == (
        Fraction("1.4142135623730951") - Fraction(1, 10**16),
        Fraction("1.4142135623730951") + Fraction(1, 10**16),
    )
    assert Weight.generator(basis, "r2").scale(-1).sign() == NEGATIVE


def test_generator_validation_checks_digits_first():
    with pytest.raises(DslSemanticError, match="x: digits must be positive"):
        GeneratorBasis([Generator("x", "not a number", 0)])
    with pytest.raises(DslSemanticError, match="x: digit count must be at most 4300"):
        GeneratorBasis([Generator("x", "not a number", 10**22)])
    with pytest.raises(ValueError, match="bad decimal literal"):
        GeneratorBasis([Generator("x", "1.2.3", 4)])


@pytest.mark.parametrize("enclosure", ["+1.5", " 1.5", ".5", "5.", "\u0661.\u0665"])
def test_an_enclosure_must_be_a_literal_the_format_writes(enclosure):
    """A midpoint is an optional minus, ASCII digits, then optionally a
    point and digits; anything else would print as a document that does
    not parse back, or parses back to another generator."""
    with pytest.raises(ValueError, match="bad decimal literal"):
        GeneratorBasis([Generator("x", enclosure, 3)])
    assert GeneratorBasis([Generator("x", "-1.5", 3)]).entries[1].enclosure == "-1.5"


def test_digit_count_bound():
    assert weights.MAX_DIGITS == 4300
    at_bound = GeneratorBasis([Generator("x", "1.5", weights.MAX_DIGITS)])
    lo, hi = Weight.generator(at_bound, "x").interval()
    assert hi - lo == Fraction(2, 10**4300)


def test_duplicate_generator_names_rejected():
    g = Generator("x", "2.5", 4)
    with pytest.raises(DslSemanticError):
        GeneratorBasis([g, g])


def test_unknown_generator_name(basis):
    with pytest.raises(DslSemanticError):
        basis.index("r3")


def test_index_name_round_trip(basis3):
    for i in range(len(basis3)):
        assert basis3.index(basis3.name(i)) == i


def test_precision_cap_must_be_positive(basis):
    with pytest.raises(DslSemanticError):
        basis.with_precision_cap(0)


def test_precision_cap_only_widens(basis):
    capped = basis.with_precision_cap(2)
    assert capped.entries[1].digits == 2
    # capping above the declared precision changes nothing
    assert basis.with_precision_cap(30) == basis


# ------------------------------------------------------------ arithmetic


def test_structural_zero(w):
    x = w("1 + 1*r2")
    assert (x - w("1") - w("1*r2")).is_zero()
    assert x.sign() == POSITIVE


def test_coeffs_are_sorted_and_sparse(w):
    x = w("3*r2 - 3*r2 + 1/2")
    assert x.coeffs == ((0, Fraction(1, 2)),)


def test_sign_of_irrational_combination(w):
    # r2 = 1.414... so r2 - 7/5 is positive but close to zero
    assert w("1*r2 - 7/5").sign() == POSITIVE
    assert w("7/5 - 1*r2").sign() == NEGATIVE
    assert w("0").sign() == ZERO


def test_sign_straddle_raises(basis):
    # at one digit the enclosure is 1.4 +/- 0.1, which straddles 7/5
    capped = basis.with_precision_cap(1)
    x = Weight.generator(capped, "r2") - Weight.rational(capped, Fraction(7, 5))
    with pytest.raises(PrecisionExhausted) as exc_info:
        x.sign()
    assert str(exc_info.value) == (
        "sign of Weight(-7/5 + 1*r2) straddles 0 in "
        "[-857864376269049/10000000000000000, "
        "1142135623730951/10000000000000000] at declared precision"
    )


def test_decided_sign_builds_no_fraction(w3, monkeypatch):
    x = w3("1/3 + 2/7*r2 - 5/11*r3")  # about -0.05
    y = -x
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def no_interval(self):
        raise AssertionError("interval() called for a decided sign")

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(Weight, "interval", no_interval)
    assert x.sign() == NEGATIVE
    assert y.sign() == POSITIVE
    monkeypatch.undo()
    assert made == []


class _CountedReads(tuple):
    """A tuple that counts the items read from it."""

    reads = 0

    def __getitem__(self, i):
        _CountedReads.reads += 1
        return tuple.__getitem__(self, i)


def test_decided_sign_is_kept_and_undecided_is_not(basis, monkeypatch):
    """A second sign() of a weight reads no enclosure; an undecided sign
    raises the same message on every call and is never stored."""
    monkeypatch.setattr(_CountedReads, "reads", 0)
    monkeypatch.setattr(basis, "_mid", _CountedReads(basis._mid))
    x = Weight.generator(basis, "r2") - Weight.rational(basis, Fraction(7, 5))
    assert x.sign() == POSITIVE
    first = _CountedReads.reads
    assert first > 0
    assert x.sign() == POSITIVE and _CountedReads.reads == first

    capped = basis.with_precision_cap(1)
    monkeypatch.setattr(capped, "_mid", _CountedReads(capped._mid))
    y = Weight.generator(capped, "r2") - Weight.rational(capped, Fraction(7, 5))
    messages = []
    for _ in range(2):
        reads = _CountedReads.reads
        with pytest.raises(PrecisionExhausted) as exc_info:
            y.sign()
        assert _CountedReads.reads > reads  # read again: nothing was stored
        messages.append(str(exc_info.value))
    assert messages[0] == messages[1] and y._sign is None


def test_the_flip_path_computes_no_enclosure(basis, monkeypatch):
    """flip_reduce and validate_trace of dotted and mirrored IET closures
    read no generator midpoint: every sign they ask for is kept on its
    weight, or carried by a sum of like-signed weights, or read off the
    slice that a vertex rewrite keeps."""
    rng = random.Random(5)
    diagrams = []
    for r in range(3, 10):
        perm = list(range(1, r + 1))
        rng.shuffle(perm)
        d = iet_closure(Iet([rand_positive_weight(rng, basis) for _ in range(r)], perm))
        d = _insert_dots(rng, d, r % 4)
        diagrams.append(mirror(d) if r % 3 == 0 else d)
    monkeypatch.setattr(_CountedReads, "reads", 0)
    monkeypatch.setattr(basis, "_mid", _CountedReads(basis._mid))
    steps = 0
    for d in diagrams:
        trace = flip_reduce(d)
        check = validate_trace(d, trace)
        assert check.ok and check.steps == len(trace)
        steps += len(trace)
    assert steps > 400
    assert _CountedReads.reads == 0


def test_mixed_bases_rejected(basis, basis3):
    a = Weight.rational(basis, 1)
    b = Weight.rational(basis3, 1)
    with pytest.raises(BasisMismatch):
        a + b


def test_cmp_total_order(w):
    xs = [w("0"), w("1"), w("1*r2"), w("3/2"), w("1*r2 - 7/5")]
    ordered = sorted(xs, key=lambda x: x.interval()[0])
    for a, b in zip(ordered, ordered[1:]):
        assert weight_cmp(a, b) == -1
        assert weight_cmp(b, a) == 1
        assert weight_cmp(a, a) == 0


def test_json_round_trip(w, basis):
    x = w("-2/3 + 5*r2")
    assert weight_from_json(basis, x.to_json()) == x


def test_from_json_rejects_garbage(basis):
    with pytest.raises(DslSemanticError):
        weight_from_json(basis, {"r2": "not-a-number"})
    with pytest.raises(DslSemanticError):
        weight_from_json(basis, {"nope": "1"})
    with pytest.raises(DslSemanticError):
        weight_from_json(basis, "1/2")


@pytest.mark.parametrize("text", ["1e-3000000", "1E5", "2.5e1", "1/1e2", "-3e0"])
def test_from_json_refuses_exponents(basis, text):
    """An exponent's cost grows faster than its size, so a coefficient
    written with one is a bad rational, however small the exponent."""
    with pytest.raises(DslSemanticError) as exc:
        weight_from_json(basis, {"r2": text})
    assert str(exc.value) == f"bad rational {text!r} for generator 'r2'"


def test_from_json_reads_integers_fractions_and_decimals(basis):
    got = weight_from_json(basis, {"1": "-3", "r2": "0.25"})
    assert got == weight_from_json(basis, {"1": "-6/2", "r2": "1/4"})
    assert got.to_json() == {"1": "-3/1", "r2": "1/4"}


# ------------------------------------------------------- properties

_fracs = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def _weights(draw_basis):
    return st.builds(
        lambda c0, c1, c2: Weight(draw_basis, {0: c0, 1: c1, 2: c2}),
        _fracs,
        _fracs,
        _fracs,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ring_laws(data):
    basis = GeneratorBasis(
        [
            Generator("r2", "1.4142135623730951", 16),
            Generator("r3", "1.7320508075688772", 16),
        ]
    )
    ws = _weights(basis)
    x, y, z = data.draw(ws), data.draw(ws), data.draw(ws)
    q = data.draw(_fracs)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x + y).scale(q) == x.scale(q) + y.scale(q)
    assert x - x == Weight(basis, {})
    assert (-x).sign() == -x.sign()
    assert weight_from_json(basis, x.to_json()) == x


def _decimal_text(n: int, decimals: int) -> str:
    """n / 10**decimals written as a plain decimal literal."""
    body = str(abs(n)).rjust(decimals + 1, "0")
    if decimals:
        body = body[:-decimals] + "." + body[-decimals:]
    return ("-" if n < 0 else "") + body


@st.composite
def _any_basis(draw):
    """1 to 3 generators with mixed digit counts and midpoints of either
    sign, with more or fewer decimals than digits; sometimes capped."""
    gens = []
    for k in range(draw(st.integers(1, 3))):
        decimals = draw(st.integers(0, 25))
        n = draw(st.integers(-(10 ** (decimals + 2)), 10 ** (decimals + 2)))
        gens.append(Generator(f"g{k}", _decimal_text(n, decimals), draw(st.integers(1, 30))))
    basis = GeneratorBasis(gens)
    cap = draw(st.none() | st.integers(1, 30))
    return basis if cap is None else basis.with_precision_cap(cap)


_coeffs = st.fractions(max_denominator=10**6) | st.integers(-3, 3)


@st.composite
def _weight_on(draw, basis):
    coeffs = {i: draw(_coeffs) for i in range(len(basis))}
    if draw(st.booleans()):
        # near-cancelling: move the unit coefficient to within 10^-k of
        # minus the rest at its midpoint or at an end of its enclosure
        coeffs[0] = 0
        lo, hi = Weight(basis, coeffs).interval()
        anchor = draw(st.sampled_from([lo, hi, (lo + hi) / 2]))
        k = draw(st.integers(0, 40))
        coeffs[0] = -anchor + Fraction(draw(st.integers(-9, 9)), 10**k)
    return Weight(basis, coeffs)


def _sign_outcome(x):
    try:
        return x.sign()
    except PrecisionExhausted as exc:
        return str(exc)


def _interval_outcome(x):
    """The sign as the Fraction enclosure decides it, or the exact
    PrecisionExhausted message."""
    if x.is_zero():
        return ZERO
    lo, hi = x.interval()
    if lo > 0:
        return POSITIVE
    if hi < 0:
        return NEGATIVE
    return f"sign of {x} straddles 0 in [{lo}, {hi}] at declared precision"


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_sign_agrees_with_interval(data):
    basis = data.draw(_any_basis())
    x = data.draw(_weight_on(basis))
    assert _sign_outcome(x) == _interval_outcome(x)
    assert _sign_outcome(-x) == _interval_outcome(-x)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_sum_of_like_decided_signs_keeps_that_sign(data):
    """a + b holds a sign exactly where a and b hold the same decided sign,
    and it is the sign that the oracle decides for a fresh copy of the sum,
    which never raises, also over bases capped at 1 to 3 digits.  A sum
    with an undecided operand holds none, and neither does a sum of wedge
    values."""
    basis = data.draw(_any_basis())
    if data.draw(st.booleans()):
        basis = basis.with_precision_cap(data.draw(st.integers(1, 3)))
    a, b = data.draw(_weight_on(basis)), data.draw(_weight_on(basis))
    for x in (a, b):
        if data.draw(st.booleans()):
            _sign_outcome(x)  # decides and keeps the sign, unless it straddles 0
    s = a + b
    kept = a._sign if a._sign is not None and a._sign == b._sign else None
    assert s._sign == kept
    if kept is not None:
        assert Weight._of(basis, s.den, s.nums).sign() == kept
    assert (wedge(a, b) + wedge(b, a))._sign is None


def _public(basis, *terms):
    """The public constructor applied to the sum of ``(coeffs, factor)``."""
    acc = {}
    for coeffs, q in terms:
        for i, c in coeffs:
            acc[i] = acc.get(i, 0) + c * q
    return Weight(basis, acc)


def _same_weight(got, want):
    assert got.coeffs == want.coeffs
    assert all(c != 0 for _, c in got.coeffs)
    assert got == want and hash(got) == hash(want)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_public_constructor(data):
    basis = GeneratorBasis(
        [Generator("r2", "1.41", 2), Generator("r3", "1.73", 2), Generator("r5", "2.23", 2)]
    )
    sparse = st.dictionaries(st.integers(0, 3), _fracs, max_size=4)
    a = Weight(basis, data.draw(sparse))
    b = Weight(basis, data.draw(sparse))
    q = data.draw(_fracs)
    _same_weight(a + b, _public(basis, (a.coeffs, 1), (b.coeffs, 1)))
    _same_weight(a - b, _public(basis, (a.coeffs, 1), (b.coeffs, -1)))
    _same_weight(-a, _public(basis, (a.coeffs, -1)))
    _same_weight(a.scale(q), _public(basis, (a.coeffs, q)))
    assert (a - a).coeffs == () and a.scale(0).coeffs == ()
    assert hash(basis) == hash(basis.entries)


def _dict_reference(x, y, sign):
    """``(den, nums)`` of ``x + sign * y`` summed in a dict of Fractions:
    keys sorted, zeros dropped, over the lcm of the reduced denominators."""
    acc = {}
    for v, m in ((x, 1), (y, sign)):
        for k, c in v._as_fractions():
            acc[k] = acc.get(k, 0) + m * c
    items = sorted((k, c) for k, c in acc.items() if c)
    den = lcm(*[c.denominator for _, c in items])
    return den, tuple((k, c.numerator * (den // c.denominator)) for k, c in items)


_SUM_BASIS = GeneratorBasis([Generator(f"g{k}", "1.5", 2) for k in range(4)])
_SUM_KEYS = {Weight: list(range(5)), WedgeValue: [(i, j) for i in range(5) for j in range(i + 1, 5)]}


@pytest.mark.parametrize("cls", [Weight, WedgeValue])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sum_is_one_merge_matching_a_dict_sum(cls, data):
    """``+`` and ``-`` of weights and of wedge values equal a sum in a dict
    of Fractions: on arbitrary, disjoint and shared keys, where every term
    or some terms cancel, and over unequal denominators."""
    keys = _SUM_KEYS[cls]
    a = data.draw(st.dictionaries(st.sampled_from(keys), _fracs, max_size=6))
    sign = data.draw(st.sampled_from((1, -1)))
    shape = data.draw(st.sampled_from(("any", "disjoint", "cancel", "partial")))
    if shape == "disjoint":
        rest = [k for k in keys if k not in a]
        b = data.draw(st.dictionaries(st.sampled_from(rest), _fracs, max_size=6)) if rest else {}
    else:
        b = data.draw(st.dictionaries(st.sampled_from(keys), _fracs, max_size=6))
    if shape in ("cancel", "partial"):
        kept = a if shape == "cancel" else data.draw(st.sets(st.sampled_from(keys))) & a.keys()
        b = {k: c for k, c in b.items() if shape == "partial" and k not in kept}
        b |= {k: -sign * a[k] for k in kept}
    else:
        q = Fraction(data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)))
        b = {k: c * q for k, c in b.items()}
    x, y = cls(_SUM_BASIS, a), cls(_SUM_BASIS, b)
    got = x + y if sign == 1 else x - y
    assert (got.den, got.nums) == _dict_reference(x, y, sign)
    _integer_form(got)
    if shape == "cancel":
        assert got.is_zero() and (got.den, got.nums) == (1, ())


def _integer_form(v):
    """The stored form: positive den, sorted keys, no zero numerator, no
    common factor, and zero as (1, ())."""
    assert v.den.__class__ is int and v.den > 0
    keys = [k for k, _ in v.nums]
    assert keys == sorted(set(keys))
    assert all(n.__class__ is int and n != 0 for _, n in v.nums)
    assert gcd(v.den, *[n for _, n in v.nums]) == 1
    if v.is_zero():
        assert (v.den, v.nums) == (1, ())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_form_is_normalised(data):
    basis = GeneratorBasis([Generator("r2", "1.41", 2), Generator("r3", "1.73", 2)])
    sparse = st.dictionaries(st.integers(0, 2), _fracs | st.integers(-4, 4), max_size=3)
    a = Weight(basis, data.draw(sparse))
    b = Weight(basis, data.draw(sparse))
    q = data.draw(_fracs | st.integers(-4, 4))
    text = dsl.weight_to_text(a) + " - (" + dsl.weight_to_text(b) + ")*" + str(q)
    for v in (a, b, a + b, a - b, -a, a - a, a.scale(q), a.scale(0),
              wedge(a, b), wedge(a, b) + wedge(b, a), wedge(a, b).scale(q),
              parse_weight(text, basis), weight_from_json(basis, a.to_json())):
        _integer_form(v)
    assert parse_weight(text, basis) == a - b.scale(q)


def test_arithmetic_builds_no_fraction(w3, monkeypatch):
    a = w3("1/3 + 2/7*r2 - 5/11*r3")
    b = w3("-3/4 + 1/6*r2 + 5/11*r3")
    u, v = wedge(a, b), wedge(b, w3("1/5*r3"))
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    results = [a + b, a - b, -a, wedge(a, b), u + v, u - v]
    monkeypatch.undo()
    assert made == []
    assert results[0] == w3("-5/12 + 19/42*r2")
    assert results[4] == u + v


def test_floats_are_refused(basis):
    """A float would carry its binary rounding into the exact arithmetic."""
    with pytest.raises(TypeError, match="float"):
        Weight(basis, {0: 0.1})
    with pytest.raises(TypeError, match="float"):
        Weight.rational(basis, 0.1)
    with pytest.raises(TypeError, match="float"):
        Weight.generator(basis, "r2").scale(0.1)
    with pytest.raises(TypeError, match="float"):
        WedgeValue(basis, {(0, 1): 0.3})
    with pytest.raises(TypeError, match="float"):
        WedgeValue(basis, {(0, 1): 1}).scale(0.5)
    assert Weight(basis, {0: "0.1"}) == Weight.rational(basis, Fraction(1, 10))


def test_equal_values_hash_equal_at_the_hash_modulus(basis):
    """Equal values hash equal, whether built by the constructor or by
    arithmetic, also when a denominator is a multiple of the prime modulus
    of Python's rational hash (which has no inverse modulo it)."""
    p = sys.hash_info.modulus
    for coeffs in ({0: Fraction(1, p), 1: Fraction(1, 3)}, {0: Fraction(-5, 2 * p)}, {1: -1}):
        x = Weight(basis, coeffs)
        y = Weight(basis, {i: 2 * c for i, c in coeffs.items()}).scale(Fraction(1, 2))
        z = Weight(basis, {i: c + 1 for i, c in coeffs.items()}) - Weight(basis, dict.fromkeys(coeffs, 1))
        assert x == y == z and hash(x) == hash(y) == hash(z)
    u = WedgeValue(basis, {(0, 1): Fraction(-1, p)})
    v = WedgeValue(basis, {(1, 0): Fraction(3, 3 * p)}) + WedgeValue.zero(basis)
    assert u == v and hash(u) == hash(v)
    assert hash(Weight(basis, {0: Fraction(1, p)})) != hash(Weight(basis, {0: Fraction(2, p)}))
