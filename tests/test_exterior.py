"""Wedge values: the antisymmetric pairing on weights."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foamcalc import exterior, weights
from foamcalc import (
    AbelianGroupSpec,
    BasisMismatch,
    BracketSum,
    Generator,
    GeneratorBasis,
    GroupLabel,
    Iet,
    Label,
    Merge,
    Order,
    Split,
    TensorH1Value,
    Weight,
    WedgeValue,
    gamma,
    iet_closure,
    nu,
    theta,
    wedge,
    zerofoam_class,
)
from foamcalc.acceptance import demo_basis, rand_nonzero_weight, rand_positive_weight
from foamcalc.exterior import wedge_sum


def test_rational_wedge_rational_is_zero(w):
    assert wedge(w("3/4"), w("-7")).is_zero()


def test_hand_value(w, basis):
    # (1 + 2 r2) ^ (3 + 4 r2) = (1*4 - 2*3) (1 ^ r2) = -2 (1 ^ r2)
    got = wedge(w("1 + 2*r2"), w("3 + 4*r2"))
    assert got == WedgeValue(basis, {(0, 1): Fraction(-2)})
    assert got.to_json() == [{"left": "1", "right": "r2", "coeff": "-2/1"}]


def test_antisymmetry(w):
    a, b = w("1 + 1*r2"), w("5/2 - 3*r2")
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero()


def test_canonical_orientation(basis):
    # a term fed in as (j, i) with j > i is stored as -(i, j)
    assert WedgeValue(basis, {(1, 0): 1}) == WedgeValue(basis, {(0, 1): -1})
    assert WedgeValue(basis, {(1, 1): 7}).is_zero()


def test_generator_indices_must_lie_in_the_basis(basis):
    """As in a Weight, an index outside the basis is refused, never wrapped
    round to name another generator."""
    for pair in ((0, 9), (9, 0), (-1, 1)):
        with pytest.raises(BasisMismatch, match=r"^generator index (9|-1) outside basis$"):
            WedgeValue(basis, {pair: 1})
    assert WedgeValue(basis, {(0, 1): 1}).to_json() == [{"left": "1", "right": "r2",
                                                          "coeff": "1/1"}]


def test_basis_mismatch(basis, basis3):
    u = WedgeValue(basis, {(0, 1): 1})
    v = WedgeValue(basis3, {(0, 1): 1})
    with pytest.raises(BasisMismatch):
        u + v


def test_tensor_value_arithmetic(w, basis):
    t = TensorH1Value([w("1"), w("1*r2")])
    z = TensorH1Value([w("0"), w("0")])
    assert t == TensorH1Value([w("1"), w("1*r2")]) and t != z
    assert not t.is_zero()
    assert z.is_zero()
    assert t.to_json() == [{"1": "1/1"}, {"r2": "1/1"}]


_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bilinearity(data):
    basis = GeneratorBasis(
        [
            Generator("r2", "1.4142135623730951", 16),
            Generator("r3", "1.7320508075688772", 16),
        ]
    )
    ws = st.builds(
        lambda c0, c1, c2: Weight(basis, {0: c0, 1: c1, 2: c2}),
        _fracs,
        _fracs,
        _fracs,
    )
    a, b, c = data.draw(ws), data.draw(ws), data.draw(ws)
    q = data.draw(_fracs)
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
    assert wedge(a.scale(q), b) == wedge(a, b).scale(q)
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero()


def _public_wedge(basis, *terms):
    """The public constructor applied to the sum of ``(terms, factor)``."""
    acc = {}
    for pairs, q in terms:
        for k, c in pairs:
            acc[k] = acc.get(k, 0) + c * q
    return WedgeValue(basis, acc)


def _same_value(got, want):
    assert got.terms == want.terms
    assert all(c != 0 for _, c in got.terms)
    assert got == want and hash(got) == hash(want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wedge_arithmetic_matches_public_constructor(data):
    basis = GeneratorBasis(
        [Generator("r2", "1.41", 2), Generator("r3", "1.73", 2), Generator("r5", "2.23", 2)]
    )
    pairs = st.tuples(st.integers(0, 3), st.integers(0, 3))
    u = WedgeValue(basis, data.draw(st.dictionaries(pairs, _fracs, max_size=6)))
    v = WedgeValue(basis, data.draw(st.dictionaries(pairs, _fracs, max_size=6)))
    q = data.draw(_fracs)
    _same_value(u + v, _public_wedge(basis, (u.terms, 1), (v.terms, 1)))
    _same_value(u - v, _public_wedge(basis, (u.terms, 1), (v.terms, -1)))
    _same_value(-u, _public_wedge(basis, (u.terms, -1)))
    _same_value(u.scale(q), _public_wedge(basis, (u.terms, q)))
    assert (u - u).terms == () and u.scale(0).terms == ()
    sparse = st.dictionaries(st.integers(0, 3), _fracs, max_size=4)
    a, b = Weight(basis, data.draw(sparse)), Weight(basis, data.draw(sparse))
    expanded = {(i, j): ca * cb for i, ca in a.coeffs for j, cb in b.coeffs}
    _same_value(wedge(a, b), WedgeValue(basis, expanded))


# ------------------------------------------------------------- one sum


def test_wedge_sum_checks_the_basis(basis, basis3):
    a = Weight.generator(basis, "r2")
    b = Weight.generator(basis3, "r2")
    assert wedge_sum(basis, []) == WedgeValue.zero(basis)
    with pytest.raises(BasisMismatch):
        wedge_sum(basis, [(1, a, b)])
    with pytest.raises(BasisMismatch):
        wedge_sum(basis3, [(1, b, b), (1, a, b)])
    with pytest.raises(BasisMismatch):
        Weight.combination(basis, [(1, a), (1, b)])


def test_each_invariant_sum_normalises_once(monkeypatch):
    """nu, theta, the total of an Iet, the point class and each component of
    gamma put their terms over one denominator and gcd-normalise once."""
    rng = random.Random(14)
    basis = demo_basis("r2", "r3")
    lengths = [rand_positive_weight(rng, basis).scale(Fraction(1, k)) for k in (1, 2, 3, 5)]
    closure = iet_closure(Iet(lengths, [4, 2, 3, 1]))
    d = closure.replace_events([  # R-flags make the vertices count as well
        replace(e, order=Order.R) if isinstance(e, (Merge, Split)) else e
        for e in closure.events
    ])
    labelled = d.replace_events(
        d.events[:2] + (Label(1, GroupLabel((1, -2), ())), Label(2, GroupLabel((3, 1), ())))
        + d.events[2:]
    )
    s = BracketSum(basis, [(c, rand_nonzero_weight(rng, basis), rand_nonzero_weight(rng, basis))
                           for c in (1, -2, 3, 5)])
    points = [(1, x) for x in lengths] + [(-1, lengths[0])]
    calls = []

    def counted(real):
        def normalised(*args):
            calls.append(args)
            return real(*args)
        return normalised

    monkeypatch.setattr(weights, "_normalised", counted(weights._normalised))
    monkeypatch.setattr(exterior, "_normalised", counted(exterior._normalised))

    def normalisations(f, *args):
        calls.clear()
        value = f(*args)
        return len(calls), value

    count, value = normalisations(nu, d)
    assert count == 1 and len(value.nums) > 1
    assert normalisations(theta, s)[0] == 1
    assert normalisations(Iet, lengths, [2, 1, 4, 3])[0] == 1
    assert normalisations(zerofoam_class, points)[0] == 1
    count, (first, second) = normalisations(gamma, labelled, AbelianGroupSpec(2))
    assert count == 3 and second == value and not first.is_zero()
