"""Wedge values: the antisymmetric pairing on weights."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foamcalc import (
    BasisMismatch,
    Generator,
    GeneratorBasis,
    TensorH1Value,
    Weight,
    WedgeValue,
    wedge,
)


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


def test_basis_mismatch(basis, basis3):
    u = WedgeValue(basis, {(0, 1): 1})
    v = WedgeValue(basis3, {(0, 1): 1})
    with pytest.raises(BasisMismatch):
        u + v


def test_tensor_value_arithmetic(w, basis):
    t = TensorH1Value([w("1"), w("1*r2")])
    z = TensorH1Value.zero(basis, 2)
    assert t + z == t
    assert not t.is_zero()
    assert z.is_zero()
    assert t.to_json() == [{"1": "1/1"}, {"r2": "1/1"}]
    with pytest.raises(BasisMismatch):
        t + TensorH1Value.zero(basis, 3)


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
    assert hash(got) == hash(want) == hash((want.basis, want.terms))


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
