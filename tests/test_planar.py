"""Unoriented planar foams, bracket sums, theta, and the classifier."""

import random
from fractions import Fraction

import pytest

from foamcalc import (
    POSITIVE,
    BasisMismatch,
    BracketSum,
    Document,
    DslSemanticError,
    FoamDiagram,
    Generator,
    GeneratorBasis,
    OpenDiagram,
    PCap,
    PCup,
    PMerge,
    PSplit,
    PlanarFoam,
    PrecisionExhausted,
    WedgeValue,
    Weight,
    bracket,
    bracket_make_positive,
    bracket_simplify,
    bracket_sum_make_positive,
    classify_bracket,
    event_to_json,
    foam_make_positive,
    planar_classify,
    print_document,
    psi_pair,
    standard_tripod,
    theta,
    tripod_decompose,
    verify_z4,
    wedge,
    weight_cmp,
)
from foamcalc import planar
from foamcalc.acceptance import demo_basis, rand_nonzero_weight, rand_signed_planar

# ------------------------------------------------------------- foams


def test_planar_slices_and_validity(w, basis):
    f = standard_tripod(w("1"), w("1*r2"))
    assert f.is_closed()
    assert f.all_positive()
    # strands may carry signed weights, but never zero ones
    signed = PlanarFoam(basis, [], [PCup(0, w("1")), PSplit(0, w("2")), PMerge(0), PCap(0)])
    assert not signed.all_positive()
    with pytest.raises(DslSemanticError):
        PlanarFoam(basis, [], [PCup(0, w("0"))])
    with pytest.raises(DslSemanticError):
        PlanarFoam(basis, [], [PCup(0, w("1")), PSplit(0, w("1"))])
    with pytest.raises(DslSemanticError) as exc_info:
        PlanarFoam(basis, [], [PCup(0, w("1")), PSplit(2, w("2"))])
    assert "event 1" in str(exc_info.value)


def test_planar_start_strands_must_be_nonzero(w, basis):
    assert PlanarFoam(basis, [w("-1"), w("1*r2")], []).start == (w("-1"), w("1*r2"))
    with pytest.raises(DslSemanticError, match=r"^start strand 1 must be nonzero$"):
        PlanarFoam(basis, [w("1"), w("0")], [])


def test_planar_and_oriented_diagrams_stay_apart(w, basis):
    """Both kinds share one sliced-diagram class, yet never compare equal."""
    assert FoamDiagram(basis, [], []) != PlanarFoam(basis, [], [])
    assert repr(FoamDiagram(basis, [], [])) == "FoamDiagram(0 start strands, 0 events)"
    assert repr(standard_tripod(w("1"), w("1*r2"))) == "PlanarFoam(0 start strands, 7 events)"


def test_tripod_decompose_hand_value(w, basis):
    a, b = w("1"), w("1*r2")
    got = tripod_decompose(standard_tripod(a, b))
    # one vertex term [a, b] plus three diagonal lollipop terms
    assert (1, a, b) in got.terms
    assert len(got.terms) == 4
    assert all(x == y for c, x, y in got.terms if (x, y) != (a, b))
    assert bracket_simplify(got) == bracket_simplify(bracket(basis, 1, a, b))


def test_theta_of_bracket(w, basis):
    a, b = w("1 + 1*r2"), w("3/2")
    assert theta(bracket(basis, -3, a, b)) == wedge(a, b).scale(-3)
    assert theta(tripod_decompose(standard_tripod(w("1"), w("1*r2")))) == wedge(
        w("1"), w("1*r2")
    )


def test_decompose_needs_closed_positive(w, basis):
    with pytest.raises(OpenDiagram):
        tripod_decompose(PlanarFoam(basis, [w("1")], []))


# ------------------------------------------------------------- simplifier


def test_simplify_orients_and_cancels(w, basis):
    a, b = w("1*r2"), w("1")  # lex order: r2 before 1 is false; 1 > r2
    s = bracket(basis, 1, b, a) + bracket(basis, 1, a, b)
    # [b,a] reorients to -[a,b] when b is lex-greater, so the sum cancels
    assert bracket_simplify(s).is_zero()
    assert classify_bracket(s).verdict == "ZeroBracket"


def test_simplify_drops_diagonal_and_zero(w, basis):
    s = bracket(basis, 5, w("1"), w("1")) + bracket(basis, 2, w("0"), w("1*r2"))
    assert bracket_simplify(s).is_zero()


def test_simplify_idempotent_on_random_sums(basis3):
    rng = random.Random(11)
    from foamcalc.acceptance import rand_bracket

    for _ in range(40):
        s = rand_bracket(rng, basis3)
        once = bracket_simplify(s)
        assert bracket_simplify(once) == once


# ------------------------------------------------------------- classifier


def test_commensurable_pairs_collapse(w):
    for sa, sq in [("1", "5/2"), ("3/4", "9/8"), ("1*r2", "3/2*1*r2")]:
        a, b = w(sa), w(sq)
        v = planar_classify(standard_tripod(a, b))
        assert v.verdict == "ZeroBracket", (sa, sq, v)


def test_incommensurable_pair_not_null(w):
    v = planar_classify(standard_tripod(w("1"), w("1*r2")))
    assert v.verdict == "NotNull"
    assert v.theta == wedge(w("1"), w("1*r2"))


def test_bilinearity_defect_is_unknown(w3, basis3):
    # [a, b+c] - [a, b] - [a, c] has theta zero but collapses to nothing
    # by the confluent subset: order at most two, honestly undecided
    a, b, c = w3("1*r2"), w3("1*r3"), w3("1")
    s = (
        bracket(basis3, 1, a, b + c)
        - bracket(basis3, 1, a, b)
        - bracket(basis3, 1, a, c)
    )
    v = classify_bracket(s)
    assert v.theta.is_zero()
    assert v.verdict == "Unknown"
    assert not v.residual.is_zero()


def test_euclid_bound_is_honest(w, basis):
    # (r2, 3 r2) needs two subtractions; with bound 1 the probe gives up
    # and the verdict degrades to Unknown, never to a false ZeroBracket
    s = bracket(basis, 1, w("1*r2"), w("3*r2"))
    assert classify_bracket(s).verdict == "ZeroBracket"
    assert classify_bracket(s, euclid_bound=1).verdict == "Unknown"
    # 10**6 has the one partial quotient 10**6: the bound is met exactly
    s = bracket(basis, 1, w("1"), w("1000000"))
    assert classify_bracket(s, euclid_bound=10**6).verdict == "ZeroBracket"
    assert classify_bracket(s, euclid_bound=10**6 - 1).verdict == "Unknown"


def reference_euclid(a, b, bound):
    """The subtractive loop: compare through the sign oracle, subtract the
    smaller entry from the larger, and count a comparison it cannot decide
    as a failed proof."""
    if a.sign() != POSITIVE or b.sign() != POSITIVE:
        return False
    try:
        for _ in range(bound):
            c = weight_cmp(a, b)
            if c == 0:
                return True
            if c > 0:
                a = a - b
            else:
                b = b - a
    except PrecisionExhausted:
        return False
    return False


def _quotient_sum(q):
    """The sum of the partial quotients of the positive rational q."""
    total = 0
    while q:
        whole = q.numerator // q.denominator
        total += whole
        q = q - whole
        q = 1 / q if q else 0
    return total


def _low_digit_basis(digits):
    return GeneratorBasis(
        [Generator("r2", "1.41421", digits), Generator("r3", "1.73205", digits)]
    )


def _positive_weight(rng, basis):
    """A random positive weight with mixed-sign coefficients, or None when
    its sign is not decided at the basis' precision."""
    coeffs = {
        i: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for i in range(len(basis))
    }
    x = Weight(basis, coeffs)
    try:
        s = x.sign()
    except PrecisionExhausted:
        return None
    return x if s == POSITIVE else (-x if s else None)


def test_euclid_rule_matches_the_subtractive_loop():
    """Commensurable pairs (q = 1, integers, fractions) at every bound from
    0 to the quotient sum + 1, and pairs of independent random weights,
    over 1-3 digit enclosures too, where the loop runs out of precision or
    of bound."""
    rng = random.Random(1207)
    qs = [Fraction(1), Fraction(2), Fraction(7), Fraction(1, 5)]
    checked = 0
    for digits in (1, 2, 3, 16):
        basis = demo_basis("r2", "r3") if digits == 16 else _low_digit_basis(digits)
        for k in range(60):
            a = _positive_weight(rng, basis)
            if a is None:
                continue
            q = qs[k] if k < len(qs) else Fraction(rng.randint(1, 40), rng.randint(1, 40))
            b = a.scale(q)
            for bound in range(_quotient_sum(q) + 2):
                assert planar._euclid_collapses(a, b, bound) == reference_euclid(a, b, bound), (a, q, bound)
                checked += 1
            c = _positive_weight(rng, basis)
            if c is None:
                continue
            for bound in range(12):
                assert planar._euclid_collapses(a, c, bound) == reference_euclid(a, c, bound), (a, c, bound)
                checked += 1
    assert checked > 3000


def test_euclid_rule_makes_no_comparison(w, monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return weight_cmp(x, y)

    monkeypatch.setattr(planar, "weight_cmp", counted)
    a = w("1/3*1*r2")
    assert planar._euclid_collapses(a, a.scale(1000), 1000)
    assert not planar._euclid_collapses(a, a.scale(1000), 999)
    assert bracket_simplify(bracket(a.basis, 1, a, a.scale(Fraction(355, 113)))).is_zero()
    assert calls == []


def _fraction_lex(x):
    dense = [Fraction(0)] * len(x.basis)
    for i, c in x.coeffs:
        dense[i] = c
    return tuple(dense)


def test_term_order_is_fraction_lex():
    """BracketSum sorts, and bracket_simplify orients, by the lexicographic
    order of the Fraction coefficient vectors, on rank 1-3 bases with
    mixed denominators."""
    rng = random.Random(1208)
    for names in ((), ("r2",), ("r2", "r3")):
        basis = demo_basis(*names)
        pool = []
        for _ in range(12):
            x = Weight(basis, {
                i: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6, 7)))
                for i in range(len(basis)) if rng.random() < 0.7
            })
            pool += [x, x.scale(rng.choice((2, Fraction(-1, 3))))]
        for x in pool:
            for y in pool:
                kx, ky = _fraction_lex(x), _fraction_lex(y)
                assert planar._lex_cmp(x, y) == (kx > ky) - (kx < ky), (x, y)
        for _ in range(40):
            terms = [(rng.randint(-3, 3), rng.choice(pool), rng.choice(pool)) for _ in range(8)]
            s = BracketSum(basis, terms)
            keys = [(_fraction_lex(a), _fraction_lex(b)) for _, a, b in s.terms]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            for _, a, b in bracket_simplify(s).terms:
                assert _fraction_lex(a) < _fraction_lex(b)


def test_bracket_sum_refuses_weights_over_another_basis(w, w3, basis, basis3):
    """Every weight of a bracket sum is over its basis, as in
    Weight.combination and wedge_sum; zero coefficients are no exception."""
    a, b, c = w("1"), w("1*r2"), w3("1*r3")
    for terms in ([(1, a, c)], [(1, c, b)], [(0, c, c)]):
        with pytest.raises(BasisMismatch, match="different bases"):
            BracketSum(basis, terms)
    with pytest.raises(BasisMismatch):
        bracket(basis, 1, a, b) + bracket(basis3, 1, w3("1"), c)
    assert BracketSum(basis, [(1, a, b)]) == bracket(basis, 1, a, b)


def test_integer_fields_refuse_fractions_and_floats(w, basis):
    a, b = w("1"), w("1*r2")
    with pytest.raises(TypeError):
        BracketSum(basis, [(0.5, a, b)])
    with pytest.raises(TypeError):
        bracket(basis, Fraction(3, 2), a, b)
    with pytest.raises(TypeError):
        bracket(basis, 1, a, b).scale(0.5)
    assert bracket(basis, 2, a, b) == bracket(basis, 1, a, b).scale(2)


def _every_kind(w, basis):
    """An open planar foam holding one event of each of the four kinds."""
    return PlanarFoam(
        basis,
        [w("1")],
        [PCup(0, w("1*r2")), PSplit(2, w("-1/2")), PMerge(2), PCap(0)],
    )


def test_every_event_kind_json_and_text(w, basis):
    f = _every_kind(w, basis)
    assert [event_to_json(e) for e in f.events] == [
        {"event": "cup", "pos": 0, "weight": {"r2": "1/1"}},
        {"event": "split", "pos": 2, "left": {"1": "-1/2"}},
        {"event": "merge", "pos": 2},
        {"event": "cap", "pos": 0},
    ]
    assert print_document(Document(basis, (("planarfoam", "all", f),))) == (
        "basis {\n"
        "  r2 = 1.4142135623730951 digits 16;\n"
        "}\n"
        "planarfoam all {\n"
        "  start [1];\n"
        "  cup 0 1*r2;\n"
        "  split 2 -1/2;\n"
        "  merge 2;\n"
        "  cap 0;\n"
        "  end;\n"
        "}\n"
    )


# ------------------------------------------------------------- positivity


def test_bracket_make_positive_hand_cases(w, basis):
    # mixed-sign symbol bends around the vertex: [3, -1] -> [1, 2]
    got = bracket_make_positive(1, w("3"), w("-1"))
    assert got == bracket(basis, 1, w("1"), w("2"))
    # both negative folds straight back to positive entries
    assert bracket_make_positive(2, w("-1"), w("-1*r2")) == bracket(
        basis, 2, w("1"), w("1*r2")
    )
    # a zero entry or an exactly opposite pair vanishes
    assert bracket_make_positive(1, w("0"), w("1")).is_zero()
    assert bracket_make_positive(1, w("1*r2"), w("-1*r2")).is_zero()


def test_bracket_make_positive_preserves_theta(w):
    pairs = [
        ("1*r2", "-1"),
        ("-1*r2", "1"),
        ("-3/2", "-1*r2"),
        ("1 + 1*r2", "-1/2*1*r2"),
        ("-2 + 1*r2", "1"),
    ]
    for c in (-2, 1, 3):
        for sa, sb in pairs:
            a, b = w(sa), w(sb)
            got = bracket_make_positive(c, a, b)
            assert theta(got) == wedge(a, b).scale(c), (c, sa, sb)
            assert all(
                x.sign() == 1 and y.sign() == 1 for _, x, y in got.terms
            )


def test_foam_make_positive(basis3):
    rng = random.Random(5)
    for _ in range(15):
        f = rand_signed_planar(rng, basis3)
        g = foam_make_positive(f)
        assert g.all_positive()
        v1, v2 = planar_classify(g).theta, theta(tripod_decompose(g))
        assert v1 == v2


def test_sum_make_positive_additive(w, basis):
    s = bracket(basis, 1, w("1*r2"), w("-1")) + bracket(basis, -1, w("-1"), w("2"))
    got = bracket_sum_make_positive(s)
    assert theta(got) == theta(s)


def test_theta_and_sum_make_positive_match_iterated_addition():
    """theta against one WedgeValue addition per term, and the bent sum
    against one BracketSum addition per term, on sums with mixed
    denominators and with terms that cancel."""
    rng = random.Random(13)
    basis = demo_basis("r2", "r3")
    for _ in range(150):
        terms = []
        for _ in range(rng.randint(0, 5)):
            a = rand_nonzero_weight(rng, basis).scale(Fraction(1, rng.randint(1, 5)))
            b = rand_nonzero_weight(rng, basis).scale(Fraction(1, rng.randint(1, 5)))
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            terms.append((c, a, b))
            if rng.random() < 0.3:
                terms.append((c, b, a))  # cancels a ^ b
            if rng.random() < 0.2:
                terms.append((1, a, a))  # theta of [a, a] is 0
        s = BracketSum(basis, terms)
        want = WedgeValue.zero(basis)
        for c, a, b in s.terms:
            want = want + wedge(a, b).scale(c)
        assert theta(s) == want
        bent = BracketSum.zero(basis)
        for c, a, b in s.terms:
            bent = bent + bracket_make_positive(c, a, b)
        assert bracket_sum_make_positive(s) == bent


# ------------------------------------------------------------- finite model


def test_z4_model():
    report = verify_z4()
    assert report["cocycle_ok"] == report["cocycle_total"] == 64
    assert report["pairs_ok"] is True
    assert report["bilin_ok"] is True
    assert report["psi_1_3"] == 1
    assert psi_pair(1, 3) == 1
    assert psi_pair(0, 2) == 0
    assert psi_pair(2, 2) == 0
    # psi kills diagonal and zero symbols, matching the relations
    for k in range(4):
        assert psi_pair(k, k) == 0
        assert psi_pair(0, k) == 0
