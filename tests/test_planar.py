"""Unoriented planar foams, bracket sums, theta, and the classifier."""

import random

import pytest

from foamcalc import (
    BracketSum,
    Document,
    DslSemanticError,
    FoamDiagram,
    OpenDiagram,
    PCap,
    PCup,
    PMerge,
    PSplit,
    PlanarFoam,
    bracket,
    bracket_make_positive,
    bracket_simplify,
    bracket_sum_make_positive,
    classify_bracket,
    foam_make_positive,
    mirror_planar,
    pevent_to_json,
    planar_classify,
    print_document,
    psi_pair,
    standard_tripod,
    theta,
    tripod_decompose,
    verify_z4,
    wedge,
)
from foamcalc.acceptance import demo_basis, rand_signed_planar

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


# ------------------------------------------------------------- mirror


def test_planar_mirror_swaps_brackets(w):
    a, b = w("1"), w("1*r2")
    f = standard_tripod(a, b)
    m = mirror_planar(f)
    assert tripod_decompose(m) == tripod_decompose(f).swap()
    assert theta(tripod_decompose(m)) == -theta(tripod_decompose(f))


def _every_kind(w, basis):
    """An open planar foam holding one event of each of the four kinds."""
    return PlanarFoam(
        basis,
        [w("1")],
        [PCup(0, w("1*r2")), PSplit(2, w("-1/2")), PMerge(2), PCap(0)],
    )


def test_every_event_kind_json_and_text(w, basis):
    f = _every_kind(w, basis)
    assert [pevent_to_json(e) for e in f.events] == [
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


def test_mirror_of_every_event_kind(w, basis):
    f = _every_kind(w, basis)
    m = mirror_planar(f)
    assert [pevent_to_json(e) for e in m.events] == [
        {"event": "cup", "pos": 1, "weight": {"r2": "1/1"}},
        {"event": "split", "pos": 0, "left": {"1": "3/2"}},
        {"event": "merge", "pos": 0},
        {"event": "cap", "pos": 1},
    ]
    assert mirror_planar(m) == f


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
