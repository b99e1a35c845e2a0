"""Sliced foam diagrams and the nu invariant."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from foamcalc import (
    BasisMismatch,
    Cap,
    Cross,
    Cup,
    Dir,
    Document,
    Dot,
    DslSemanticError,
    FoamDiagram,
    GroupLabel,
    Iet,
    Label,
    Merge,
    NonPositiveWeight,
    OpenDiagram,
    Order,
    Split,
    Strand,
    UnsupportedDecoration,
    WedgeValue,
    circle,
    disjoint_union,
    event_to_json,
    iet_closure,
    mirror,
    nu,
    nu_events,
    print_document,
    saf,
    u_diagram,
    wedge,
    zerofoam_class,
)
from foamcalc.acceptance import demo_basis, rand_closed_diagram, rand_positive_weight

# ------------------------------------------------------------ slice rules


def test_split_then_merge_round_trip(w, basis):
    d = FoamDiagram(
        basis,
        [],
        [
            Cup(0, w("1 + 1*r2"), Dir.DOWN),
            Split(1, Order.L, w("1")),
            Merge(1, Order.L),
            Cap(0),
        ],
    )
    assert d.is_closed()
    assert [len(s) for s in d.slices] == [0, 2, 3, 2, 0]


def test_merge_needs_same_direction(w, basis):
    with pytest.raises(DslSemanticError):
        FoamDiagram(
            basis,
            [],
            [Cup(0, w("1"), Dir.UP), Merge(0, Order.L), Cap(0)],
        )


def test_split_parts_must_be_positive(w, basis):
    """The error keeps its class and names the failing event."""
    with pytest.raises(NonPositiveWeight, match=r"^event 1: right part of a split"):
        FoamDiagram(
            basis,
            [],
            [Cup(0, w("1"), Dir.DOWN), Split(1, Order.L, w("2"))],
        )


def test_cap_needs_equal_weights(w, basis):
    with pytest.raises(DslSemanticError):
        FoamDiagram(
            basis,
            [],
            [
                Cup(0, w("1 + 1*r2"), Dir.DOWN),
                Split(1, Order.L, w("1")),
                Cap(1),
            ],
        )


def test_event_errors_carry_index(w, basis):
    with pytest.raises(DslSemanticError) as exc_info:
        FoamDiagram(basis, [], [Cup(0, w("1"), Dir.UP), Dot(5)])
    assert "event 1" in str(exc_info.value)


# ------------------------------------------------------------ nu values


def test_u_diagram_value(w):
    a, b = w("1"), w("1*r2")
    assert nu(u_diagram(a, b)) == wedge(a, b)
    # a rationally dependent pair bounds: nu = 0
    assert nu(u_diagram(w("1"), w("3/2"))).is_zero()


def test_circle_is_trivial(w):
    assert nu(circle(w("2/3 + 5*r2"))).is_zero()


def test_closure_hand_value(w, basis):
    # cyclic shift: pieces 1 and 2 jump over piece 3, so
    # nu = l1^l3 + l2^l3 = 1^(1/2) + r2^(1/2) = -1/2 (1^r2)
    t = Iet([w("1"), w("1*r2"), w("1/2")], [2, 3, 1])
    d = iet_closure(t)
    assert nu(d) == WedgeValue(basis, {(0, 1): Fraction(-1, 2)})
    assert nu(d) == saf(t).scale(Fraction(1, 2))


def test_closure_of_swap(w):
    a, b = w("1"), w("1*r2")
    t = Iet([a, b], [2, 1])
    assert nu(iet_closure(t)) == wedge(a, b)
    assert nu(iet_closure(t)) == nu(u_diagram(a, b))


def test_mirror_negates(w):
    d = u_diagram(w("1"), w("1*r2"))
    assert nu(mirror(d)) == -nu(d)
    t = Iet([w("1"), w("1*r2"), w("1/2")], [3, 1, 2])
    c = iet_closure(t)
    assert nu(mirror(c)) == -nu(c)
    assert mirror(mirror(c)) == c
    # a foam together with its reflection bounds
    assert nu(disjoint_union(d, mirror(d))).is_zero()


def test_disjoint_union_adds(w):
    d = u_diagram(w("1"), w("1*r2"))
    e = iet_closure(Iet([w("1/2"), w("1*r2")], [2, 1]))
    assert nu(disjoint_union(d, e)) == nu(d) + nu(e)


def test_disjoint_union_over_different_bases_is_refused(w, w3):
    with pytest.raises(BasisMismatch, match="diagrams over different bases"):
        disjoint_union(circle(w("1")), circle(w3("1*r3")))


def test_nu_preconditions(w, basis):
    from foamcalc import Strand

    open_diag = FoamDiagram(basis, [Strand(w("1"), Dir.UP)], [])
    with pytest.raises(OpenDiagram):
        nu(open_diag)
    dotted = FoamDiagram(basis, [], [Cup(0, w("1"), Dir.UP), Dot(0), Cap(0)])
    with pytest.raises(UnsupportedDecoration):
        nu(dotted)


def test_nu_refuses_a_dot_and_a_label_together(w, basis):
    """One scan of the events finds either decoration; an open diagram is
    refused as open before its decorations are looked at."""
    g = GroupLabel((1,), ())
    both = [Cup(0, w("1"), Dir.UP), Label(0, g), Dot(1), Cap(0)]
    with pytest.raises(UnsupportedDecoration) as exc:
        nu(FoamDiagram(basis, [], both))
    assert str(exc.value) == "nu is defined for undecorated diagrams"
    with pytest.raises(OpenDiagram):
        nu(FoamDiagram(basis, [Strand(w("1"), Dir.UP)], [Dot(0), Label(0, g)]))


def test_crossing_direction_rule(w, basis):
    # parallel strands contribute left^right; antiparallel right^left
    a, b = w("1"), w("1*r2")

    def one_crossing(da, db):
        return nu_events(FoamDiagram(basis, [Strand(a, da), Strand(b, db)], [Cross(0)]))

    assert one_crossing(Dir.UP, Dir.UP) == wedge(a, b)
    assert one_crossing(Dir.DOWN, Dir.DOWN) == wedge(a, b)
    assert one_crossing(Dir.UP, Dir.DOWN) == wedge(b, a)
    assert one_crossing(Dir.DOWN, Dir.UP) == wedge(b, a)


def test_two_circles_crossing_twice(w, basis):
    # pushing one circle across another is a cobordism to the disjoint
    # pair, so the two crossings must cancel
    a, b = w("1"), w("1*r2")
    d = FoamDiagram(
        basis,
        [],
        [
            Cup(0, a, Dir.UP),
            Cup(2, b, Dir.UP),
            Cross(1),
            Cross(1),
            Cap(2),
            Cap(0),
        ],
    )
    assert nu(d).is_zero()


# ------------------------------------------------------------ nu reference


def reference_vertex(kind, order, d, x, y):
    """Local nu value of a merge/split with left thin weight x, right y:
    the table of the foamdiag docstring, one WedgeValue per vertex."""
    zero_order = Order.L if d is Dir.UP else Order.R
    if order is zero_order:
        return WedgeValue.zero(x.basis)
    if kind == "merge":
        return wedge(x, y)
    return wedge(y, x)


def reference_cross(a, b):
    if a.dir == b.dir:
        return wedge(a.weight, b.weight)
    return wedge(b.weight, a.weight)


def reference_nu(d):
    """nu_events term by term: one WedgeValue addition per event."""
    acc = WedgeValue.zero(d.basis)
    for cur, e in zip(d.slices, d.events):
        if isinstance(e, Merge):
            a, b = cur[e.pos], cur[e.pos + 1]
            acc = acc + reference_vertex("merge", e.order, a.dir, a.weight, b.weight)
        elif isinstance(e, Split):
            s = cur[e.pos]
            acc = acc + reference_vertex("split", e.order, s.dir, e.left, s.weight - e.left)
        elif isinstance(e, Cross):
            acc = acc + reference_cross(cur[e.pos], cur[e.pos + 1])
    return acc


def _with_random_flags(rng, d):
    """d with each vertex flag redrawn; the slices do not depend on them."""
    return d.replace_events([
        replace(e, order=rng.choice((Order.L, Order.R)))
        if isinstance(e, (Merge, Split)) else e
        for e in d.events
    ])


def _rand_walk(rng, basis):
    """Open diagram of random cups, crossings (antiparallel ones too),
    splits at third and quarter points, and merges of parallel pairs."""
    dirs, flags = (Dir.UP, Dir.DOWN), (Order.L, Order.R)
    start = [Strand(rand_positive_weight(rng, basis), rng.choice(dirs))
             for _ in range(rng.randint(0, 3))]
    d = FoamDiagram(basis, start, [])
    for _ in range(rng.randint(0, 12)):
        cur = d.slices[-1]
        kind = rng.randrange(4) if len(cur) >= 2 else 0
        if kind == 0:
            e = Cup(rng.randint(0, len(cur)), rand_positive_weight(rng, basis), rng.choice(dirs))
        elif kind == 1:
            e = Cross(rng.randrange(len(cur) - 1))
        elif kind == 2:
            p = rng.randrange(len(cur))
            e = Split(p, rng.choice(flags), cur[p].weight.scale(rng.choice(("1/3", "3/4"))))
        else:
            pairs = [p for p in range(len(cur) - 1) if cur[p].dir is cur[p + 1].dir]
            if not pairs:
                continue
            e = Merge(rng.choice(pairs), rng.choice(flags))
        d = d.spliced(len(d.events), 0, [e])
    return d


def test_nu_events_matches_the_term_by_term_sum():
    """Closed diagrams (mirrored ones among them), the same with random
    vertex flags, their lower and upper parts, and random open walks."""
    rng = random.Random(11)
    basis = demo_basis("r2", "r3")
    seen_nonzero = 0
    for _ in range(150):
        d = rand_closed_diagram(rng, basis)
        flagged = _with_random_flags(rng, d)
        k = rng.randint(0, len(d.events))
        lower = FoamDiagram(basis, [], d.events[:k])
        upper = FoamDiagram(basis, d.slices[k], d.events[k:])
        for x in (d, flagged, lower, upper, _rand_walk(rng, basis)):
            want = reference_nu(x)
            assert nu_events(x) == want
            if x.is_closed():
                assert nu(x) == want
            seen_nonzero += not want.is_zero()
    assert seen_nonzero > 250


def test_zerofoam_class_matches_iterated_addition():
    rng = random.Random(12)
    basis = demo_basis("r2", "r3")
    for _ in range(100):
        points = []
        for _ in range(rng.randint(1, 6)):
            x = rand_positive_weight(rng, basis).scale(Fraction(1, rng.randint(1, 6)))
            points.append((rng.choice((1, -1)), x))
        points += [(-sign, x) for sign, x in points if rng.random() < 0.3]  # cancelling pairs
        want = points[0][1] if points[0][0] == 1 else -points[0][1]
        for sign, x in points[1:]:
            want = want + x if sign == 1 else want - x
        assert zerofoam_class(points) == want


# ------------------------------------------------------------ event kinds


def _every_kind(w, basis):
    """An open diagram holding one event of each of the seven kinds."""
    return FoamDiagram(
        basis,
        [Strand(w("1"), Dir.UP)],
        [
            Cup(0, w("1 + 1*r2"), Dir.DOWN),
            Split(1, Order.L, w("1")),
            Cross(1),
            Dot(0),
            Label(2, GroupLabel((1, -2), (3,))),
            Merge(1, Order.R),
            Cap(0),
        ],
    )


def test_every_event_kind_json_and_text(w, basis):
    d = _every_kind(w, basis)
    assert [event_to_json(e) for e in d.events] == [
        {"event": "cup", "pos": 0, "weight": {"1": "1/1", "r2": "1/1"}, "dir": "d"},
        {"event": "split", "pos": 1, "order": "L", "left": {"1": "1/1"}},
        {"event": "cross", "pos": 1},
        {"event": "dot", "pos": 0},
        {"event": "label", "pos": 2, "free": [1, -2], "tors": [3]},
        {"event": "merge", "pos": 1, "order": "R"},
        {"event": "cap", "pos": 0},
    ]
    assert print_document(Document(basis, (("foam", "all", d),))) == (
        "basis {\n"
        "  r2 = 1.4142135623730951 digits 16;\n"
        "}\n"
        "foam all {\n"
        "  start [1:u];\n"
        "  cup 0 1+1*r2 d;\n"
        "  split 1 L 1;\n"
        "  cross 1;\n"
        "  dot 0;\n"
        "  label 2 (1,-2;3);\n"
        "  merge 1 R;\n"
        "  cap 0;\n"
        "  end;\n"
        "}\n"
    )


def test_mirror_of_every_event_kind(w, basis):
    d = _every_kind(w, basis)
    m = mirror(d)
    assert [event_to_json(e) for e in m.events] == [
        {"event": "cup", "pos": 1, "weight": {"1": "1/1", "r2": "1/1"}, "dir": "u"},
        {"event": "split", "pos": 1, "order": "L", "left": {"r2": "1/1"}},
        {"event": "cross", "pos": 1},
        {"event": "dot", "pos": 3},
        {"event": "label", "pos": 1, "free": [1, -2], "tors": [3]},
        {"event": "merge", "pos": 1, "order": "R"},
        {"event": "cap", "pos": 1},
    ]
    assert mirror(m) == d


# ------------------------------------------------------------ zero foams


def test_zerofoam_cancellation(w):
    x = w("5/7 + 2*r2")
    assert zerofoam_class([(1, x), (-1, x)]).is_zero()


def test_zerofoam_signed_sum(w):
    got = zerofoam_class([(1, w("1")), (1, w("1*r2")), (-1, w("1/2"))])
    assert got == w("1/2 + 1*r2")


def test_a_zerofoam_point_sign_must_be_an_integer(w):
    for sign in (1.0, -1.0, 1.5, "1"):
        with pytest.raises(TypeError):
            zerofoam_class([(sign, w("1"))])
    with pytest.raises(DslSemanticError, match="must be [+]1 or -1"):
        zerofoam_class([(2, w("1"))])


def test_zerofoam_needs_points():
    with pytest.raises(DslSemanticError, match="at least one point"):
        zerofoam_class([])
