"""Decorated diagrams: flip elimination certificates and label invariants."""

import collections
import json
import random
import re

import pytest

from foamcalc import (
    AbelianGroupSpec,
    Cap,
    Cup,
    Dir,
    Dot,
    DslSemanticError,
    FoamDiagram,
    GroupLabel,
    Label,
    Merge,
    OpenDiagram,
    Order,
    SchemaMismatch,
    Split,
    Strand,
    TensorH1Value,
    UnsupportedDecoration,
    Weight,
    empty_diagram,
    flip_reduce,
    gamma,
    label_merge,
    label_split,
    nu,
    parse_document,
    trace_from_json,
    trace_to_json,
    u_diagram,
    validate_trace,
    wedge,
)
from foamcalc import cli
from foamcalc.acceptance import (
    demo_basis,
    rand_dotted_diagram,
    rand_labeled_diagram,
    rand_walk_diagram,
)

# ------------------------------------------------------------- flip traces


def test_empty_diagram_reduces_to_nothing(basis):
    d = empty_diagram(basis)
    assert flip_reduce(d) == []
    assert validate_trace(d, [])


def test_dotted_circle_reduces(w, basis):
    d = FoamDiagram(basis, [], [Cup(0, w("1 + 1*r2"), Dir.UP), Dot(0), Cap(0)])
    trace = flip_reduce(d)
    assert trace
    chk = validate_trace(d, trace)
    assert chk.ok and chk.steps == len(trace)


def test_nontrivial_nu_still_reduces_with_flips(w):
    # nu(U) is nonzero, so U bounds only once flips are in play
    d = u_diagram(w("1"), w("1*r2"))
    assert not nu(d).is_zero()
    assert validate_trace(d, flip_reduce(d))


def test_corrupted_trace_fails_at_the_right_step(w, basis):
    d = FoamDiagram(basis, [], [Cup(0, w("1"), Dir.UP), Dot(0), Cap(0)])
    trace = flip_reduce(d)
    bad = list(trace)
    bad[1] = type(bad[1])(bad[1].schema, 99, bad[1].params)
    chk = validate_trace(d, bad)
    assert not chk.ok
    assert chk.failed_at == 1
    assert chk.reason


def test_truncated_trace_misses_target(w, basis):
    d = FoamDiagram(basis, [], [Cup(0, w("1"), Dir.UP), Dot(0), Cap(0)])
    trace = flip_reduce(d)
    chk = validate_trace(d, trace[:-1])
    assert not chk.ok
    assert chk.failed_at == len(trace) - 1
    assert "target" in chk.reason


def test_trace_json_round_trip(w, basis):
    d = FoamDiagram(basis, [], [Cup(0, w("1*r2"), Dir.DOWN), Dot(1), Cap(0)])
    trace = flip_reduce(d)
    back = trace_from_json(basis, trace_to_json(trace))
    assert back == trace
    with pytest.raises(DslSemanticError):
        trace_from_json(basis, {"not": "a list"})


def test_flip_reduce_preconditions(w, basis):
    with pytest.raises(OpenDiagram):
        flip_reduce(FoamDiagram(basis, [Strand(w("1"), Dir.UP)], []))
    labeled = FoamDiagram(
        basis,
        [],
        [Cup(0, w("1"), Dir.UP), Label(0, GroupLabel((1,), ())), Cap(0)],
    )
    with pytest.raises(UnsupportedDecoration):
        flip_reduce(labeled)


@pytest.mark.parametrize("events, reason", [
    ("cup 0 1 u; cup 2 r2 u; cross 1; cross 1; cap 2; cap 0",
     "antiparallel crossing with distinct weights: outside the reducible braid-closure class"),
    ("cup 0 r2 d; cup 1 r2 u; cap 0; cap 0", "residual diagram is not a union of circles"),
    ("cup 0 1+r2 d; split 0 L 1/2+1/2*r2; split 2 L 1/2+1/2*r2; cap 1; cap 0",
     "split at 2 can neither cancel nor pass the event above it: "
     "outside the reducible braid-closure class"),
], ids=["antiparallel", "residual", "overlap"])
def test_flip_reduce_fails_outside_its_domain(capsys, tmp_path, events, reason):
    """Closed diagrams outside the reducible braid-closure class fail with
    SchemaMismatch, in the library and through the CLI."""
    text = (f"basis {{ r2 = 1.4142135623730951 digits 16; }}\n"
            f"foam x {{ start []; {events}; end; }}\n")
    d = parse_document(text).get("x")[1]
    with pytest.raises(SchemaMismatch) as exc:
        flip_reduce(d)
    assert str(exc.value) == reason
    path = tmp_path / "doc.dsl"
    path.write_text(text)
    assert cli.main(["flip-reduce", str(path), "x"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "schema-mismatch", "message": reason}


def test_flip_reduce_random_corpus():
    basis = demo_basis("r2", "r3")
    rng = random.Random(23)
    total_steps = 0
    for _ in range(25):
        d = rand_dotted_diagram(rng, basis)
        trace = flip_reduce(d)
        assert validate_trace(d, trace), trace
        total_steps += len(trace)
    assert total_steps > 25


def test_walk_diagrams_reduce_or_fail_with_a_pinned_text():
    """Walk diagrams reach beyond the braid-closure class.  Each reduces to
    a trace that validates, or fails with SchemaMismatch; the count of each
    outcome, the texts with their digits stripped, is pinned.  No draw is
    the empty diagram.  Making flip_reduce total on closed dotted diagrams
    moves these counts."""
    basis = demo_basis("r2", "r3")
    outcomes = collections.Counter()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(200):
            d = rand_walk_diagram(rng, basis)
            assert d.is_closed() and d.events
            try:
                trace = flip_reduce(d)
            except SchemaMismatch as exc:
                outcomes[re.sub(r"\d", "", str(exc))] += 1
                continue
            assert validate_trace(d, trace), trace
            outcomes["ok"] += 1
    outside = ": outside the reducible braid-closure class"
    assert outcomes == {
        "ok": 230,
        "residual diagram is not a union of circles": 143,
        "antiparallel crossing with distinct weights" + outside: 125,
        "split at  can neither cancel nor pass the event above it" + outside: 102,
    }


# ------------------------------------------------------------- gamma


def _labeled_circle(w, basis, labels):
    events = [Cup(0, w, Dir.UP)]
    events += [Label(0, g) for g in labels]
    events.append(Cap(0))
    return FoamDiagram(basis, [], events)


def test_gamma_hand_value(w, basis):
    spec = AbelianGroupSpec(1)
    d = _labeled_circle(
        w("1"), basis, [GroupLabel((2,), ()), GroupLabel((-1,), ())]
    )
    first, second = gamma(d, spec)
    assert first == TensorH1Value([w("1")])
    assert second.is_zero()


def test_gamma_keeps_nu_of_stripped_diagram(w, basis):
    d = u_diagram(w("1"), w("1*r2"))
    labeled = d.replace_events(
        list(d.events[:2]) + [Label(1, GroupLabel((1,), ()))] + list(d.events[2:])
    )
    first, second = gamma(labeled, AbelianGroupSpec(1))
    assert second == wedge(w("1"), w("1*r2"))


def test_gamma_torsion_is_invisible_to_the_free_part(w, basis):
    spec = AbelianGroupSpec(1, (2,))
    d = _labeled_circle(
        w("1*r2"), basis, [GroupLabel((3,), (1,)), GroupLabel((0,), (1,))]
    )
    first, _ = gamma(d, spec)
    assert first == TensorH1Value([w("3*r2")])


def test_gamma_reduces_labels_mod_torsion(w, basis):
    spec = AbelianGroupSpec(0, (3,))
    d = _labeled_circle(w("1"), basis, [GroupLabel((), (5,))])
    first, second = gamma(d, spec)
    assert first == TensorH1Value([])
    assert second.is_zero()


def test_gamma_preconditions(w, basis):
    with pytest.raises(OpenDiagram):
        gamma(FoamDiagram(basis, [Strand(w("1"), Dir.UP)], []), AbelianGroupSpec(1))
    dotted = FoamDiagram(basis, [], [Cup(0, w("1"), Dir.UP), Dot(0), Cap(0)])
    with pytest.raises(UnsupportedDecoration):
        gamma(dotted, AbelianGroupSpec(1))
    bad_shape = _labeled_circle(w("1"), basis, [GroupLabel((1, 2), ())])
    with pytest.raises(DslSemanticError):
        gamma(bad_shape, AbelianGroupSpec(1))


def test_group_label_refuses_non_integers():
    """int() would truncate (1.5,), (0.7,) to (1,), (0,)."""
    with pytest.raises(TypeError):
        GroupLabel((1.5,), (0,))
    with pytest.raises(TypeError):
        GroupLabel((1,), (0.7,))
    assert GroupLabel([2], [True]) == GroupLabel((2,), (1,))


def test_group_spec_refuses_non_integers():
    """A float rank used to be accepted and fail later, inside gamma."""
    with pytest.raises(TypeError):
        AbelianGroupSpec(1.5)
    with pytest.raises(TypeError):
        AbelianGroupSpec(1, (2.0,))
    assert AbelianGroupSpec(1, [3]).torsion == (3,)


# ------------------------------------------------------------- label moves


def test_label_merge_hand_case(w, basis):
    spec = AbelianGroupSpec(1)
    d = _labeled_circle(
        w("1"), basis, [GroupLabel((2,), ()), GroupLabel((-1,), ())]
    )
    merged = label_merge(d, 1)
    assert sum(isinstance(e, Label) for e in merged.events) == 1
    assert gamma(merged, spec) == gamma(d, spec)
    with pytest.raises(SchemaMismatch):
        label_merge(d, 0)


def test_label_split_through_merge_vertex(w, basis):
    a, b = w("1"), w("1*r2")
    spec = AbelianGroupSpec(1)
    d = FoamDiagram(
        basis,
        [],
        [
            Cup(0, a + b, Dir.DOWN),
            Split(1, Order.L, a),
            Merge(1, Order.L),
            Label(1, GroupLabel((1,), ())),
            Cap(0),
        ],
    )
    moved = label_split(d, 2)
    assert sum(isinstance(e, Label) for e in moved.events) == 2
    assert gamma(moved, spec) == gamma(d, spec)


def test_gamma_matches_iterated_addition():
    """Each free component against one Weight addition per label, with
    labels that cancel, and nu against the diagram without its labels."""
    rng = random.Random(32)
    basis = demo_basis("r2", "r3")
    for rank in (0, 1, 3):
        spec = AbelianGroupSpec(rank, (4,))
        for _ in range(30):
            d = rand_labeled_diagram(rng, basis, spec)
            s = rng.choice([s for s, sl in enumerate(d.slices) if sl])
            p = rng.randrange(len(d.slices[s]))
            g = GroupLabel(tuple(rng.randint(-3, 3) for _ in range(rank)), (1,))
            minus = GroupLabel(tuple(-n for n in g.free), (3,))
            d = d.spliced(s, 0, [Label(p, g), Label(p, minus)])  # cancelling pair
            want = [Weight(basis, {}) for _ in range(rank)]
            for cur, e in zip(d.slices, d.events):
                if isinstance(e, Label):
                    want = [x + cur[e.pos].weight.scale(n) for x, n in zip(want, e.g.free)]
            bare = d.replace_events([e for e in d.events if not isinstance(e, Label)])
            assert gamma(d, spec) == (TensorH1Value(want), nu(bare))


def test_label_moves_random_corpus():
    basis = demo_basis("r2")
    rng = random.Random(31)
    spec = AbelianGroupSpec(1, (2,))
    checked = 0
    for _ in range(20):
        d = rand_labeled_diagram(rng, basis, spec)
        base = gamma(d, spec)
        for k in range(len(d.events) - 1):
            for op in (label_merge, label_split):
                try:
                    moved = op(d, k)
                except SchemaMismatch:
                    continue
                assert gamma(moved, spec) == base, (op.__name__, k)
                checked += 1
    assert checked > 10
