"""Local moves: every enumerable move preserves nu.

The deterministic fuzz loop doubles as a coverage check: over the fixed
seeds, every nu-preserving schema must fire at least once, so a schema
whose matcher silently stops matching fails the suite.
"""

import random

import pytest

from foamcalc import foamdiag
from foamcalc import (
    Cap,
    Cross,
    Cup,
    Dir,
    Dot,
    DslSemanticError,
    FoamDiagram,
    FoamError,
    Iet,
    Merge,
    MoveInstance,
    NU_SCHEMAS,
    NonPositiveWeight,
    Order,
    PCap,
    PCup,
    PMerge,
    PSplit,
    SchemaMismatch,
    Split,
    Weight,
    apply_move,
    enumerate_moves,
    flip_reduce,
    iet_closure,
    mirror,
    move_from_json,
    nu,
    u_diagram,
    validate_trace,
)
from foamcalc.acceptance import (
    _insert_dots,
    demo_basis,
    rand_closed_diagram,
    rand_positive_weight,
    rand_signed_planar,
)


def _hand_corpus(basis):
    a = Weight.rational(basis, 1)
    b = Weight.generator(basis, "r2")
    curl = FoamDiagram(basis, [], [Cup(0, a, Dir.UP), Cross(0), Cap(0)])
    double = FoamDiagram(
        basis,
        [],
        [Cup(0, a, Dir.UP), Cup(2, b, Dir.UP), Cross(1), Cross(1), Cap(2), Cap(0)],
    )
    return [curl, double]


def test_moves_preserve_nu_and_cover_schemas():
    basis = demo_basis("r2", "r3")
    rng = random.Random(97)
    seen = set()
    checked = 0
    corpus = _hand_corpus(basis)
    corpus += [rand_closed_diagram(rng, basis) for _ in range(60)]
    for d in corpus:
        base = nu(d)
        for m in enumerate_moves(d):
            seen.add(m.schema)
            got = apply_move(d, m)
            assert nu(got) == base, (m.schema, m.index)
            checked += 1
    assert checked > 500
    assert seen == set(NU_SCHEMAS), sorted(set(NU_SCHEMAS) - seen)


def test_apply_move_rejects_wrong_location(w):
    d = u_diagram(w("1"), w("1*r2"))
    with pytest.raises(SchemaMismatch):
        apply_move(d, MoveInstance("r2", 0))
    with pytest.raises(SchemaMismatch):
        apply_move(d, MoveInstance("circle_death", 99))
    with pytest.raises(SchemaMismatch):
        apply_move(d, MoveInstance("no-such-schema", 0))


def test_enumerated_moves_apply_on_mirrored_diagrams(w):
    d = mirror(u_diagram(w("1"), w("1*r2")))
    base = nu(d)
    moves = enumerate_moves(d)
    assert moves
    for m in moves:
        assert nu(apply_move(d, m)) == base


def test_move_json_round_trip(w, basis):
    m = MoveInstance("saddle", 3, {"weight": w("1 + 1*r2"), "side": "L"})
    back = move_from_json(basis, m.to_json())
    assert back == m
    with pytest.raises(Exception):
        move_from_json(basis, {"schema": "saddle"})


# ---------------------------------------------- splices against full rebuilds


def _rebuilt(d):
    return FoamDiagram(d.basis, d.start, d.events)


def _dotted_closure(rng, basis, r, dots, mirrored):
    lengths = [rand_positive_weight(rng, basis) for _ in range(r)]
    perm = list(range(1, r + 1))
    rng.shuffle(perm)
    d = _insert_dots(rng, iet_closure(Iet(lengths, perm)), dots)
    return mirror(d) if mirrored else d


def test_flip_reduce_steps_match_full_rebuilds():
    basis = demo_basis("r2", "r3")
    rng = random.Random(41)
    steps = 0
    for k, r in enumerate(range(3, 9)):
        d = _dotted_closure(rng, basis, r, dots=1 + k % 3, mirrored=k % 2 == 1)
        for m in flip_reduce(d):
            d = apply_move(d, m)
            assert d.slices == _rebuilt(d).slices, (m.schema, m.index)
            steps += 1
        assert not d.events
    assert steps > 100


def test_enumerated_moves_match_full_rebuilds():
    basis = demo_basis("r2", "r3")
    rng = random.Random(5)
    corpus = _hand_corpus(basis) + [rand_closed_diagram(rng, basis) for _ in range(4)]
    checked = 0
    for d in corpus:
        for m in enumerate_moves(d):
            got = apply_move(d, m)
            assert got.slices == _rebuilt(got).slices, (m.schema, m.index)
            checked += 1
    assert checked > 50


def _outcome(build):
    try:
        return build().slices
    except FoamError as exc:
        return type(exc), str(exc)


def _rand_foam_event(rng, weights):
    p = rng.randrange(4)
    return rng.choice([
        Merge(p, Order.L), Split(p, Order.R, rng.choice(weights)), Cross(p),
        Cup(p, rng.choice(weights), rng.choice((Dir.UP, Dir.DOWN))), Cap(p), Dot(p),
    ])


def _rand_planar_event(rng, weights):
    p = rng.randrange(4)
    return rng.choice([
        PMerge(p), PSplit(p, rng.choice(weights)), PCup(p, rng.choice(weights)), PCap(p),
    ])


@pytest.mark.parametrize("rand_diagram, rand_event, errors", [
    (rand_closed_diagram, _rand_foam_event, {DslSemanticError, NonPositiveWeight}),
    (rand_signed_planar, _rand_planar_event, {DslSemanticError}),
], ids=["foam", "planar"])
def test_failing_splices_fail_like_full_rebuilds(rand_diagram, rand_event, errors):
    """Random splices, most of them invalid: the splice and the full rebuild
    of the same events give the same slices or the same error."""
    basis = demo_basis("r2")
    rng = random.Random(8)
    weights = [Weight.rational(basis, q) for q in (1, "1/2", -1)]
    weights.append(Weight.generator(basis, "r2"))
    kinds = set()
    for _ in range(400):
        d = rand_diagram(rng, basis)
        k = rng.randint(0, len(d.events))
        removed = rng.randint(0, min(3, len(d.events) - k))
        added = [rand_event(rng, weights) for _ in range(rng.randint(0, 3))]
        events = d.events[:k] + tuple(added) + d.events[k + removed :]
        got = _outcome(lambda: d.spliced(k, removed, added))
        assert got == _outcome(lambda: type(d)(basis, d.start, events))
        kinds.add(got[0] if isinstance(got[0], type) else "ok")
    assert kinds >= {"ok"} | errors


def test_inserting_dots_splices_once_per_dot(monkeypatch):
    """Each dot is spliced in, so it costs one computed slice, not a rebuild."""
    basis = demo_basis("r2")
    d = iet_closure(Iet([Weight.rational(basis, 1), Weight.generator(basis, "r2")], [2, 1]))
    calls = []
    original = foamdiag.apply_event

    def counted(strands, e):
        calls.append(e)
        return original(strands, e)

    monkeypatch.setattr(foamdiag, "apply_event", counted)
    dotted = _insert_dots(random.Random(3), d, 5)
    assert len(calls) == 5
    assert sum(isinstance(e, Dot) for e in dotted.events) == 5
    monkeypatch.undo()
    assert dotted.slices == _rebuilt(dotted).slices


def test_splice_out_of_range_is_rejected(w):
    d = u_diagram(w("1"), w("1*r2"))
    for k, removed in ((-1, 0), (4, 2), (6, 0)):
        with pytest.raises(IndexError):
            d.spliced(k, removed, [])
    with pytest.raises(SchemaMismatch):
        apply_move(d, MoveInstance("circle_birth", 6, {"pos": 0, "weight": w("1")}))


def test_flip_reduce_rebuilds_few_slices_per_step(monkeypatch):
    """Cost guard: a move recomputes only the slices its splice changes.
    flip_reduce applies each trace step once and validate_trace replays it
    once; each of these move applications may apply at most three events
    (about two in practice; a rebuild of every slice applies about 34)."""
    basis = demo_basis("r2")
    d = _dotted_closure(random.Random(16), basis, 16, dots=3, mirrored=False)
    calls = []
    original = foamdiag.apply_event

    def counted(strands, e):
        calls.append(e)
        return original(strands, e)

    monkeypatch.setattr(foamdiag, "apply_event", counted)
    trace = flip_reduce(d)
    assert validate_trace(d, trace)
    assert len(trace) > 500
    applications = 2 * len(trace)
    assert len(calls) <= 3 * applications, len(calls) / applications
