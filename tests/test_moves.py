"""Local moves: every enumerable move preserves nu.

The deterministic fuzz loop doubles as a coverage check: over the fixed
seeds, every nu-preserving schema must fire at least once, so a schema
whose matcher silently stops matching fails the suite.
"""

import collections
import functools
import hashlib
import itertools
import json
import random

import pytest

from foamcalc import decorated, foamdiag, moves
from foamcalc import (
    ALL_SCHEMAS,
    Cap,
    Cross,
    Cup,
    Dir,
    Dot,
    DslSemanticError,
    FoamDiagram,
    FoamError,
    GroupLabel,
    Iet,
    Label,
    Merge,
    MoveInstance,
    NU_SCHEMAS,
    NonPositiveWeight,
    Order,
    PCap,
    PCup,
    PMerge,
    PSplit,
    PrecisionExhausted,
    SchemaMismatch,
    Split,
    Strand,
    TraceCheck,
    Weight,
    apply_move,
    enumerate_moves,
    flip_reduce,
    iet_closure,
    mirror,
    move_from_json,
    nu,
    trace_to_json,
    u_diagram,
    validate_trace,
)
from foamcalc.acceptance import (
    _insert_dots,
    demo_basis,
    rand_closed_diagram,
    rand_dotted_diagram,
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


def _flagged_block(basis):
    """The standard crossing block with R-flag vertices."""
    a = Weight.rational(basis, 1)
    b = Weight.generator(basis, "r2")
    return FoamDiagram(basis, [], [Cup(0, a + b, Dir.DOWN), Split(1, Order.R, a), Cross(1),
                                   Merge(1, Order.R), Cap(0)])


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


def test_every_mismatch_names_its_step(w):
    """Each way a move can fail, the exchange's own check and a bad selector
    included, reads ``<schema> at <index>:``, in apply_move and in the
    reason of validate_trace."""
    d = FoamDiagram(w("1").basis, [], [Cup(0, w("1"), Dir.UP), Cap(0)])
    cases = [
        (MoveInstance("exchange", 0), "exchange at 0: events overlap; exchange does not apply"),
        (MoveInstance("vertex_flip", 1, {"dir": [1]}), "vertex_flip at 1: bad dir [1]"),
        (MoveInstance("r2", 0), "r2 at 0: no 'cross p; cross p' here"),
        (MoveInstance("no-such-schema", 0), "no-such-schema at 0: unknown schema 'no-such-schema'"),
    ]
    for m, text in cases:
        with pytest.raises(SchemaMismatch) as exc:
            apply_move(d, m)
        assert str(exc.value) == text
        assert validate_trace(d, [m]).reason == text


def test_enumerated_moves_apply_on_mirrored_diagrams(w):
    d = mirror(u_diagram(w("1"), w("1*r2")))
    base = nu(d)
    moves = enumerate_moves(d)
    assert moves
    for m in moves:
        assert nu(apply_move(d, m)) == base


# ---------------------------------------------- splices against full rebuilds


def _rebuilt(d):
    return FoamDiagram(d.basis, d.start, d.events)


def _dotted_closure(rng, basis, r, dots, mirrored):
    lengths = [rand_positive_weight(rng, basis) for _ in range(r)]
    perm = list(range(1, r + 1))
    rng.shuffle(perm)
    d = _insert_dots(rng, iet_closure(Iet(lengths, perm)), dots)
    return mirror(d) if mirrored else d


def _enumerate_corpus():
    basis = demo_basis("r2", "r3")
    return _hand_corpus(basis) + [rand_closed_diagram(random.Random(seed), basis)
                                  for seed in range(60)]


def _flip_corpus():
    basis = demo_basis("r2", "r3")
    rng = random.Random(41)
    closures = [
        _dotted_closure(rng, basis, r, dots=1 + k % 3, mirrored=mirrored)
        for k, r in enumerate(range(3, 9))
        for mirrored in (False, True)
    ]
    flagged = _flagged_block(basis)
    return closures + [_hand_corpus(basis)[0], flagged, mirror(_insert_dots(rng, flagged, 2))]


# sha256 of every enumerated move with its result over the enumerate corpus,
# then every flip_reduce trace over the flip corpus.  A change to how moves
# are matched or applied must leave it unchanged.
MOVES_DIGEST = "d01d3520e64b86f991272eafd163ebc381dd1e0578c616e2dd872cf8438a4b07"


def test_moves_and_traces_are_pinned():
    record = []
    for d in _enumerate_corpus():
        record += [[m.to_json(), apply_move(d, m).to_json()] for m in enumerate_moves(d)]
    for d in _flip_corpus():
        record.append(trace_to_json(flip_reduce(d)))
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == MOVES_DIGEST


@functools.cache
def _trace_steps():
    """(diagram, move) of every flip_reduce step over the flip corpus."""
    steps = []
    for d in _flip_corpus():
        for m in flip_reduce(d):
            steps.append((d, m))
            d = apply_move(d, m)
    return steps


@functools.cache
def _real_records():
    """Schema -> (diagram, move): the first move of each schema among the
    enumerated moves and the trace steps.  No trace cancels a dot pair, so
    the dot_cancel record undoes the first dot_pair_birth."""
    records = {}
    for d in _enumerate_corpus():
        for m in enumerate_moves(d):
            records.setdefault(m.schema, (d, m))
    for d, m in _trace_steps():
        records.setdefault(m.schema, (d, m))
    d, m = records["dot_pair_birth"]
    records["dot_cancel"] = (apply_move(d, m), MoveInstance("dot_cancel", m.index))
    return records


def test_move_json_round_trip():
    """A real record of every schema survives JSON and applies the same."""
    records = _real_records()
    assert set(records) == set(ALL_SCHEMAS)
    for schema, (d, m) in records.items():
        back = move_from_json(d.basis, json.loads(json.dumps(m.to_json())))
        assert back == m, schema
        assert apply_move(d, back) == apply_move(d, m), schema
    with pytest.raises(DslSemanticError):
        move_from_json(d.basis, {"schema": "saddle"})


def _registered_sides():
    """(rule, side) -> (schema, selector params) of every registered direction."""
    out = {}
    for schema, (keys, _, options) in ALL_SCHEMAS.items():
        for values, alternatives in options.items():
            for rule, side in alternatives:
                out[rule, side] = (schema, dict(zip(keys, values)))
    return out


def _insertion_params(rule, side, env):
    """The move params from which the given side takes its free variables."""
    return {
        moves._PARAMS[var][0]: env[var].value if isinstance(env[var], (Order, Dir)) else env[var]
        for var in rule.sides[side][2]
    }


def _reverses(d, k, rule, side, env, registered):
    """Apply the given side at k, then the other side at k; True when that
    gives back d, None when the splice does not validate."""
    try:
        got = rule.sides[side][1](d, k, _insertion_params(rule, side, env), True)
    except FoamError:
        return None
    back = _insertion_params(rule, 1 - side, env)
    if (rule, 1) not in registered:  # one-sided: through the rule object
        return rule.sides[1 - side][1](got, k, back, True) == d
    (fwd, fwd_sel), (rev, rev_sel) = registered[rule, side], registered[rule, 1 - side]
    assert apply_move(d, MoveInstance(fwd, k, fwd_sel | _insertion_params(rule, side, env))) == got
    return apply_move(got, MoveInstance(rev, k, rev_sel | back)) == d


def test_every_rule_reverses():
    """A rule side that applies, then the other side of the same rule at the
    same index, gives back the diagram.  A rule registered in both
    directions goes through apply_move, a one-sided rule through the rule
    object.  Sites: every event of the enumerate corpus and of two dotted
    circles, the index of every flip trace step, and every insertion among
    the enumerated moves and the trace steps."""
    registered = _registered_sides()
    rules = {rule for rule, _ in registered if len(rule.sides) == 2}  # not one-way
    basis = demo_basis("r2", "r3")
    a = Weight.rational(basis, 1)
    dotted = [FoamDiagram(basis, [], [Cup(0, a, Dir.UP), Dot(p), Cap(0)]) for p in (0, 1)]
    sites = [(d, k) for d in _enumerate_corpus() + dotted for k in range(len(d.events))]
    sites += [(d, m.index) for d, m in _trace_steps()]
    used = set()
    for d, k in sites:
        for rule in rules:
            for side in (0, 1) if (rule, 1) in registered else (0,):
                env = rule.sides[side][1](d, k, {}, False) if rule.sides[side][0] else None
                ok = None if env is None else _reverses(d, k, rule, side, env, registered)
                if ok is not None:
                    assert ok, (rule.texts, side, k)
                    used.add(rule)
    moves_made = [(d, m) for d in _enumerate_corpus() for m in enumerate_moves(d)]
    for d, m in moves_made + _trace_steps():
        for rule, side in moves._alternatives(m.schema, m.params):
            env = rule.sides[side][1](d, m.index, m.params, False)
            if env is not None and not rule.sides[side][0]:
                assert _reverses(d, m.index, rule, side, env, registered), m
                used.add(rule)
    assert used == rules, [rule.texts for rule in rules - used]


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


def _count_apply_event(monkeypatch) -> list:
    """The events that foamdiag.apply_event is called with from now on."""
    calls = []
    original = foamdiag.apply_event

    def counted(strands, e):
        calls.append(e)
        return original(strands, e)

    monkeypatch.setattr(foamdiag, "apply_event", counted)
    return calls


def test_inserting_dots_splices_once_per_dot(monkeypatch):
    """Each dot is spliced in, so it costs one computed slice, not a rebuild."""
    basis = demo_basis("r2")
    d = iet_closure(Iet([Weight.rational(basis, 1), Weight.generator(basis, "r2")], [2, 1]))
    calls = _count_apply_event(monkeypatch)
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
    (about one in practice; a rebuild of every slice applies about 34)."""
    basis = demo_basis("r2")
    d = _dotted_closure(random.Random(16), basis, 16, dots=3, mirrored=False)
    calls = _count_apply_event(monkeypatch)
    trace = flip_reduce(d)
    assert validate_trace(d, trace)
    assert len(trace) > 500
    applications = 2 * len(trace)
    assert len(calls) <= 3 * applications, len(calls) / applications


# ------------------------------------------------ exchanges and folded blocks


_FIELDS = {  # event kind -> random fields after pos
    Merge: lambda rng, weights: (rng.choice(list(Order)),),
    Split: lambda rng, weights: (rng.choice(list(Order)), rng.choice(weights)),
    Cross: lambda rng, weights: (),
    Cup: lambda rng, weights: (rng.choice(weights), rng.choice(list(Dir))),
    Cap: lambda rng, weights: (),
    Dot: lambda rng, weights: (),
    Label: lambda rng, weights: (GroupLabel((rng.randint(-2, 2),), ()),),
}


def _exchange_side(e, f) -> str:
    """Where f lies against e below it, as exchange tests it."""
    if f.pos >= e.pos + e.produces:
        return "right"
    return "left" if f.pos + f.consumes <= e.pos else "overlap"


def test_exchange_assembles_the_middle_slice(monkeypatch):
    """Every ordered pair of event kinds, with the upper event right and
    left of the lower one and overlapping it, on random valid slices.  The
    exchanged diagram's middle slice is its lower event applied to the
    slice below, the whole diagram equals its rebuild from scratch, and the
    exchange applies no event; overlapping pairs keep their error."""
    basis = demo_basis("r2")
    rng = random.Random(13)
    one = Weight.rational(basis, 1)
    weights = [one, Weight.rational(basis, "1/2"), Weight.generator(basis, "r2")]
    dirs = list(Dir)
    calls = _count_apply_event(monkeypatch)
    for E, F in itertools.product(foamdiag.EVENT_KINDS, repeat=2):
        found = collections.Counter()
        for _ in range(3000):
            if min(found[side] for side in ("right", "left", "overlap")) >= 3:
                break
            start = [Strand(rng.choice(weights), rng.choice(dirs)) for _ in range(rng.randint(0, 4))]
            e = E(rng.randint(0, len(start) + 2), *_FIELDS[E](rng, weights))
            f = F(rng.randint(0, len(start) + 3), *_FIELDS[F](rng, weights))
            try:  # a circle below and above, so that the window is inside
                d = FoamDiagram(basis, start, [Cup(0, one, Dir.UP), e, f, Cup(0, one, Dir.DOWN)])
            except FoamError:
                continue
            side = _exchange_side(e, f)
            found[side] += 1
            calls.clear()
            if side == "overlap":
                with pytest.raises(SchemaMismatch) as exc:
                    apply_move(d, MoveInstance("exchange", 1))
                assert str(exc.value) == "exchange at 1: events overlap; exchange does not apply"
                continue
            got = apply_move(d, MoveInstance("exchange", 1))
            assert calls == [], (e, f)
            assert [type(x) for x in got.events[1:3]] == [F, E]
            assert got.slices[2] == foamdiag.apply_event(got.slices[1], got.events[1]), (e, f)
            rebuilt = _rebuilt(got)
            assert got == rebuilt and got.slices == rebuilt.slices, (e, f)
        assert found["right"] and found["left"], (E, F, found)


@pytest.mark.parametrize("split_off, death", [("crossing_splitoff", "u_ab_death"),
                                              ("dot_splitoff", "dotted_circle_death")])
def test_validate_trace_replays_the_death_of_each_block(split_off, death):
    """flip_reduce never builds a split-off block, but its trace records
    the block's death, which validate_trace replays: moved one event off,
    the death step fails."""
    basis = demo_basis("r2")
    d = _dotted_closure(random.Random(16), basis, 6, dots=2, mirrored=False)
    trace = flip_reduce(d)
    assert validate_trace(d, trace)
    i = next(i for i, m in enumerate(trace) if m.schema == death)
    assert trace[i - 1].schema == split_off
    for shift in (-1, 1):
        bad = trace[:i] + [MoveInstance(death, trace[i].index + shift)] + trace[i + 1 :]
        check = validate_trace(d, bad)
        assert not check and check.failed_at == i, shift


def test_flip_reduce_applies_few_events(monkeypatch):
    """Cost guard: exchanges apply no event, split-off blocks are never
    built, a crossing split-off builds its middle slice and a vertex
    cobordism applies only its lower new event.  So flip_reduce on this
    closure (927 steps, 299 of them vertex cobordisms) applies 299 events;
    it applied 742 when each vertex rewrite applied both new events, and
    1,891 when every exchange was a splice and every block was built and
    deleted.  validate_trace replays exchange runs and split-off pairs a
    block at a time, so it applies the same 299 events and builds no
    block."""
    d = _dotted_closure(random.Random(16), demo_basis("r2"), 16, dots=3, mirrored=False)
    calls = _count_apply_event(monkeypatch)
    trace = flip_reduce(d)
    assert len(trace) == 927
    assert len(calls) == 299
    reduced = list(calls)
    calls.clear()
    assert validate_trace(d, trace)
    assert calls == reduced


def _exchange_runs(trace) -> int:
    """The number of maximal runs of exchange steps at indices k, k+1, ..."""
    return sum(m.schema == "exchange" and not (
        i and trace[i - 1].schema == "exchange" and trace[i - 1].index == m.index - 1)
        for i, m in enumerate(trace))


def _count_builds(monkeypatch) -> list:
    """The classes of the diagrams built through _from_slices from now on:
    every splice, and every diagram that knows its slices."""
    builds = []
    from_slices = foamdiag.SlicedDiagram._from_slices.__func__

    def counted(cls, *args):
        builds.append(cls)
        return from_slices(cls, *args)

    monkeypatch.setattr(foamdiag.SlicedDiagram, "_from_slices", classmethod(counted))
    return builds


def test_reduce_and_replay_build_at_most_one_diagram(monkeypatch):
    """Cost guard: flip_reduce and validate_trace each reduce or replay on
    one working diagram, which every step edits in place, so neither
    builds a diagram per step.  On this closure (927 steps: 390 exchanges
    in 94 runs, 75 split-off pairs) flip_reduce builds none, and
    validate_trace builds one, the final diagram that it compares with the
    target.  With a new diagram per exchange run, split-off pair and other
    step, each built 556."""
    d = _dotted_closure(random.Random(16), demo_basis("r2"), 16, dots=3, mirrored=False)
    builds = _count_builds(monkeypatch)
    trace = flip_reduce(d)
    schemas = collections.Counter(m.schema for m in trace)
    exchanges, pairs = schemas["exchange"], schemas["crossing_splitoff"] + schemas["dot_splitoff"]
    assert (len(trace), exchanges, _exchange_runs(trace), pairs) == (927, 390, 94, 75)
    assert builds == []
    assert validate_trace(d, trace)
    assert builds == [FoamDiagram]


# ----------------------------------------- block replay against step-by-step


def _stepwise(d, trace, target):
    """validate_trace's report computed with one apply_move per step."""
    for i, m in enumerate(trace):
        try:
            d = apply_move(d, m)
        except SchemaMismatch as exc:
            return TraceCheck(False, len(trace), i, str(exc))
    if d != target:
        return TraceCheck(False, len(trace), len(trace), "final diagram differs from the target")
    return TraceCheck(True, len(trace))


def _report(check, *args):
    try:
        return check(*args)
    except FoamError as exc:
        return type(exc), str(exc)


def _corrupted(rng, trace) -> list:
    """Copies of the trace with a step dropped, duplicated, swapped with
    the next, re-indexed by -1 or +1, or given params, and the trace cut
    right after a split-off.  Steps are drawn at random, among exchanges
    and among deaths."""
    out = []
    pools = [range(len(trace))] + [
        [i for i, m in enumerate(trace) if m.schema in schemas]
        for schemas in (("exchange",), ("u_ab_death", "dotted_circle_death"),
                        ("crossing_splitoff", "dot_splitoff"))]
    for pool in pools[:3]:
        if not pool:
            continue
        i = rng.choice(pool)
        m = trace[i]
        out += [trace[:i] + trace[i + 1 :], trace[:i + 1] + trace[i:],
                trace[:i] + trace[i + 1 : i + 2] + [m] + trace[i + 2 :],
                trace[:i] + [MoveInstance(m.schema, m.index, {"pos": 0})] + trace[i + 1 :]]
        out += [trace[:i] + [MoveInstance(m.schema, m.index + shift, m.params)] + trace[i + 1 :]
                for shift in (-1, 1)]
    if pools[3]:
        out.append(trace[: rng.choice(pools[3]) + 1])
    return out


def test_validate_trace_equals_a_step_by_step_replay():
    """validate_trace replays exchange runs and split-off pairs a block at
    a time; its report (ok, steps, failed_at, reason) equals that of one
    apply_move per step, on whole traces and on corrupted copies."""
    basis = demo_basis("r2", "r3")
    rng = random.Random(61)
    corpus = [_dotted_closure(rng, basis, r, dots=r % 4, mirrored=r % 3 == 0)
              for r in range(3, 11)]
    corpus += [rand_dotted_diagram(rng, basis) for _ in range(40)]
    empty = FoamDiagram(basis, [], [])
    failures = collections.Counter()
    for d in corpus:
        trace = flip_reduce(d)
        for bad in [trace] + _corrupted(rng, trace):
            got = _report(validate_trace, d, bad)
            assert got == _report(_stepwise, d, bad, empty), (d, bad)
            if isinstance(got, TraceCheck) and not got:
                failures[got.reason.split(":")[0].split(" at ")[0]] += 1
    kinds = {"exchange", "u_ab_death", "dotted_circle_death", "final diagram differs from the target"}
    assert kinds <= set(failures), failures


def test_an_exchange_with_a_param_is_replayed_on_its_own(monkeypatch):
    """An exchange step that carries a param is not part of an exchange
    run: at the start, in the middle or at the end of a run, it goes to
    apply_move and fails at its own step, and the steps of the run below
    it are replayed."""
    basis = demo_basis("r2", "r3")
    d = _dotted_closure(random.Random(1), basis, 8, dots=1, mirrored=False)
    trace = flip_reduce(d)
    start = next(i for i in range(len(trace) - 3)
                 if all(trace[i + n] == MoveInstance("exchange", trace[i].index + n)
                        for n in range(4)))
    seen = []
    apply = decorated.apply_move

    def spied(d, m):
        seen.append(m)
        return apply(d, m)

    monkeypatch.setattr(decorated, "apply_move", spied)
    for i in (start, start + 1, start + 3):
        m = MoveInstance("exchange", trace[i].index, {"pos": 0})
        bad = trace[:i] + [m] + trace[i + 1 :]
        seen.clear()
        got = validate_trace(d, bad)
        assert got == TraceCheck(False, len(bad), i, f"exchange at {m.index}: unknown param 'pos'")
        assert got == _stepwise(d, bad, FoamDiagram(basis, [], []))
        assert seen[-1] is m


def test_a_split_off_pair_on_a_start_strand_replays_as_one_block(w, basis, monkeypatch):
    """Every strand weight is decided positive, start strands included, so
    a split-off followed by its death is replayed as one block: the block
    never goes to apply_move."""
    start = [Strand(w("1"), Dir.UP)]
    d, target = FoamDiagram(basis, start, [Dot(0)]), FoamDiagram(basis, start, [])
    trace = [MoveInstance("dot_splitoff", 0), MoveInstance("dotted_circle_death", 0)]
    seen = []
    monkeypatch.setattr(decorated, "apply_move", lambda d, m: seen.append(m))
    assert decorated._block(foamdiag._WorkingDiagram(d), trace, 0) == 2
    assert validate_trace(d, trace, target) == TraceCheck(True, 2)
    assert seen == []


def test_split_off_and_kill_is_the_split_off_and_its_death():
    """At every crossing and dot of random dotted diagrams, split_off_and_kill
    gives the diagram, slices included, that apply_move gives for the
    split-off and then for the death move it returns, or the same error."""
    basis = demo_basis("r2", "r3")
    rng = random.Random(67)
    sites = collections.Counter()
    for _ in range(120):
        d = rand_dotted_diagram(rng, basis)
        if rng.random() < 0.5:
            d = _dotted_closure(rng, basis, rng.randint(2, 4), dots=rng.randint(0, 2),
                                mirrored=rng.random() < 0.5)
        for k, e in enumerate(d.events):
            schema = {Cross: "crossing_splitoff", Dot: "dot_splitoff"}.get(type(e))
            if schema is None:
                continue
            m = MoveInstance(schema, k)
            try:
                got, death = moves.split_off_and_kill(d, m)
            except SchemaMismatch as exc:
                with pytest.raises(SchemaMismatch) as want:
                    apply_move(d, m)
                assert str(exc) == str(want.value)
                sites["mismatch"] += 1
                continue
            want = apply_move(apply_move(d, m), death)
            assert got == want and got.slices == want.slices, (d, m)
            assert death.index == len(got.events)
            sites[schema] += 1
    assert sites["crossing_splitoff"] > 20 and sites["dot_splitoff"] > 20, sites


def test_exchange_run_is_a_run_of_exchange_steps(monkeypatch):
    """exchange_run(d, k, most) gives (diagram, made).  The diagram, built
    once, equals ``made`` exchange steps at k, k+1, ..., slices included,
    and its slices are those of a full rebuild.  ``made`` is how far a walk
    with _passed goes, capped at ``most``; where the run stops short of
    ``most`` and of the top, the next step's events overlap.  With no
    exchange made, and with k outside the events, it gives d itself and 0."""
    basis = demo_basis("r2", "r3")
    rng = random.Random(71)
    corpus = [rand_closed_diagram(rng, basis) for _ in range(30)]
    corpus += [_dotted_closure(rng, basis, r, dots=2, mirrored=False) for r in (4, 6, 8, 10)]
    builds = _count_builds(monkeypatch)
    outcomes = collections.Counter()
    for d in corpus:
        n = len(d.events)
        for k in range(n):
            run = _run_through_passed(d, k)
            wants = [d]
            for i in range(k, k + run):
                wants.append(apply_move(wants[-1], MoveInstance("exchange", i)))
            for most in sorted({rng.randint(0, n), run, run + 1, n}):
                builds.clear()
                got, made = moves.exchange_run(d, k, most)
                want = wants[made]
                assert made == min(run, most), (d, k, most)
                assert got == want and got.slices == want.slices, (d, k, most)
                assert len(builds) == (made > 0) and (made > 0 or got is d)
                assert got.slices == FoamDiagram(basis, d.start, got.events).slices
                if made < most and k + made < n - 1:
                    with pytest.raises(SchemaMismatch, match="events overlap"):
                        apply_move(want, MoveInstance("exchange", k + made))
                    outcomes["overlap"] += 1
                else:
                    outcomes["top" if made < most else "most"] += 1
    assert min(outcomes["overlap"], outcomes["top"], outcomes["most"]) > 50, outcomes
    for k in (-1, -n, n, n + 3):
        got, made = moves.exchange_run(d, k, 2)
        assert got is d and made == 0


# ------------------------------------------------ one match-and-apply per move


def _two_pass_moves(d):
    """enumerate_moves in two passes: match each window candidate with its
    side functions, then build every candidate with apply_move and keep
    those that apply."""
    cands = []
    for k in range(len(d.events)):
        for schema, params, alternatives in moves._AT_EVENT:
            if any(rule.sides[side][1](d, k, params, False) is not None
                   for rule, side in alternatives):
                cands.append(MoveInstance(schema, k, dict(params)))
    unit = Weight.rational(d.basis, 1)
    for k, cur in enumerate(d.slices):
        cands.append(MoveInstance("circle_birth", k, {"pos": 0, "weight": unit, "dir": "u"}))
        for p in range(len(cur)):
            cands.append(MoveInstance("singular_cap", k, {"pos": p, "order": "L",
                                                          "left": cur[p].weight.scale("1/2")}))
        for p in range(len(cur) - 1):
            if cur[p].dir == cur[p + 1].dir:
                cands.append(MoveInstance("singular_cup", k, {"pos": p, "order": "L"}))
            elif cur[p].weight == cur[p + 1].weight:
                cands.append(MoveInstance("saddle", k, {"kind": "insert", "pos": p}))
    out = []
    for m in cands:
        try:
            apply_move(d, m)
        except SchemaMismatch:
            continue
        out.append(m)
    return out


def test_enumerated_moves_equal_a_two_pass_enumeration():
    """_enumerated matches and applies each candidate once; it yields the
    moves that matching and then applying give, in their order, each with
    the diagram that apply_move gives."""
    basis = demo_basis("r2", "r3")
    rng = random.Random(83)
    corpus = _enumerate_corpus() + [rand_closed_diagram(rng, basis) for _ in range(100)]
    schemas = collections.Counter()
    for d in corpus:
        pairs = list(moves._enumerated(d))
        assert [m for m, _ in pairs] == _two_pass_moves(d) == enumerate_moves(d)
        for m, out in pairs:
            assert out == apply_move(d, m), (m.schema, m.index)
            schemas[m.schema] += 1
    assert set(schemas) == set(NU_SCHEMAS), schemas


def _run_through_passed(d, k):
    """How many events above event k it passes by exchanges: a walk with
    _passed, building each shifted event."""
    e = d.events[k]
    for i in range(k + 1, len(d.events)):
        passed = moves._passed(e, d.events[i])
        if passed is None:
            return i - k - 1
        e = passed[1]
    return len(d.events) - k - 1


def test_exchange_run_stops_where_passed_stops(monkeypatch):
    """exchange_run, uncapped, passes as many events as a walk with _passed
    at every event of the flip corpus and of every diagram its traces pass
    through.  flip_reduce tests each pair once: one _passed call per
    exchange step, plus one per run, which stops where the split meets an
    event that it overlaps and another move pushes it.

    In the hand diagram the cap at 1 has no width, so the cup above it at
    its own position passes it by either of _passed's tests.  Its first
    test leaves the cap at position 1, where the crossing above overlaps
    it; the second would shift it to 3, past the crossing."""
    basis = demo_basis("r2", "r3")
    a, b = Weight.rational(basis, 1), Weight.generator(basis, "r2")
    hand = FoamDiagram(basis, [Strand(b, Dir.UP)],
                       [Cup(1, a, Dir.UP), Cap(1), Cup(1, a, Dir.UP), Cross(0)])
    assert _run_through_passed(hand, 1) == 1
    sites = [(d, k) for d in [hand] + _flip_corpus() + [d for d, _ in _trace_steps()]
             for k in range(len(d.events))]
    want = [_run_through_passed(d, k) for d, k in sites]
    assert sum(map(bool, want)) > 100
    assert [moves.exchange_run(d, k, len(d.events))[1] for d, k in sites] == want
    calls = collections.Counter()
    passed, first = moves._passed, decorated._first

    def counted_passed(e, f):
        calls["passed"] += 1
        return passed(e, f)

    def counted_first(d, trace, k, candidates):
        calls["runs"] += candidates is decorated._PUSH_SPLIT
        return first(d, trace, k, candidates)

    monkeypatch.setattr(moves, "_passed", counted_passed)
    monkeypatch.setattr(decorated, "_first", counted_first)
    exchanges = sum(m.schema == "exchange" for d in _flip_corpus() for m in flip_reduce(d))
    assert calls["passed"] == exchanges + calls["runs"]
    assert exchanges > 100 and calls["runs"] > 50, (exchanges, calls)


def test_a_param_that_the_schema_does_not_read_is_refused(w):
    """A step may carry only its schema's selector keys and the params its
    insertion sides take; any other key is refused, in apply_move and in the
    reason of validate_trace, as ``<schema> at <index>: unknown param``."""
    d = FoamDiagram(w("1").basis, [], [Cup(0, w("1"), Dir.UP), Dot(0), Cap(0)])
    trace = flip_reduce(d)
    assert validate_trace(d, trace)
    junk = [MoveInstance(m.schema, m.index, {"pos": 7, "weight": "junk"}) for m in trace]
    assert validate_trace(d, junk) == TraceCheck(False, 3, 0,
                                                 "dot_splitoff at 1: unknown param 'pos'")
    for m in junk:
        with pytest.raises(SchemaMismatch) as exc:
            apply_move(d, m)
        assert str(exc.value) == f"{m.schema} at {m.index}: unknown param 'pos'"
    cases = [
        (MoveInstance("vertex_flip", 0, {"dir": "expand", "pos": 0}),
         "vertex_flip at 0: unknown param 'pos'"),
        (MoveInstance("saddle", 0, {"kind": "insert", "pos": 0, "weight": w("1")}),
         "saddle at 0: unknown param 'weight'"),
        (MoveInstance("circle_birth", 0, {"pos": 0, "weight": w("1"), "dir": "u", "at": 1}),
         "circle_birth at 0: unknown param 'at'"),
    ]
    for m, text in cases:
        assert validate_trace(d, [m]).reason == text
    assert {schema: sorted(keys) for schema, keys in moves._PARAM_KEYS.items() if keys} == {
        "vertex_flip": ["dir"], "vertex_slide": ["dir"], "vertex_cobordism": ["dir", "pattern"],
        "singular_cup": ["order", "pos"], "singular_cap": ["left", "order", "pos"],
        "saddle": ["kind", "pos"], "circle_birth": ["dir", "pos", "weight"],
        "dot_pair_birth": ["pos"], "dot_through_vertex": ["dir"],
    }


# ------------------------------------------- vertex rewrites build one slice


def _vertex_sites():
    """Random closed diagrams, dotted closures and their mirrors, and the
    diagrams that the flip corpus's traces pass through."""
    basis = demo_basis("r2", "r3")
    rng = random.Random(89)
    corpus = [rand_closed_diagram(rng, basis) for _ in range(80)]
    corpus += [_dotted_closure(rng, basis, r, dots=r % 3, mirrored=mirrored)
               for r in range(3, 9) for mirrored in (False, True)]
    return corpus + [d for d, _ in _trace_steps()]


def test_vertex_cobordisms_equal_their_splice(monkeypatch):
    """Every vertex_cobordism pattern, in both directions, at every index
    where it matches: the move gives the diagram, slices included, that
    splicing the rule's new events in gives, or the same error, and it
    applies one event."""
    scope = {cls.__name__: cls for cls in (*foamdiag.EVENT_KINDS, Order, Dir)}
    calls = _count_apply_event(monkeypatch)
    seen = collections.Counter()
    for d in _vertex_sites():
        for (pattern, which), ((rule, side),) in ALL_SCHEMAS["vertex_cobordism"][2].items():
            sources = moves._window(rule.texts[1 - side])[3]
            for k in range(len(d.events) - 1):
                env = rule.sides[side][1](d, k, {}, False)
                if env is None:
                    continue
                added = [eval(src, scope, dict(env)) for src in sources]
                want = _outcome(lambda: d.spliced(k, 2, added))
                m = MoveInstance("vertex_cobordism", k, {"pattern": pattern, "dir": which})
                calls.clear()
                try:
                    got = apply_move(d, m)
                except SchemaMismatch as exc:
                    assert str(exc) == f"vertex_cobordism at {k}: {want[1]}", (m, d)
                    seen["mismatch"] += 1
                    continue
                assert len(calls) == 1, (m, calls)
                assert got.events[k : k + 2] == tuple(added)
                assert got.slices == want and got == _rebuilt(got), (m, d)
                seen[pattern, which] += 1
    patterns = itertools.product(moves._ASSOC, ("lr", "rl"))
    assert all(seen[pattern] >= 5 for pattern in patterns), seen
    assert seen["mismatch"] >= 5, seen


def test_a_crossing_split_off_builds_its_middle_slice(monkeypatch):
    """At every crossing: the in-place rewrite of a crossing split-off is
    the splice of its merge and split, slices included, or the same error,
    and it applies no event."""
    rule, side = ALL_SCHEMAS["crossing_splitoff"][2][()][0]
    calls = _count_apply_event(monkeypatch)
    seen = collections.Counter()
    for d in _vertex_sites():
        for k, e in enumerate(d.events):
            if not isinstance(e, Cross):
                continue
            env = rule.sides[side][1](d, k, {}, False)
            if env is None:
                seen["antiparallel"] += 1
                continue
            o = Order.L if env["d"] is Dir.UP else Order.R
            added = (Merge(env["p"], o), Split(env["p"], o, env["b"]))
            want = _outcome(lambda: d.spliced(k, 1, added))
            calls.clear()
            got = _outcome(lambda: moves._uncrossed(d, k, env))
            assert calls == [] and got == want, (d, k)
            seen["crossing"] += 1
    assert seen["crossing"] > 50 and seen["antiparallel"], seen


def test_failing_vertex_rewrites_fail_like_the_splice(w, basis):
    """Where a vertex rewrite does not validate it raises what splicing its
    events in raises: an sm rewrite whose lower split's right part is not
    positive, an ss rewrite whose part l - m is not positive, and a sign
    that a precision-capped basis cannot decide."""
    up = Dir.UP
    # sm, right to left: split 0 L 3/2 of the start strand 1, then merge 1 L.
    sm = FoamDiagram(basis, [Strand(w("1"), up), Strand(w("2"), up)],
                     [Merge(0, Order.L), Split(0, Order.L, w("3/2"))])
    # ss: the rewrite of split 0 L 2; split 0 L 1 with m = 5/2 in place of 1.
    ss = FoamDiagram(basis, [Strand(w("3"), up)],
                     [Split(0, Order.L, w("2")), Split(0, Order.L, w("1"))])
    capped = basis.with_precision_cap(2)
    r2, one = Weight.generator(capped, "r2"), Weight.rational(capped, 1)
    split = Split(0, Order.L, Weight.rational(capped, "141/100"))
    # the same sm window: r2 - 141/100 is too close to 0 for 2 digits
    exhausted = FoamDiagram(capped, [Strand(r2, up), Strand(one, up)], [Merge(0, Order.L), split])
    cases = [
        (sm, (Split(0, Order.L, w("3/2")), Merge(1, Order.L)), NonPositiveWeight,
         "event 0: right part of a split must be positive, got Weight(-1/2)"),
        (ss, (Split(0, Order.L, w("5/2")), Split(1, Order.L, w("-1/2"))), NonPositiveWeight,
         "event 1: left part of a split must be positive, got Weight(-1/2)"),
        (exhausted, (split, Merge(1, Order.L)), PrecisionExhausted, None),
    ]
    for d, added, kind, text in cases:
        want = _outcome(lambda: d.spliced(0, 2, added))
        assert want[0] is kind and text in (None, want[1]), want
        assert _outcome(lambda: moves._rewrite_pair(d, 0, *added)) == want
    m = MoveInstance("vertex_cobordism", 0, {"pattern": "sm", "dir": "rl"})
    with pytest.raises(SchemaMismatch) as exc:
        apply_move(sm, m)
    assert str(exc.value) == f"vertex_cobordism at 0: {cases[0][3]}"
    with pytest.raises(PrecisionExhausted):
        apply_move(exhausted, m)


def _vertex_rewrites():
    """``(d, move, d rewritten)`` for every vertex_cobordism that
    _enumerated finds on the flip corpus and on criterion 3's family of
    random closed diagrams, then for every vertex_cobordism step of the
    flip corpus's traces, replayed on a working diagram; there ``d`` is the
    diagram before the step."""
    rng = random.Random(3)
    criterion_3 = [rand_closed_diagram(rng, demo_basis("r2")) for _ in range(100)]
    for d in _flip_corpus() + criterion_3:
        for m, out in moves._enumerated(d):
            if m.schema == "vertex_cobordism":
                yield d, m, out
    for d in _flip_corpus():
        work = foamdiag._WorkingDiagram(d)
        for m in flip_reduce(d):
            before = work.frozen()
            apply_move(work, m)
            if m.schema == "vertex_cobordism":
                yield before, m, work


def test_an_upper_split_reads_its_left_part_off_the_kept_slice():
    """Where a vertex rewrite puts a split on top, the split's left part is
    the very weight object that the slice above holds at its position: it
    is read, not computed.  It equals the rule's own algebra, the upper
    split of the rule's other side evaluated on the window's bindings
    (``b + l`` in ms, ``l - m`` in ss)."""
    seen = collections.Counter()
    for d, m, out in _vertex_rewrites():
        k = m.index
        upper = out.events[k + 1]
        if not isinstance(upper, Split):
            continue
        ((rule, side),) = moves._alternatives(m.schema, m.params)
        env = rule.sides[side][1](d, k, {}, False)
        want = eval(moves._window(rule.texts[1 - side])[3][1], _SCOPE, dict(env))
        assert upper.left is out.slices[k + 2][upper.pos].weight, (m, d)
        assert upper == want and upper.left == want.left, (m, d)
        seen[m.params["pattern"], m.params.get("dir", "lr")] += 1
    assert seen.keys() == {("ms", "lr"), ("ss", "lr"), ("ss", "rl"), ("sm", "lr")}, seen
    assert min(seen.values()) >= 20, seen


# ------------------------------------ the working diagram of reduce and replay


def _replay_corpus():
    """The diagrams of test_validate_trace_equals_a_step_by_step_replay."""
    basis = demo_basis("r2", "r3")
    rng = random.Random(61)
    corpus = [_dotted_closure(rng, basis, r, dots=r % 4, mirrored=r % 3 == 0)
              for r in range(3, 11)]
    return corpus + [rand_dotted_diagram(rng, basis) for _ in range(40)]


_SCOPE = {cls.__name__: cls for cls in (*foamdiag.EVENT_KINDS, Order, Dir)}


def _spliced_step(d, m):
    """d after step m, made by splicing the right-hand side of m's rule in
    with the immutable ``d.spliced(k, removed, rhs)``: a slow reference
    that shares no slice code with the rewrite kernels.  An exchange
    splices the two events moved past each other; a split-off splices its
    rewrite, and then its block on at the right end."""
    k = m.index
    for rule, side in moves._alternatives(m.schema, m.params):
        env = rule.sides[side][1](d, k, m.params, False)
        if env is not None:
            break
    if m.schema == "exchange":
        return d.spliced(k, 2, moves._passed(*d.events[k : k + 2]))
    if m.schema in moves._SPLIT_OFFS:
        rewrite = ()
        if m.schema == "crossing_splitoff":
            o = Order.L if env["d"] is Dir.UP else Order.R
            rewrite = (Merge(env["p"], o), Split(env["p"], o, env["b"]))
        block = moves._SPLIT_OFFS[m.schema][2](len(d.slices[-1]), env)
        out = d.spliced(k, 1, rewrite)
        return out.spliced(len(out.events), 0, block)
    added = [eval(src, _SCOPE, dict(env)) for src in moves._window(rule.texts[1 - side])[3]]
    return d.spliced(k, len(rule.sides[side][0]), added)


def test_working_replays_equal_the_rules_own_splices():
    """Each trace of the corpus of
    test_validate_trace_equals_a_step_by_step_replay and of the flip
    corpus (whose R-flag block brings dot pairs), replayed three ways at
    once: by the rules' own splices on immutable diagrams
    (``_spliced_step``), by one apply_move per step on a working diagram,
    and a block at a time on another, as validate_trace replays it.  After
    every step, and after every block, the working diagrams hold the
    events and slices of the reference."""
    schemas, blocks = collections.Counter(), collections.Counter()
    for d in _replay_corpus() + _flip_corpus():
        trace = flip_reduce(d)
        ref, stepped, by_blocks = d, foamdiag._WorkingDiagram(d), foamdiag._WorkingDiagram(d)
        done = 0  # the steps that by_blocks has replayed
        for n, m in enumerate(trace, 1):
            ref = _spliced_step(ref, m)
            assert apply_move(stepped, m) is stepped
            want = (list(ref.events), list(ref.slices))
            assert (stepped.events, stepped.slices) == want, (d, n, m)
            if done < n:
                size = decorated._block(by_blocks, trace, done)
                blocks[min(size, 3)] += 1
                done += size
            if done == n:
                assert (by_blocks.events, by_blocks.slices) == want, (d, n, m)
            schemas[m.schema] += 1
        assert not ref.events and stepped.frozen() == ref
    assert set(schemas) >= {"exchange", "vertex_cobordism", "singular_saddle",
                            "crossing_splitoff", "dot_splitoff", "dot_pair_birth",
                            "dot_through_vertex", "circle_death"}, schemas
    assert min(blocks[1], blocks[2], blocks[3]) > 20, blocks


def test_failing_rewrites_leave_the_working_diagram_as_it_was(w, basis):
    """A rewrite checks its whole window before it edits a working
    diagram, so one that raises leaves the events and slices as they were:
    an exchange whose events overlap, a vertex rewrite whose fallback
    splice meets a part that is not positive, a splice of a cup whose
    weight is not positive, and a sign that a basis capped at 2 digits
    cannot decide.  An exchange run whose second pair overlaps raises
    nothing: it makes its first exchange, in place, and stops."""
    up, one = Dir.UP, w("1")
    circles = FoamDiagram(basis, [], [Cup(0, one, up), Cup(2, one, up), Cap(0), Cap(0)])
    sm = FoamDiagram(basis, [Strand(w("1"), up), Strand(w("2"), up)],
                     [Merge(0, Order.L), Split(0, Order.L, w("3/2"))])
    capped = basis.with_precision_cap(2)
    r2, one = Weight.generator(capped, "r2"), Weight.rational(capped, 1)
    split = Split(0, Order.L, Weight.rational(capped, "141/100"))
    exhausted = FoamDiagram(capped, [Strand(r2, up), Strand(one, up)], [Merge(0, Order.L), split])
    cases = [
        (sm, lambda d: apply_move(d, MoveInstance("exchange", 0)), SchemaMismatch),
        (sm, lambda d: moves._rewrite_pair(d, 0, Split(0, Order.L, w("3/2")), Merge(1, Order.L)),
         NonPositiveWeight),
        (circles, lambda d: d.spliced(1, 0, [Cup(0, w("-1"), up), Cap(0)]), NonPositiveWeight),
        (exhausted, lambda d: moves._rewrite_pair(d, 0, split, Merge(1, Order.L)),
         PrecisionExhausted),
    ]
    for d, rewrite, error in cases:
        work = foamdiag._WorkingDiagram(d)
        with pytest.raises(error):
            rewrite(work)
        assert (work.events, work.slices) == (list(d.events), list(d.slices)), error
    work = foamdiag._WorkingDiagram(circles)
    got, made = moves.exchange_run(work, 0, 2)
    assert got is work and made == 1
    assert work.frozen() == moves.exchange_run(circles, 0, 1)[0] != circles


def test_a_moved_event_keeps_its_other_fields():
    """e._moved(p), the one way that exchanges and mirror move an event, is
    e at position p with every other field kept, for every oriented and
    planar event kind."""
    basis = demo_basis("r2")
    rng = random.Random(19)
    weights = [Weight.rational(basis, 1), Weight.generator(basis, "r2")]
    events = [E(rng.randint(0, 4), *_FIELDS[E](rng, weights)) for E in foamdiag.EVENT_KINDS]
    events += [PMerge(1), PSplit(2, weights[1]), PCup(0, weights[0]), PCap(3)]
    for e in events:
        for p in (0, e.pos, 6):
            moved = e._moved(p)
            assert type(moved) is type(e) and moved.pos == p, e
            assert all(getattr(moved, name) == getattr(e, name)
                       for name, _ in e.json_fields[1:]), e
