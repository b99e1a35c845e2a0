"""Local rewriting moves on sliced foam diagrams.

Two registries.  ``NU_SCHEMAS`` hold the cobordism moves of oriented
positively-weighted foams; every instance preserves nu and these are the
ones :func:`enumerate_moves` emits.  ``FLIP_SCHEMAS`` are the extra moves
available once flip (orientation-reversing) facets are allowed; they can
change nu and are only ever applied through explicit trace steps.

A move names a schema, the index of the first event it touches, and
params.  A schema applies :class:`Rule` sides: each local rewrite is
written once, and its reverse is the same rule with its sides swapped.

A rewrite leaves the slice above its window as it was, so a move builds
only the slices inside its window.  Most splice their new events in
(``SlicedDiagram.spliced``).  An exchange assembles its middle slice from
the slices around it, and :func:`exchange_run` makes a run of them: it
stops at the first event that overlaps and says how far it went.  A
two-event rewrite whose upper event is a merge or a split, such as a
vertex cobordism, applies only its lower event and keeps the slice above
(:func:`_rewrite_pair`); an upper split's two parts are the strands at its
position in that slice, so both are read there, not computed.  Each
rewrite checks its whole window before it hands it to the diagram's
``_with_window``: an immutable diagram gives a new one, which is what
:func:`apply_move` returns, and the one working diagram that
``flip_reduce`` or ``validate_trace`` holds is edited in place.  A rewrite
that raises leaves the diagram as it was; only a split-off's block is
checked after its rewrite is made (:func:`apply_move`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DslSemanticError, FoamError, NonPositiveWeight, SchemaMismatch
from .foamdiag import (EVENT_KINDS, Cap, Cup, Dir, Dot, FoamDiagram, Merge, Order, Split, Strand,
                       u_block_events)
from .weights import POSITIVE, Weight, weight_from_json


@dataclass
class MoveInstance:
    schema: str
    index: int
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        loc: dict = {"index": self.index}
        for key, val in self.params.items():
            loc[key] = val.to_json() if isinstance(val, Weight) else val
        return {"schema": self.schema, "location": loc}


def move_from_json(basis, obj) -> MoveInstance:
    """A move from its JSON record: a string ``schema`` and a ``location``
    object holding an integer ``index`` and the schema's params."""
    loc = obj.get("location") if isinstance(obj, dict) else None
    index = loc.get("index") if isinstance(loc, dict) else None
    if not (type(index) is int and isinstance(obj.get("schema"), str)):
        raise DslSemanticError(f"malformed move record {obj!r}")
    weights = {key for key, _, kind in _PARAMS.values() if kind is Weight}
    params = {
        key: weight_from_json(basis, val) if key in weights else val
        for key, val in loc.items() if key != "index"
    }
    return MoveInstance(obj["schema"], index, params)


# --- rewrite rules -------------------------------------------------------------

_KINDS = {cls.keyword: cls for cls in EVENT_KINDS} | {"event": object}
_LITERALS = {"L": "Order.L", "R": "Order.R", "U": "Dir.UP", "D": "Dir.DOWN"}

# Variable -> (move param, default, type), for the variables of an insertion.
_PARAMS = {"p": ("pos", None, int), "o": ("order", "L", Order), "d": ("dir", "u", Dir),
           "w": ("weight", None, Weight), "l": ("left", None, Weight)}
_FLAGS = {flag.value: flag for flag in (*Order, *Dir)}


def _param(params: dict, var: str):
    key, default, kind = _PARAMS[var]
    val = params.get(key, default)
    val = _FLAGS.get(val, val) if isinstance(val, str) else val
    if isinstance(val, kind) and not isinstance(val, bool):
        return val
    raise DslSemanticError(f"bad {key} {val!r}")


def _term(tok: str) -> tuple:
    """(variables, value, solve) of one field token: Python source for the
    field's value, and ``solve(var, v)``, the source of the variable ``var``
    given the source ``v`` of the value and the token's other variables."""
    if tok in _LITERALS:
        return (), _LITERALS[tok], None
    if tok.endswith("'"):
        return (tok[0],), f"{tok[0]}.flip()", lambda var, v: f"{v}.flip()"
    if len(tok) == 1:
        return (tok,), tok, lambda var, v: v
    x, op, y = tok

    def solve(var, v):
        if var == x:
            return f"{v} {'-' if op == '+' else '+'} {y}"
        return f"{v} - {x}" if op == "+" else f"{x} - {v}"

    return tuple(n for n in (x, y) if not n.isdigit()), f"{x} {op} {y}", solve


def _window(text: str) -> tuple:
    """(event classes, field checks, weight checks, event sources) of a side."""
    kinds, fields, weights, events = [], [], [], []
    for i, word in enumerate(filter(str.strip, text.split(";"))):
        keyword, *toks = word.split()
        cls = _KINDS[keyword]
        kinds.append(cls)
        for f, tok in zip(dataclasses.fields(cls) if toks else (), toks, strict=True):
            (weights if f.type == "Weight" else fields).append((f"e{i}.{f.name}", tok))
        events.append(f"{cls.__name__}({', '.join(_term(tok)[1] for tok in toks)})")
    return kinds, fields, weights, events


def _compile(side: list, checks: list, rewritten) -> None:
    """Put in ``side[1]`` the function ``(foam, k, params, apply)`` of a side
    ``[kinds, _, free]``: None where its window does not match at event k,
    else the diagram rewritten (``apply``) or the window's bindings.
    ``rewritten`` is the other side's window (:func:`_window`), or a
    one-way rule's function.  Two events that replace two, the upper one a
    merge or a split, go through :func:`_rewrite_pair`; other sides splice.
    There an upper split's left part is read from the slice above the
    window, which the rewrite keeps (``foam.slices[k + 2][pos].weight``),
    in place of the rule's weight term; the term stays in the rule, for the
    other side to solve from.  Each check solves for its one unbound
    variable, or tests.  The source compiles on first use, so that an
    import pays only for rules applied."""
    def first_call(*args):
        kinds, _, free = side
        n = len(kinds)
        body = ["events = foam.events", f"if k < 0 or k + {n} > len(events): return None"]
        if n:
            body += ["".join(f"e{i}, " for i in range(n)) + f"= events[k : k + {n}]",
                     "if not (" + " and ".join(f"isinstance(e{i}, {cls.__name__})"
                                               for i, cls in enumerate(kinds)) + "): return None"]
        body += [f"{v} = _param(params, {v!r})" for v in free]
        body += ["cur = foam.slices[k]"] if any(f.startswith("cur") for f, _ in checks) else []
        bound = list(free)
        for field, tok in checks:
            names, value, solve = _term(tok)
            unknown = [v for v in names if v not in bound]
            if unknown:
                (var,) = unknown
                bound.append(var)
                body.append(f"{var} = {solve(var, field)}")
            else:
                body.append(f"if {field} != {value}: return None")
        env = "{" + ", ".join(f"{v!r}: {v}" for v in bound) + "}"
        if callable(rewritten):
            new = f"rhs(foam, k, {env})"
        else:
            dst_kinds, dst_fields, _, events = rewritten
            new = f"foam.spliced(k, {n}, [{', '.join(events)}])"
            if n == 2 and len(dst_kinds) == 2 and dst_kinds[1] in (Merge, Split):
                if dst_kinds[1] is Split:  # its left part: the kept slice's strand at its position
                    pos, order = (_term(tok)[1] for f, tok in dst_fields if f.startswith("e1."))
                    events = [events[0], f"Split({pos}, {order}, foam.slices[k + 2][{pos}].weight)"]
                new = f"_rewrite_pair(foam, k, {', '.join(events)})"
        body.append(f"return {new} if apply else {env}")
        source = "def side(foam, k, params, apply):\n    " + "\n    ".join(body)
        scope = {cls.__name__: cls for cls in (*EVENT_KINDS, Order, Dir)}
        exec(source, scope | {"_param": _param, "rhs": rewritten, "_rewrite_pair": _rewrite_pair},
             scope)  # from the rule table
        side[1] = scope["side"]
        return side[1](*args)

    side[1] = first_call


class Rule:
    """A local rewrite between two event windows, written once.

    A window lists events separated by ``;``: a keyword (``event`` matches
    any event) and one token per field: a position ``p``, ``p+1``, ``p-1``;
    an order ``o``, its flip ``o'``, ``L`` or ``R``; a direction ``d``,
    ``d'``, ``U`` or ``D``; a weight ``w``, ``x+y`` or ``x-y``.  ``reads``
    binds strands of the slice below the window (``p+1: w d``: weight and
    direction of strand p+1).  Variables are single letters other than k.
    Matching binds each variable where it first occurs, solving a term with
    one unknown, and checks it elsewhere: positions, orders and directions,
    then reads, then weights.  Side 0 rewrites ``lhs`` into ``rhs``, side 1
    the reverse.  An empty side is an insertion that takes its variables
    from the move's params; a function ``rhs(d, k, env)`` makes a one-way
    rule.  ``sides[i]`` is ``[kinds, fn, free]``: ``fn(d, k, params,
    apply)`` is None where side i does not match at event k, else d with it
    rewritten (``apply``) or its bindings; ``free`` are the variables an
    insertion takes from params.  A side that puts a split on top of a
    two-event window reads that split's left part off the slice above
    rather than evaluating its weight term (:func:`_compile`); the term is
    still what the reverse side solves from."""

    def __init__(self, lhs: str, rhs="", reads: str = ""):
        self.texts = (lhs, rhs if isinstance(rhs, str) else "")
        wins = [_window(text) for text in self.texts]
        read_checks = []
        for part in filter(str.strip, reads.split(";")):
            at, toks = part.split(":")
            read_checks += [(f"cur[{_term(at.strip())[1]}].{name}", tok)
                            for name, tok in zip(("weight", "dir"), toks.split())]
        read_vars = {v for _, tok in read_checks for v in _term(tok)[0]}
        self.sides = []
        pairs = zip(wins, wins[::-1]) if isinstance(rhs, str) else [wins]  # one way: no side 1
        for (kinds, fields, weights, _), dst in pairs:
            names = dict.fromkeys(v for _, tok in dst[1] + dst[2] for v in _term(tok)[0])
            free = [] if kinds else [v for v in names if v not in read_vars]
            self.sides.append([kinds, None, free])
            _compile(self.sides[-1], fields + read_checks + weights, rhs if callable(rhs) else dst)


# --- moves that are not a fixed window ------------------------------------------


def _shifted(e, dp: int):
    return e._moved(e.pos + dp) if dp else e


_OVERLAP = "events overlap; exchange does not apply"


def _passed(e, f) -> tuple | None:
    """Events e and f above it, exchanged: f and then e, positions shifted;
    None where they overlap.  This is the exchange rule's one overlap test."""
    if f.pos >= e.pos + e.produces:
        return _shifted(f, e.consumes - e.produces), e
    if f.pos + f.consumes <= e.pos:
        return f, _shifted(e, f.produces - f.consumes)
    return None


def exchange_run(d: FoamDiagram, k: int, most: int) -> tuple[FoamDiagram, int]:
    """The exchanges at k, k+1, ... in turn, which move event k up past at
    most ``most`` events, and how many were made: the run stops before the
    first event that event k overlaps (:func:`_passed`), or at the top.  It
    returns ``(d, 0)`` where it makes none, also where k is not an event.

    It reads its window from the diagram as it goes, and the window goes to
    the diagram once (``_with_window``).  Only the middle slice of each
    exchange changes, and it is assembled from its neighbours without
    applying an event: the strands below, with the strands that the upper
    event f consumes replaced by the strands f produces, read from the
    slice above.  That is what f gives below the other event, because f
    reads only the strands it consumes, so the slices stay validated.
    :func:`_rewrite_pair` keeps the slice above a vertex rewrite the same
    way."""
    events, slices = d.events, d.slices
    if not 0 <= k < len(events):
        return d, 0
    e, below = events[k], slices[k]
    moved, middles = [], []
    for i in range(k, min(k + most, len(events) - 1)):
        f = events[i + 1]
        new = _passed(e, f)
        if new is None:
            break
        g, e = new
        q, above = g.pos, slices[i + 2]
        below = below[:q] + above[f.pos : f.pos + f.produces] + below[q + f.consumes :]
        moved.append(g)
        middles.append(below)
    made = len(moved)
    if not made:
        return d, 0
    return d._with_window(k, made + 1, moved + [e], k + made + 1, middles), made


def _exchanged(d: FoamDiagram, k: int, env: dict) -> FoamDiagram:
    """The exchange rule: :func:`exchange_run`'s one-step case."""
    d, made = exchange_run(d, k, 1)
    if not made:
        raise SchemaMismatch(_OVERLAP)
    return d


def _rewrite_pair(d: FoamDiagram, k: int, e, f, removed: int = 2,
                  mid: tuple | None = None) -> FoamDiagram:
    """d with its ``removed`` events from k replaced by e and then f, the
    merge or split f on top, where a rule's algebra makes the slice above
    them equal to the old slice above the window.  Only the middle slice is
    new: e applied to slice k (``step``), or ``mid`` where the caller built
    it; it goes to the diagram with the two events (``_with_window``).  The
    slice above comes from d, so f is checked only against what it reads:
    a merge, its range and equal directions; a split, its range and its
    left part and then its right part decided positive.  A compiled rule
    passes a split whose left part is the strand at its position in the
    slice above (:func:`_compile`), so both parts are read from that slice
    and no sum is made for them.  The identities that keep that slice, for
    the ``vertex_cobordism`` patterns and for the crossing split-off
    (:func:`_uncrossed`):

    - ``mm``: (a + b) + c = a + (b + c);
    - ``ss``: (s - m) - (l - m) = s - l, the right part of the upper split;
    - ``sm``: (w - l) + w' = (w + w') - l;
    - ``ms``: (b + s) - (b + l) = s - l;
    - the crossing: (a + b) - b = a.

    Where e or f does not validate, or a sign is undecided, it returns
    ``d.spliced``, which raises that splice's error.  Either way every
    check comes before the diagram changes."""
    end = k + removed
    try:
        if mid is None:
            mid = d.step(d.slices[k], e)
        n, top = len(mid), d.slices[end]
        if isinstance(f, Merge):
            ok = 0 <= f.pos <= n - 2 and mid[f.pos].dir == mid[f.pos + 1].dir
        else:
            ok = (0 <= f.pos < n and f.left.sign() == POSITIVE
                  and top[f.pos + 1].weight.sign() == POSITIVE)
        if ok:
            return d._with_window(k, removed, (e, f), end, (mid,))
    except FoamError:
        pass
    return d.spliced(k, removed, (e, f))


def _uncrossed(d: FoamDiagram, k: int, env: dict) -> FoamDiagram:
    """The parallel crossing at k of strands a and b as a merge and a split.
    The merge gives the middle strand a + b, built here, and the split gives
    b and (a + b) - b = a, the slice above the crossing, so no event is
    applied.  Its parts b and then a must be decided positive."""
    p, o = env["p"], Order.L if env["d"] is Dir.UP else Order.R
    cur = d.slices[k]
    mid = cur[:p] + (Strand(env["a"] + env["b"], env["d"]),) + cur[p + 2 :]
    return _rewrite_pair(d, k, Merge(p, o), Split(p, o, env["b"]), 1, mid)


# The split-off schemas, each ``schema: (rewrite, added, block, death)``.  A
# split-off rewrites its one-event window in place into ``added`` events,
# ``rewrite(d, k, env)``, and puts a separate component on at the right end:
# ``block(base, env)``, its events at strand ``base``, which the schema
# ``death`` deletes as its next step.
_SPLIT_OFFS = {
    "crossing_splitoff": (
        _uncrossed, 2, lambda base, env: u_block_events(base, env["a"], env["b"]), "u_ab_death"),
    "dot_splitoff": (
        lambda d, k, env: d.spliced(k, 1, []), 0,
        lambda base, env: [Cup(base, env["w"], Dir.UP), Dot(base), Cap(base)],
        "dotted_circle_death"),
}


def _split_off(schema: str):
    """The right-hand side of a split-off rule: the rewrite, then the block
    (see :func:`apply_move`)."""
    rewrite, _, block, _ = _SPLIT_OFFS[schema]

    def rhs(d: FoamDiagram, k: int, env: dict) -> FoamDiagram:
        base = len(d.slices[-1])
        out = rewrite(d, k, env)
        return out.spliced(len(out.events), 0, block(base, env))

    return rhs


# --- the registries: schema -> (selector params, their defaults, {selector
# values: (rule, side) alternatives, tried in order}) ----------------------------


def _fixed(*alternatives) -> tuple:
    return (), (), {(): alternatives}


def _directions(key: str, names: tuple, *rules) -> tuple:  # names[0] is the default
    return (key,), names[:1], {(name,): tuple((rule, side) for rule in rules)
                               for side, name in enumerate(names)}


_R3 = Rule("cross p; cross p+1; cross p", "cross p+1; cross p; cross p+1")
_ASSOC = {
    "mm": Rule("merge p o; merge p o", "merge p+1 o; merge p o"),
    "ss": Rule("split p o l; split p o m", "split p o m; split p+1 o l-m"),
    "sm": Rule("split p o l; merge p+1 o", "merge p o; split p o l"),
    "ms": Rule("split p o l; merge p-1 o", "merge p-1 o; split p-1 o b+l", "p-1: b"),
}
_SPLIT_MERGE = Rule("split p o l; merge p o")
_MERGE_SPLIT = Rule("merge p o; split p o w", "", "p: w")
_CIRCLE = Rule("cup p w d; cap p")
_DOTS = Rule("dot p; dot p")

NU_SCHEMAS: dict = {
    "exchange": _fixed((Rule("event; event", _exchanged), 0)),
    "r2": _fixed((Rule("cross p; cross p"), 0)),
    "kink": _fixed((Rule("cup p w d; cross p", "cup p w d'"), 0),
                   (Rule("cross p; cap p", "cap p"), 0)),
    "r3": _fixed((_R3, 0), (_R3, 1)),
    "vertex_flip": _directions(
        "dir", ("expand", "contract"),
        Rule("merge p o", "cross p; merge p o'"),
        Rule("split p o l", "split p o' w-l; cross p", "p: w")),
    "vertex_slide": _directions(
        "dir", ("expand", "contract"),
        Rule("merge p o; cross p", "cross p+1; cross p; merge p+1 o"),
        Rule("merge p o; cross p-1", "cross p-1; cross p; merge p-1 o"),
        Rule("cross p; split p+1 o l", "split p o l; cross p+1; cross p"),
        Rule("cross p; split p o l", "split p+1 o l; cross p; cross p+1")),
    "vertex_cobordism": (("pattern", "dir"), (None, "lr"), {
        (pattern, name): ((rule, side),)
        for pattern, rule in _ASSOC.items() for side, name in enumerate(("lr", "rl"))}),
    "singular_saddle": _fixed((_SPLIT_MERGE, 0), (_MERGE_SPLIT, 0)),
    "singular_cup": _fixed((_MERGE_SPLIT, 1)),
    "singular_cap": _fixed((_SPLIT_MERGE, 1)),
    "saddle": _directions("kind", ("remove", "insert"), Rule("cap p; cup p w d", "", "p: w d")),
    "circle_birth": _fixed((_CIRCLE, 1)),
    "circle_death": _fixed((_CIRCLE, 0)),
    "crossing_splitoff": _fixed((Rule("cross p", _split_off("crossing_splitoff"),
                                      "p: a d; p+1: b d"), 0)),
}

FLIP_SCHEMAS: dict = {
    "dot_cancel": _fixed((_DOTS, 0)),
    "dot_pair_birth": _fixed((_DOTS, 1)),
    "dot_through_vertex": _directions(
        "dir", ("expand", "contract"),
        Rule("merge p o; dot p", "dot p; dot p+1; merge p o'"),
        Rule("dot p; split p o l", "split p o' l; dot p; dot p+1")),
    "dot_splitoff": _fixed((Rule("dot p", _split_off("dot_splitoff"), "p: w"), 0)),
    "dotted_circle_death": _fixed((Rule("cup p w d; dot p; cap p"), 0),
                                  (Rule("cup p w d; dot p+1; cap p"), 0)),
    "u_ab_death": _fixed((Rule("cup p w D; split p+1 L l; cross p+1; merge p+1 L; cap p"), 0)),
    "cross_smooth": _fixed((Rule("cross p", "cap p; cup p w d'", "p: w d; p+1: w d'"), 0)),
}

ALL_SCHEMAS: dict = {**NU_SCHEMAS, **FLIP_SCHEMAS}

# Schema -> the params it reads: its selector keys and the params its
# insertion sides take.
_PARAM_KEYS = {
    schema: frozenset(keys).union(_PARAMS[var][0] for alternatives in options.values()
                                  for rule, side in alternatives for var in rule.sides[side][2])
    for schema, (keys, _, options) in ALL_SCHEMAS.items()
}


def _alternatives(schema: str, params: dict) -> tuple:
    """The (rule, side) alternatives of a schema under its selector params;
    a param that the schema does not read is refused."""
    if schema not in ALL_SCHEMAS:
        raise SchemaMismatch(f"unknown schema {schema!r}")
    keys, defaults, options = ALL_SCHEMAS[schema]
    for key in params:
        if key not in _PARAM_KEYS[schema]:
            raise SchemaMismatch(f"unknown param {key!r}")
    if not keys:
        return options[()]
    chosen = tuple(map(params.get, keys, defaults))
    try:
        return options[chosen]
    except (KeyError, TypeError):
        pass
    raise SchemaMismatch("bad " + ", ".join(f"{key} {val!r}" for key, val in zip(keys, chosen)))


def _candidates(*pairs) -> tuple:
    """Each ``(schema, params)`` pair with its alternatives, for
    :func:`_enumerated` and :func:`_first_applied`."""
    return tuple((schema, params, _alternatives(schema, params)) for schema, params in pairs)


def _rewritten(d: FoamDiagram, schema: str, k: int, params: dict, alternatives: tuple,
               apply: bool):
    """What the first of the alternatives that matches at event k gives:
    the diagram rewritten (``apply``) or the window's bindings; None where
    none matches.  Every ``SchemaMismatch`` it raises starts with
    ``<schema> at <k>:``."""
    try:
        for rule, side in alternatives:
            out = rule.sides[side][1](d, k, params, apply)
            if out is not None:
                return out
    except (SchemaMismatch, DslSemanticError, NonPositiveWeight) as exc:
        raise SchemaMismatch(f"{schema} at {k}: {exc}") from None
    except IndexError:
        raise SchemaMismatch(f"{schema} at {k}: position out of range") from None
    return None


def _first_applied(d: FoamDiagram, k: int, candidates: tuple, apply: bool = True):
    """The first candidate move whose rule matches at event k, matched
    once: ``(move, d rewritten)``, or with ``apply`` false ``(move, the
    window's bindings)``; None where no candidate matches.  Raises what
    :func:`apply_move` of that move raises."""
    for schema, params, alternatives in candidates:
        out = _rewritten(d, schema, k, params, alternatives, apply)
        if out is not None:
            return MoveInstance(schema, k, dict(params)), out
    return None


def _first_match(d: FoamDiagram, m: MoveInstance, apply: bool):
    """What the first alternative of m's schema that matches at m.index
    gives: the diagram rewritten (``apply``) or the window's bindings."""
    try:
        alternatives = _alternatives(m.schema, m.params)
    except SchemaMismatch as exc:
        raise SchemaMismatch(f"{m.schema} at {m.index}: {exc}") from None
    out = _rewritten(d, m.schema, m.index, m.params, alternatives, apply)
    if out is not None:
        return out
    windows = " or ".join(repr(rule.texts[side]) if rule.texts[side] else "insertion point"
                          for rule, side in alternatives)
    raise SchemaMismatch(f"{m.schema} at {m.index}: no {windows} here")


def apply_move(d: FoamDiagram, m: MoveInstance) -> FoamDiagram:
    """d rewritten by the move m: a new diagram, or a working diagram
    edited in place.  A split-off splices its block on after its rewrite
    is made.  The block fails only on start strands whose weights are not
    checked; on a working diagram that raise comes with the rewrite made,
    and it ends the replay of ``validate_trace``."""
    return _first_match(d, m, True)


def _death(d: FoamDiagram, m: MoveInstance) -> MoveInstance:
    """The move that deletes the block which the split-off m puts on d."""
    _, added, _, death = _SPLIT_OFFS[m.schema]
    return MoveInstance(death, len(d.events) + added - 1)


def split_off_and_kill(d: FoamDiagram, m: MoveInstance,
                       env: dict | None = None) -> tuple[FoamDiagram, MoveInstance]:
    """The split-off move m (``crossing_splitoff`` or ``dot_splitoff``)
    followed by the death of the block it puts on: the diagram after both
    steps and the death move.  Only the in-place rewrite is made, never the
    block nor the diagram that carries it; ``apply_move`` of m and then of
    the death move gives the same diagram, wherever the block's strand
    weights are positive.  ``env`` is m's window bindings, where the caller
    has matched m already."""
    death = _death(d, m)
    rewrite = _SPLIT_OFFS[m.schema][0]
    return rewrite(d, m.index, _first_match(d, m, False) if env is None else env), death


# The window candidates that enumerate_moves tries at each event, in order.
_AT_EVENT = _candidates(
    ("exchange", {}), ("r2", {}), ("kink", {}), ("r3", {}),
    ("vertex_flip", {"dir": "expand"}), ("vertex_flip", {"dir": "contract"}),
    ("vertex_slide", {"dir": "expand"}), ("vertex_slide", {"dir": "contract"}),
    ("singular_saddle", {}), ("saddle", {"kind": "remove"}), ("circle_death", {}),
    ("crossing_splitoff", {}),
    *(("vertex_cobordism", {"pattern": pattern, "dir": which})
      for pattern in ("mm", "ss", "sm", "ms") for which in ("lr", "rl")))


def _enumerated(d: FoamDiagram):
    """``(move, d rewritten by it)`` for each move of :func:`enumerate_moves`,
    in its order.  Each candidate is matched and applied in one call: the
    window candidates at each event first, then one insertion of each
    family per location."""
    for k in range(len(d.events)):
        for schema, params, alternatives in _AT_EVENT:
            try:
                out = _rewritten(d, schema, k, params, alternatives, True)
            except SchemaMismatch:
                continue
            if out is not None:
                yield MoveInstance(schema, k, dict(params)), out
    unit, half = Weight.rational(d.basis, 1), Fraction(1, 2)
    cands = []
    for k, cur in enumerate(d.slices):
        cands.append(MoveInstance("circle_birth", k, {"pos": 0, "weight": unit, "dir": "u"}))
        for p in range(len(cur)):
            cands.append(MoveInstance("singular_cap", k, {"pos": p, "order": "L",
                                                          "left": cur[p].weight.scale(half)}))
        for p in range(len(cur) - 1):
            if cur[p].dir == cur[p + 1].dir:
                cands.append(MoveInstance("singular_cup", k, {"pos": p, "order": "L"}))
            elif cur[p].weight == cur[p + 1].weight:
                cands.append(MoveInstance("saddle", k, {"kind": "insert", "pos": p}))
    for m in cands:
        try:
            out = apply_move(d, m)
        except SchemaMismatch:
            continue
        yield m, out


def enumerate_moves(d: FoamDiagram) -> list[MoveInstance]:
    """Every nu-preserving instance that applies to d, insertion families
    sampled one representative per location.  Each candidate is matched
    and applied once (:func:`_enumerated`), and kept only where its rule
    matches and its splice validates."""
    return [m for m, _ in _enumerated(d)]
