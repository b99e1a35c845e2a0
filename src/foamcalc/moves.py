"""Local rewriting moves on sliced foam diagrams.

Two registries.  ``NU_SCHEMAS`` hold the cobordism moves of oriented
positively-weighted foams; every instance preserves nu and these are the
ones :func:`enumerate_moves` emits.  ``FLIP_SCHEMAS`` are the extra moves
available once flip (orientation-reversing) facets are allowed; they can
change nu and are only ever applied through explicit trace steps.

A move is addressed by schema name, the index of the first event it
touches, and schema-specific params.  Appliers validate the local pattern
and raise :class:`SchemaMismatch` when it is absent.  Every move is one or
two splices (:meth:`FoamDiagram.spliced`): the new events are validated
slice by slice from the splice point until a slice equals the old one at
the aligned index, and the old slices above it are reused.  The result is
the diagram a full rebuild would give, with the same errors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import DslSemanticError, NonPositiveWeight, SchemaMismatch
from .foamdiag import (
    Cap,
    Cross,
    Cup,
    Dir,
    Dot,
    Event,
    FoamDiagram,
    Merge,
    Order,
    Split,
    u_block_events,
)
from .weights import Weight, weight_from_json


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


_WEIGHT_PARAMS = {"weight", "left"}


def move_from_json(basis, obj: dict) -> MoveInstance:
    try:
        schema = obj["schema"]
        loc = dict(obj["location"])
        index = int(loc.pop("index"))
    except (KeyError, TypeError, ValueError):
        raise DslSemanticError(f"malformed move record {obj!r}") from None
    params = {
        key: weight_from_json(basis, val) if key in _WEIGHT_PARAMS else val
        for key, val in loc.items()
    }
    return MoveInstance(schema, index, params)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaMismatch(msg)


def _order(params: dict, key: str = "order") -> Order:
    val = params.get(key, "L")
    _check(val in ("L", "R"), f"bad order flag {val!r}")
    return Order(val)


def _dir(params: dict, key: str = "dir") -> Dir:
    val = params.get(key, "u")
    _check(val in ("u", "d"), f"bad direction {val!r}")
    return Dir(val)


def _shift(e: Event, dp: int) -> Event:
    return dataclasses.replace(e, pos=e.pos + dp) if dp else e


def _pair(d: FoamDiagram, k: int) -> tuple[Event, Event]:
    _check(0 <= k <= len(d.events) - 2, "needs two consecutive events")
    return d.events[k], d.events[k + 1]


def _triple(d: FoamDiagram, k: int) -> tuple[Event, Event, Event]:
    _check(0 <= k <= len(d.events) - 3, "needs three consecutive events")
    return d.events[k], d.events[k + 1], d.events[k + 2]


# --- nu-preserving schemas ---------------------------------------------------


def _apply_exchange(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    e, f = _pair(d, k)
    p, q = e.pos, f.pos
    if q >= p + e.produces:
        new = [_shift(f, e.consumes - e.produces), e]
    elif q + f.consumes <= p:
        new = [f, _shift(e, f.produces - f.consumes)]
    else:
        raise SchemaMismatch("events overlap; exchange does not apply")
    return d.spliced(k, 2, new)


def _apply_r2(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    e, f = _pair(d, k)
    _check(isinstance(e, Cross) and isinstance(f, Cross) and e.pos == f.pos,
           "no double crossing here")
    return d.spliced(k, 2, [])


def _apply_kink(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    e, f = _pair(d, k)
    if isinstance(e, Cup) and isinstance(f, Cross) and f.pos == e.pos:
        return d.spliced(k, 2, [Cup(e.pos, e.weight, e.dir.flip())])
    if isinstance(e, Cross) and isinstance(f, Cap) and f.pos == e.pos:
        return d.spliced(k, 2, [Cap(e.pos)])
    raise SchemaMismatch("no kink here")


def _apply_r3(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    e, f, g = _triple(d, k)
    _check(all(isinstance(x, Cross) for x in (e, f, g)), "three crossings needed")
    p = e.pos
    if f.pos == p + 1 and g.pos == p:
        return d.spliced(k, 3, [Cross(p + 1), Cross(p), Cross(p + 1)])
    if f.pos == p - 1 and g.pos == p:
        return d.spliced(k, 3, [Cross(p - 1), Cross(p), Cross(p - 1)])
    raise SchemaMismatch("crossings are not in braid-relation position")


def _apply_vertex_flip(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    which = params.get("dir", "expand")
    if which == "expand":
        _check(0 <= k < len(d.events), "no event here")
        e = d.events[k]
        if isinstance(e, Merge):
            return d.spliced(k, 1, [Cross(e.pos), Merge(e.pos, e.order.flip())])
        if isinstance(e, Split):
            w = d.slices[k][e.pos].weight
            return d.spliced(k, 1, [Split(e.pos, e.order.flip(), w - e.left), Cross(e.pos)])
        raise SchemaMismatch("vertex_flip expands a merge or a split")
    if which == "contract":
        e, f = _pair(d, k)
        if isinstance(e, Cross) and isinstance(f, Merge) and f.pos == e.pos:
            return d.spliced(k, 2, [Merge(f.pos, f.order.flip())])
        if isinstance(e, Split) and isinstance(f, Cross) and f.pos == e.pos:
            w = d.slices[k][e.pos].weight
            return d.spliced(k, 2, [Split(e.pos, e.order.flip(), w - e.left)])
        raise SchemaMismatch("no crossing-vertex pair to contract")
    raise SchemaMismatch(f"bad vertex_flip direction {which!r}")


def _apply_vertex_slide(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    which = params.get("dir", "expand")
    if which == "expand":
        e, f = _pair(d, k)
        if isinstance(e, Merge) and isinstance(f, Cross):
            p = e.pos
            if f.pos == p:
                return d.spliced(k, 2, [Cross(p + 1), Cross(p), Merge(p + 1, e.order)])
            if f.pos == p - 1:
                q = p - 1
                return d.spliced(k, 2, [Cross(q), Cross(q + 1), Merge(q, e.order)])
        if isinstance(e, Cross) and isinstance(f, Split):
            p = e.pos
            if f.pos == p + 1:
                return d.spliced(k, 2, [Split(p, f.order, f.left), Cross(p + 1), Cross(p)])
            if f.pos == p:
                return d.spliced(k, 2, [Split(p + 1, f.order, f.left), Cross(p), Cross(p + 1)])
        raise SchemaMismatch("no vertex-crossing pair to slide")
    if which == "contract":
        e, f, g = _triple(d, k)
        if isinstance(e, Cross) and isinstance(f, Cross) and isinstance(g, Merge):
            q = e.pos
            if f.pos == q - 1 and g.pos == q:
                return d.spliced(k, 3, [Merge(q - 1, g.order), Cross(q - 1)])
            if f.pos == q + 1 and g.pos == q:
                return d.spliced(k, 3, [Merge(q + 1, g.order), Cross(q)])
        if isinstance(e, Split) and isinstance(f, Cross) and isinstance(g, Cross):
            p = e.pos
            if f.pos == p + 1 and g.pos == p:
                return d.spliced(k, 3, [Cross(p), Split(p + 1, e.order, e.left)])
            if f.pos == p - 1 and g.pos == p:
                return d.spliced(k, 3, [Cross(p - 1), Split(p - 1, e.order, e.left)])
        raise SchemaMismatch("no slid vertex to contract")
    raise SchemaMismatch(f"bad vertex_slide direction {which!r}")


def _apply_vertex_cobordism(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    pattern = params.get("pattern")
    which = params.get("dir", "lr")
    e, f = _pair(d, k)
    if pattern == "mm":
        ok = isinstance(e, Merge) and isinstance(f, Merge) and e.order == f.order
        if which == "lr":
            _check(ok and f.pos == e.pos, "no left-associated merge pair")
            return d.spliced(k, 2, [Merge(e.pos + 1, e.order), Merge(e.pos, e.order)])
        _check(ok and f.pos == e.pos - 1, "no right-associated merge pair")
        return d.spliced(k, 2, [Merge(e.pos - 1, e.order), Merge(e.pos - 1, e.order)])
    if pattern == "ss":
        ok = isinstance(e, Split) and isinstance(f, Split) and e.order == f.order
        if which == "lr":
            _check(ok and f.pos == e.pos, "no left-associated split pair")
            return d.spliced(k, 2, [Split(e.pos, e.order, f.left),
                                    Split(e.pos + 1, e.order, e.left - f.left)])
        _check(ok and f.pos == e.pos + 1, "no right-associated split pair")
        return d.spliced(k, 2, [Split(e.pos, e.order, e.left + f.left),
                                Split(e.pos, e.order, e.left)])
    if pattern == "sm":
        if which == "lr":
            _check(isinstance(e, Split) and isinstance(f, Merge)
                   and f.pos == e.pos + 1 and e.order == f.order,
                   "no split-then-right-merge pair")
            return d.spliced(k, 2, [Merge(e.pos, e.order), Split(e.pos, e.order, e.left)])
        _check(isinstance(e, Merge) and isinstance(f, Split)
               and f.pos == e.pos and e.order == f.order,
               "no merge-then-split pair")
        return d.spliced(k, 2, [Split(e.pos, e.order, f.left), Merge(e.pos + 1, e.order)])
    if pattern == "ms":
        if which == "lr":
            _check(isinstance(e, Split) and isinstance(f, Merge)
                   and f.pos == e.pos - 1 and e.order == f.order,
                   "no split-then-left-merge pair")
            b = d.slices[k][e.pos - 1].weight
            return d.spliced(k, 2, [Merge(e.pos - 1, e.order),
                                    Split(e.pos - 1, e.order, b + e.left)])
        _check(isinstance(e, Merge) and isinstance(f, Split)
               and f.pos == e.pos and e.order == f.order,
               "no merge-then-split pair")
        b = d.slices[k][e.pos].weight
        return d.spliced(k, 2, [Split(e.pos + 1, e.order, f.left - b), Merge(e.pos, e.order)])
    raise SchemaMismatch(f"bad vertex_cobordism pattern {pattern!r}")


def _apply_singular_saddle(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    e, f = _pair(d, k)
    if isinstance(e, Split) and isinstance(f, Merge):
        _check(f.pos == e.pos and f.order == e.order, "merge does not undo the split")
        return d.spliced(k, 2, [])
    if isinstance(e, Merge) and isinstance(f, Split):
        _check(f.pos == e.pos and f.order == e.order, "split does not undo the merge")
        _check(f.left == d.slices[k][e.pos].weight, "split does not recreate the merged pair")
        return d.spliced(k, 2, [])
    raise SchemaMismatch("no cancelling vertex pair here")


def _apply_singular_cup(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    _check(0 <= k <= len(d.events), "insertion point out of range")
    pos, o = params.get("pos"), _order(params)
    cur = d.slices[k]
    _check(isinstance(pos, int) and 0 <= pos <= len(cur) - 2, "needs two strands")
    _check(cur[pos].dir == cur[pos + 1].dir, "strands must be parallel")
    return d.spliced(k, 0, [Merge(pos, o), Split(pos, o, cur[pos].weight)])


def _apply_singular_cap(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    _check(0 <= k <= len(d.events), "insertion point out of range")
    pos, o = params.get("pos"), _order(params)
    cur = d.slices[k]
    _check(isinstance(pos, int) and 0 <= pos < len(cur), "no such strand")
    left = params.get("left")
    _check(isinstance(left, Weight), "singular_cap needs the left weight")
    return d.spliced(k, 0, [Split(pos, o, left), Merge(pos, o)])


def _apply_saddle(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    kind = params.get("kind", "remove")
    if kind == "remove":
        e, f = _pair(d, k)
        _check(isinstance(e, Cap) and isinstance(f, Cup) and f.pos == e.pos,
               "no cap-then-cup pair")
        a = d.slices[k][e.pos]
        _check(f.weight == a.weight and f.dir == a.dir,
               "cup does not recreate the capped strands")
        return d.spliced(k, 2, [])
    if kind == "insert":
        _check(0 <= k <= len(d.events), "insertion point out of range")
        pos = params.get("pos")
        cur = d.slices[k]
        _check(isinstance(pos, int) and 0 <= pos <= len(cur) - 2, "needs two strands")
        a, b = cur[pos], cur[pos + 1]
        _check(a.weight == b.weight and a.dir != b.dir,
               "strands must be antiparallel with equal weights")
        return d.spliced(k, 0, [Cap(pos), Cup(pos, a.weight, a.dir)])
    raise SchemaMismatch(f"bad saddle kind {kind!r}")


def _apply_circle_birth(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    _check(0 <= k <= len(d.events), "insertion point out of range")
    pos, w, dr = params.get("pos"), params.get("weight"), _dir(params)
    _check(isinstance(pos, int) and isinstance(w, Weight), "circle_birth needs pos and weight")
    return d.spliced(k, 0, [Cup(pos, w, dr), Cap(pos)])


def _apply_circle_death(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    e, f = _pair(d, k)
    _check(isinstance(e, Cup) and isinstance(f, Cap) and f.pos == e.pos,
           "no cup-then-cap circle here")
    return d.spliced(k, 2, [])


def _apply_crossing_splitoff(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    _check(0 <= k < len(d.events), "no event here")
    e = d.events[k]
    _check(isinstance(e, Cross), "no crossing here")
    a, b = d.slices[k][e.pos], d.slices[k][e.pos + 1]
    _check(a.dir == b.dir, "split-off needs a parallel crossing")
    o = Order.L if a.dir is Dir.UP else Order.R
    base = len(d.slices[-1])
    d = d.spliced(k, 1, [Merge(e.pos, o), Split(e.pos, o, b.weight)])
    return d.spliced(len(d.events), 0, u_block_events(base, a.weight, b.weight))


# --- flip-land schemas (trace-only) ------------------------------------------


def _apply_dot_cancel(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    e, f = _pair(d, k)
    _check(isinstance(e, Dot) and isinstance(f, Dot) and f.pos == e.pos,
           "no adjacent dot pair")
    return d.spliced(k, 2, [])


def _apply_dot_pair_birth(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    _check(0 <= k <= len(d.events), "insertion point out of range")
    pos = params.get("pos")
    _check(isinstance(pos, int) and 0 <= pos < len(d.slices[k]), "no such strand")
    return d.spliced(k, 0, [Dot(pos), Dot(pos)])


def _apply_dot_through_vertex(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    which = params.get("dir", "expand")
    if which == "expand":
        e, f = _pair(d, k)
        if isinstance(e, Merge) and isinstance(f, Dot) and f.pos == e.pos:
            return d.spliced(k, 2,
                             [Dot(e.pos), Dot(e.pos + 1), Merge(e.pos, e.order.flip())])
        if isinstance(e, Dot) and isinstance(f, Split) and f.pos == e.pos:
            return d.spliced(k, 2,
                             [Split(f.pos, f.order.flip(), f.left), Dot(f.pos), Dot(f.pos + 1)])
        raise SchemaMismatch("no dot against a vertex here")
    if which == "contract":
        e, f, g = _triple(d, k)
        if (isinstance(e, Dot) and isinstance(f, Dot) and isinstance(g, Merge)
                and e.pos == g.pos and f.pos == g.pos + 1):
            return d.spliced(k, 3, [Merge(g.pos, g.order.flip()), Dot(g.pos)])
        if (isinstance(e, Split) and isinstance(f, Dot) and isinstance(g, Dot)
                and f.pos == e.pos and g.pos == e.pos + 1):
            return d.spliced(k, 3, [Dot(e.pos), Split(e.pos, e.order.flip(), e.left)])
        raise SchemaMismatch("no dotted vertex to contract")
    raise SchemaMismatch(f"bad dot_through_vertex direction {which!r}")


def _apply_dot_splitoff(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    _check(0 <= k < len(d.events), "no event here")
    e = d.events[k]
    _check(isinstance(e, Dot), "no dot here")
    w = d.slices[k][e.pos].weight
    base = len(d.slices[-1])
    d = d.spliced(k, 1, [])
    return d.spliced(len(d.events), 0, [Cup(base, w, Dir.UP), Dot(base), Cap(base)])


def _apply_dotted_circle_death(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    e, f, g = _triple(d, k)
    _check(isinstance(e, Cup) and isinstance(f, Dot) and isinstance(g, Cap)
           and g.pos == e.pos and f.pos in (e.pos, e.pos + 1),
           "no dotted circle here")
    return d.spliced(k, 3, [])


def _apply_u_ab_death(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    _check(0 <= k <= len(d.events) - 5, "needs five consecutive events")
    e0, e1, e2, e3, e4 = d.events[k : k + 5]
    p = e0.pos if isinstance(e0, Cup) else -1
    _check(
        isinstance(e0, Cup) and e0.dir is Dir.DOWN
        and isinstance(e1, Split) and e1.pos == p + 1 and e1.order is Order.L
        and isinstance(e2, Cross) and e2.pos == p + 1
        and isinstance(e3, Merge) and e3.pos == p + 1 and e3.order is Order.L
        and isinstance(e4, Cap) and e4.pos == p,
        "no standard crossing-foam block here",
    )
    return d.spliced(k, 5, [])


def _apply_cross_smooth(d: FoamDiagram, k: int, params: dict) -> FoamDiagram:
    _check(0 <= k < len(d.events), "no event here")
    e = d.events[k]
    _check(isinstance(e, Cross), "no crossing here")
    a, b = d.slices[k][e.pos], d.slices[k][e.pos + 1]
    _check(a.dir != b.dir and a.weight == b.weight,
           "smoothing needs an antiparallel equal-weight crossing")
    return d.spliced(k, 1, [Cap(e.pos), Cup(e.pos, a.weight, a.dir.flip())])


NU_SCHEMAS: dict = {
    "exchange": _apply_exchange,
    "r2": _apply_r2,
    "kink": _apply_kink,
    "r3": _apply_r3,
    "vertex_flip": _apply_vertex_flip,
    "vertex_slide": _apply_vertex_slide,
    "vertex_cobordism": _apply_vertex_cobordism,
    "singular_saddle": _apply_singular_saddle,
    "singular_cup": _apply_singular_cup,
    "singular_cap": _apply_singular_cap,
    "saddle": _apply_saddle,
    "circle_birth": _apply_circle_birth,
    "circle_death": _apply_circle_death,
    "crossing_splitoff": _apply_crossing_splitoff,
}

FLIP_SCHEMAS: dict = {
    "dot_cancel": _apply_dot_cancel,
    "dot_pair_birth": _apply_dot_pair_birth,
    "dot_through_vertex": _apply_dot_through_vertex,
    "dot_splitoff": _apply_dot_splitoff,
    "dotted_circle_death": _apply_dotted_circle_death,
    "u_ab_death": _apply_u_ab_death,
    "cross_smooth": _apply_cross_smooth,
}

ALL_SCHEMAS: dict = {**NU_SCHEMAS, **FLIP_SCHEMAS}


def apply_move(d: FoamDiagram, m: MoveInstance) -> FoamDiagram:
    applier = ALL_SCHEMAS.get(m.schema)
    if applier is None:
        raise SchemaMismatch(f"unknown schema {m.schema!r}")
    try:
        return applier(d, m.index, m.params)
    except (DslSemanticError, NonPositiveWeight) as exc:
        raise SchemaMismatch(f"{m.schema} at {m.index}: {exc}") from None
    except IndexError:
        raise SchemaMismatch(f"{m.schema} at {m.index}: position out of range") from None


def enumerate_moves(d: FoamDiagram) -> list[MoveInstance]:
    """Every nu-preserving instance that applies to d, insertion families
    sampled one representative per location."""
    unit = Weight.rational(d.basis, 1)
    cands: list[MoveInstance] = []
    n = len(d.events)
    for k in range(n):
        cands += [
            MoveInstance("exchange", k),
            MoveInstance("r2", k),
            MoveInstance("kink", k),
            MoveInstance("r3", k),
            MoveInstance("vertex_flip", k, {"dir": "expand"}),
            MoveInstance("vertex_flip", k, {"dir": "contract"}),
            MoveInstance("vertex_slide", k, {"dir": "expand"}),
            MoveInstance("vertex_slide", k, {"dir": "contract"}),
            MoveInstance("singular_saddle", k),
            MoveInstance("saddle", k, {"kind": "remove"}),
            MoveInstance("circle_death", k),
            MoveInstance("crossing_splitoff", k),
        ]
        for pattern in ("mm", "ss", "sm", "ms"):
            for which in ("lr", "rl"):
                cands.append(MoveInstance("vertex_cobordism", k,
                                          {"pattern": pattern, "dir": which}))
    for k in range(n + 1):
        cur = d.slices[k]
        cands.append(MoveInstance("circle_birth", k,
                                  {"pos": 0, "weight": unit, "dir": "u"}))
        for p in range(len(cur)):
            cands.append(MoveInstance("singular_cap", k,
                                      {"pos": p, "order": "L",
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
