"""Sliced diagrams of oriented positively-weighted 1-foams.

A diagram is a list of strand slices separated by events; event k transforms
slice k into slice k+1.  Reading bottom to top, a Merge joins two adjacent
same-direction strands into their sum, a Split divides one strand in two,
a Cross transposes neighbours, Cup/Cap create/annihilate an antiparallel
pair, and Dot/Label carry decorations for the flip and group-label calculi.

The nu invariant sums one local contribution per vertex and crossing.  With
x = left and y = right weight at the event (page coordinates):

    Merge Up:   L -> 0        R -> x^y
    Split Up:   L -> 0        R -> y^x
    Merge Down: L -> x^y      R -> 0
    Split Down: L -> y^x      R -> 0
    Cross:      parallel strands -> x^y, antiparallel -> y^x
    Cup/Cap:    0

The L/R flag records which thin edge attaches first at the vertex.  This
table is the unique assignment (up to global relabelling) under which
flipping a flag equals composing with a crossing of the thin strands and
the closure of an interval exchange satisfies nu = SAF/2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .errors import (
    DslSemanticError,
    FlippedIet,
    InternalError,
    NonPositiveWeight,
    OpenDiagram,
    UnsupportedDecoration,
)
from .exterior import WedgeValue, wedge
from .iet import Iet, saf
from .weights import NEGATIVE, POSITIVE, GeneratorBasis, Weight

if TYPE_CHECKING:
    from .decorated import GroupLabel


class Dir(Enum):
    UP = "u"
    DOWN = "d"

    def flip(self) -> "Dir":
        return Dir.DOWN if self is Dir.UP else Dir.UP


class Order(Enum):
    L = "L"
    R = "R"

    def flip(self) -> "Order":
        return Order.R if self is Order.L else Order.L


@dataclass(frozen=True)
class Strand:
    weight: Weight
    dir: Dir

    def to_json(self) -> dict:
        return {"weight": self.weight.to_json(), "dir": self.dir.value}


# JSON form of each event field type, keyed by the annotation's name.  A
# codec returns the keys the field contributes to the event object.
_JSON_CODECS = {
    "int": lambda name, n: {name: n},
    "Order": lambda name, o: {name: o.value},
    "Dir": lambda name, d: {name: d.value},
    "Weight": lambda name, w: {name: w.to_json()},
    "GroupLabel": lambda name, g: {"free": list(g.free), "tors": list(g.tors)},
}


def event_kind(keyword: str, consumes: int, produces: int):
    """Class decorator for an event kind of a sliced diagram: a frozen
    dataclass whose first field is ``pos``, with its keyword, the number of
    strands it consumes at ``pos`` and produces in their place, and the JSON
    codec of each field.  Oriented and planar events share it.  Codecs are
    found by the field annotation's text, so the defining module must use
    postponed annotations."""

    def make(cls):
        cls = dataclass(frozen=True)(cls)
        cls.keyword, cls.consumes, cls.produces = keyword, consumes, produces
        cls.json_fields = tuple((f.name, _JSON_CODECS[f.type]) for f in fields(cls))
        return cls

    return make


@event_kind("merge", 2, 1)
class Merge:
    pos: int
    order: Order


@event_kind("split", 1, 2)
class Split:
    pos: int
    order: Order
    left: Weight  # weight of the left output strand


@event_kind("cross", 2, 2)
class Cross:
    pos: int


@event_kind("cup", 0, 2)
class Cup:
    pos: int
    weight: Weight
    dir: Dir  # direction of the left created strand


@event_kind("cap", 2, 0)
class Cap:
    pos: int


@event_kind("dot", 1, 1)
class Dot:
    pos: int


@event_kind("label", 1, 1)
class Label:
    pos: int
    g: GroupLabel


EVENT_KINDS = (Merge, Split, Cross, Cup, Cap, Dot, Label)

Event = object


def _positive(w: Weight, what: str) -> None:
    if w.sign() != POSITIVE:
        raise NonPositiveWeight(f"{what} must be positive, got {w}")


def apply_event(strands: tuple[Strand, ...], e: Event) -> tuple[Strand, ...]:
    """One step of the slice semantics; raises DslSemanticError when the
    event does not validate against the input slice."""
    n = len(strands)
    if isinstance(e, Merge):
        if not 0 <= e.pos <= n - 2:
            raise DslSemanticError(f"merge at {e.pos} needs two strands")
        a, b = strands[e.pos], strands[e.pos + 1]
        if a.dir != b.dir:
            raise DslSemanticError("merge of strands with different directions")
        joined = Strand(a.weight + b.weight, a.dir)
        return strands[: e.pos] + (joined,) + strands[e.pos + 2 :]
    if isinstance(e, Split):
        if not 0 <= e.pos < n:
            raise DslSemanticError(f"split at {e.pos}: no such strand")
        s = strands[e.pos]
        right = s.weight - e.left
        _positive(e.left, "left part of a split")
        _positive(right, "right part of a split")
        out = (Strand(e.left, s.dir), Strand(right, s.dir))
        return strands[: e.pos] + out + strands[e.pos + 1 :]
    if isinstance(e, Cross):
        if not 0 <= e.pos <= n - 2:
            raise DslSemanticError(f"cross at {e.pos} needs two strands")
        a, b = strands[e.pos], strands[e.pos + 1]
        return strands[: e.pos] + (b, a) + strands[e.pos + 2 :]
    if isinstance(e, Cup):
        if not 0 <= e.pos <= n:
            raise DslSemanticError(f"cup at {e.pos}: position out of range")
        _positive(e.weight, "cup weight")
        pair = (Strand(e.weight, e.dir), Strand(e.weight, e.dir.flip()))
        return strands[: e.pos] + pair + strands[e.pos :]
    if isinstance(e, Cap):
        if not 0 <= e.pos <= n - 2:
            raise DslSemanticError(f"cap at {e.pos} needs two strands")
        a, b = strands[e.pos], strands[e.pos + 1]
        if a.weight != b.weight:
            raise DslSemanticError("cap of strands with different weights")
        if a.dir == b.dir:
            raise DslSemanticError("cap of strands with equal directions")
        return strands[: e.pos] + strands[e.pos + 2 :]
    if isinstance(e, (Dot, Label)):
        if not 0 <= e.pos < n:
            raise DslSemanticError(f"decoration at {e.pos}: no such strand")
        return strands
    raise DslSemanticError(f"unknown event {e!r}")


def _extend_slices(step, slices: list, events: tuple, old: tuple = (), reuse_from: int = 0,
                   shift: int = 0) -> tuple:
    """All slices of ``events``, given the first ``len(slices)`` of them.

    Applies the remaining events one by one through ``step`` and names the
    failing event's index in the error.  With ``old`` slices, from index
    ``reuse_from`` on, it stops as soon as a computed slice equals
    ``old[i + shift]`` and takes the rest from ``old``: the events from there
    on are the old ones, which were validated against equal slices."""
    i = len(slices) - 1
    while i < len(events):
        if old and i >= reuse_from and slices[i] == old[i + shift]:
            return tuple(slices[:i]) + old[i + shift :]
        try:
            slices.append(step(slices[i], events[i]))
        except DslSemanticError as exc:
            raise DslSemanticError(f"event {i}: {exc}") from None
        i += 1
    return tuple(slices)


class SlicedDiagram:
    """Immutable sliced diagram: a start slice, a list of events, and the
    slices they derive; event k takes slice k to slice k+1.

    A subclass names its event ``kinds`` and its ``step``, the rule that
    takes a slice and an event to the next slice and raises
    DslSemanticError when the event does not validate against it.  The
    constructor applies every event in turn.  :meth:`spliced` recomputes
    only the slices a local change alters: it keeps the slices below the
    change, applies events from there, and reuses the old slices from the
    first recomputed slice past the change that equals its old counterpart.
    Both give the same slices and the same errors.  Diagrams are equal when
    they have the same type, basis, start and events."""

    __slots__ = ("basis", "start", "events", "slices")

    def __init__(self, basis: GeneratorBasis, start: Iterable, events: Iterable):
        self.basis = basis
        self.start = tuple(start)
        self.events = tuple(events)
        self.slices = _extend_slices(self.step, [self.start], self.events)

    @classmethod
    def _from_slices(cls, basis: GeneratorBasis, start: tuple, events: tuple, slices: tuple):
        """The diagram whose slices are already computed and validated."""
        d = object.__new__(cls)
        d.basis, d.start, d.events, d.slices = basis, start, events, slices
        return d

    def spliced(self, k: int, removed: int, added: Iterable):
        """The diagram with ``events[k:k+removed]`` replaced by ``added``."""
        if not 0 <= k <= k + removed <= len(self.events):
            raise IndexError(f"splice of {removed} events at {k} out of range")
        added = tuple(added)
        events = self.events[:k] + added + self.events[k + removed :]
        slices = _extend_slices(self.step, list(self.slices[: k + 1]), events, self.slices,
                                k + len(added), removed - len(added))
        return self._from_slices(self.basis, self.start, events, slices)

    def replace_events(self, events: Iterable):
        return type(self)(self.basis, self.start, events)

    def is_closed(self) -> bool:
        return not self.slices[0] and not self.slices[-1]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.basis == other.basis
            and self.start == other.start
            and self.events == other.events
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.start, self.events))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.start)} start strands, {len(self.events)} events)"

    def to_json(self) -> dict:
        return {
            "start": [s.to_json() for s in self.start],
            "events": [event_to_json(e) for e in self.events],
        }


class FoamDiagram(SlicedDiagram):
    """Sliced diagram of an oriented foam: slices are tuples of Strands."""

    __slots__ = ()

    kinds = EVENT_KINDS

    # Its own entry, so that the benchmark tracer can wrap this class's
    # construction alone (perfbench/tracer.py).
    __init__ = SlicedDiagram.__init__

    @staticmethod
    def step(cur: tuple[Strand, ...], e: Event) -> tuple[Strand, ...]:
        # apply_event is looked up at call time, so a wrapper rebound over
        # the module-level name sees every slice computed.
        return apply_event(cur, e)

    def has_dots(self) -> bool:
        return any(isinstance(e, Dot) for e in self.events)

    def has_labels(self) -> bool:
        return any(isinstance(e, Label) for e in self.events)


def event_to_json(e) -> dict:
    """JSON object of an oriented or planar event."""
    out = {"event": e.keyword}
    for name, encode in e.json_fields:
        out.update(encode(name, getattr(e, name)))
    return out


def reflected(e, width: int, **changes):
    """e at its mirror position in a slice of the given width, with the
    given fields changed."""
    return replace(e, pos=width - e.consumes - e.pos, **changes)


def vertex_contribution(kind: str, order: Order, d: Dir, x: Weight, y: Weight) -> WedgeValue:
    """Local nu value of a merge/split with left thin weight x, right y."""
    zero_order = Order.L if d is Dir.UP else Order.R
    if order is zero_order:
        return WedgeValue.zero(x.basis)
    if kind == "merge":
        return wedge(x, y)
    return wedge(y, x)


def cross_contribution(a: Strand, b: Strand) -> WedgeValue:
    if a.dir == b.dir:
        return wedge(a.weight, b.weight)
    return wedge(b.weight, a.weight)


def nu(d: FoamDiagram) -> WedgeValue:
    """Sum of local contributions; the complete invariant on closed diagrams."""
    if not d.is_closed():
        raise OpenDiagram("nu needs a closed diagram")
    if d.has_dots() or d.has_labels():
        raise UnsupportedDecoration("nu is defined for undecorated diagrams")
    return nu_events(d)


def nu_events(d: FoamDiagram) -> WedgeValue:
    """Local contribution sum, ignoring closure and decorations."""
    acc = WedgeValue.zero(d.basis)
    for cur, e in zip(d.slices, d.events):
        if isinstance(e, Merge):
            a, b = cur[e.pos], cur[e.pos + 1]
            acc = acc + vertex_contribution("merge", e.order, a.dir, a.weight, b.weight)
        elif isinstance(e, Split):
            s = cur[e.pos]
            acc = acc + vertex_contribution("split", e.order, s.dir, e.left, s.weight - e.left)
        elif isinstance(e, Cross):
            acc = acc + cross_contribution(cur[e.pos], cur[e.pos + 1])
    return acc


def classify(d: FoamDiagram) -> WedgeValue:
    """nu(d); the diagram is null-cobordant iff the result is zero."""
    return nu(d)


def iet_closure(t: Iet) -> FoamDiagram:
    """Closed diagram of the braid-like foam of t: split the total strand
    into the pieces, wire the permutation by insertion sort (crossings are
    exactly the inversions), merge in target order, and close up.  All
    vertices use the zero-contributing flag, so nu = SAF/2 term by term."""
    if t.is_flipped():
        raise FlippedIet("closure is defined for unflipped IETs")
    events: list[Event] = [Cup(0, t.total, Dir.DOWN)]
    for i in range(t.r - 1):
        events.append(Split(1 + i, Order.L, t.lengths[i]))
    ranks = list(t.perm)
    changed = True
    while changed:
        changed = False
        for j in range(len(ranks) - 1):
            if ranks[j] > ranks[j + 1]:
                ranks[j], ranks[j + 1] = ranks[j + 1], ranks[j]
                events.append(Cross(1 + j))
                changed = True
    for _ in range(t.r - 1):
        events.append(Merge(1, Order.L))
    events.append(Cap(0))
    d = FoamDiagram(t.basis, [], events)
    if nu(d) != saf(t).scale("1/2"):
        raise InternalError("closure postcondition nu == SAF/2 violated")
    return d


def disjoint_union(a: FoamDiagram, b: FoamDiagram) -> FoamDiagram:
    """Place b to the right of a.  Both must be closed."""
    if not (a.is_closed() and b.is_closed()):
        raise OpenDiagram("disjoint union of open diagrams is not supported")
    return a.replace_events(list(a.events) + list(b.events))


def mirror(d: FoamDiagram) -> FoamDiagram:
    """Left-right reflection: nu negates on closed diagrams.

    Order flags are kept letter-for-letter: the flag encoding is relative
    to the strand direction, and reflection preserves which vertices are
    the zero-contributing kind while swapping the left/right thin roles,
    so every vertex term negates (as does every crossing term)."""
    new_events: list[Event] = []
    for cur, e in zip(d.slices, d.events):
        fix = {}
        if isinstance(e, Split):
            fix = {"left": cur[e.pos].weight - e.left}
        elif isinstance(e, Cup):
            fix = {"dir": e.dir.flip()}
        new_events.append(reflected(e, len(cur), **fix))
    return FoamDiagram(d.basis, tuple(reversed(d.start)), new_events)


def u_block_events(base: int, a: Weight, b: Weight) -> list[Event]:
    """Event block of the standard crossing foam with nu = a^b, inserted as
    a separate component at strand position ``base``."""
    return [
        Cup(base, a + b, Dir.DOWN),
        Split(base + 1, Order.L, a),
        Cross(base + 1),
        Merge(base + 1, Order.L),
        Cap(base),
    ]


def u_diagram(a: Weight, b: Weight) -> FoamDiagram:
    return FoamDiagram(a.basis, [], u_block_events(0, a, b))


def circle(w: Weight, d: Dir = Dir.UP) -> FoamDiagram:
    return FoamDiagram(w.basis, [], [Cup(0, w, d), Cap(0)])


def zerofoam_class(points: Iterable[tuple[int, Weight]]) -> Weight:
    """Invariant of a weighted oriented 0-foam: the signed weight sum."""
    points = list(points)
    if not points:
        raise DslSemanticError("zerofoam_class of nothing: pass at least one basis")
    basis = points[0][1].basis
    acc = Weight(basis, {})
    for sign, w in points:
        if w.sign() != POSITIVE:
            raise NonPositiveWeight(f"0-foam point weight {w} is not positive")
        if sign not in (POSITIVE, NEGATIVE):
            raise DslSemanticError("0-foam point sign must be +1 or -1")
        acc = acc + (w if sign == POSITIVE else -w)
    return acc
