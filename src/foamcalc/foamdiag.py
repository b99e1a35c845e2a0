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

from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import (
    DslSemanticError,
    FlippedIet,
    InternalError,
    NonPositiveWeight,
    OpenDiagram,
    UnsupportedDecoration,
)
from .exterior import WedgeValue, wedge_sum
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
    postponed annotations.  ``e._moved(pos)`` is e at strand ``pos``, built
    positionally."""

    def make(cls):
        cls = dataclass(frozen=True)(cls)
        cls.keyword, cls.consumes, cls.produces = keyword, consumes, produces
        cls.json_fields = tuple((f.name, _JSON_CODECS[f.type]) for f in fields(cls))
        rest = "".join(f", e.{name}" for name, _ in cls.json_fields[1:])
        cls._moved = eval(f"lambda e, pos: cls(pos{rest})", {"cls": cls})  # from the fields
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


def _extend_slices(step, cur: tuple, added: Iterable, k: int = 0, events=(), end: int = 0,
                   old=()) -> tuple[list, int]:
    """The slices above slice k ``cur`` of the events ``added`` followed by
    ``events[end:]``, and where they stop.

    Applies the events one by one through ``step`` into a short list and
    names the failing event's index, counting ``added`` from k, in a
    DslSemanticError or a NonPositiveWeight, keeping its class.  Past
    ``added``, it stops as soon as a computed slice equals ``old[j]``, the
    old slice below event j of ``events``: the events from there on are the
    old ones, which were validated against equal slices.  Returns the
    computed slices above ``cur`` and where the old ones resume, j + 1 or
    ``len(old)`` at the top: they replace ``old[k + 1 : stop]``."""
    new = [cur]
    for i, e in enumerate(added, k):
        try:
            new.append(step(new[-1], e))
        except (DslSemanticError, NonPositiveWeight) as exc:
            raise type(exc)(f"event {i}: {exc}") from None
    shift = len(new) - 1 + k - end
    for j in range(end, len(events)):
        if new[-1] == old[j]:
            return new[1:], j + 1
        try:
            new.append(step(new[-1], events[j]))
        except (DslSemanticError, NonPositiveWeight) as exc:
            raise type(exc)(f"event {j + shift}: {exc}") from None
    return new[1:], len(old)


class SlicedDiagram:
    """Immutable sliced diagram: a start slice, a list of events, and the
    slices they derive; event k takes slice k to slice k+1.

    A subclass names its event ``kinds`` and its ``step``, the rule that
    takes a slice and an event to the next slice and raises
    DslSemanticError when the event does not validate against it, or
    NonPositiveWeight when a weight it needs positive is not.  The
    constructor applies every event in turn.  :meth:`spliced` recomputes
    only the slices a local change alters: it applies events from the slice
    below the change into a short list and stops at the first recomputed
    slice past the change that equals its old counterpart.  Both give the
    same slices and the same errors.  A rewrite that knows its new slices
    computes only its window: a run of exchanges of disjoint events
    (``moves.exchange_run``, which stops at the first event that overlaps
    and says how far it went) applies no event, and a two-event rewrite that
    keeps the slice above its window, such as a vertex cobordism
    (``moves._rewrite_pair``), applies one.

    Every rewrite computes and checks its whole window first and then
    hands it to :meth:`_with_window`, the one place its result goes: here
    a new diagram joined from the old one and the window, and in a
    ``_WorkingDiagram`` the same window edited into its lists in place.
    Diagrams are equal when they have the same type, basis, start and
    events."""

    __slots__ = ("basis", "start", "events", "slices")

    def __init__(self, basis: GeneratorBasis, start: Iterable, events: Iterable):
        self.basis = basis
        self.start = tuple(start)
        self.events = tuple(events)
        self.slices = (self.start, *_extend_slices(self.step, self.start, self.events)[0])

    @classmethod
    def _from_slices(cls, basis: GeneratorBasis, start: tuple, events: tuple, slices: tuple):
        """The diagram whose slices are already computed and validated."""
        d = object.__new__(cls)
        d.basis, d.start, d.events, d.slices = basis, start, events, slices
        return d

    def _with_window(self, k: int, removed: int, events, stop: int, slices):
        """The diagram with ``events[k : k + removed]`` replaced by
        ``events`` and ``slices[k + 1 : stop]`` by ``slices``, which are
        already computed and validated."""
        return self._from_slices(
            self.basis, self.start, self.events[:k] + tuple(events) + self.events[k + removed :],
            self.slices[: k + 1] + tuple(slices) + self.slices[stop:])

    def spliced(self, k: int, removed: int, added: Iterable):
        """The diagram with ``events[k:k+removed]`` replaced by ``added``.

        Applies the new events from slice k, and then the old ones until a
        slice past the change equals its old counterpart; slices below k
        and from there on are the old ones.  An event that does not
        validate raises ``DslSemanticError``, or ``NonPositiveWeight`` for
        a weight that is not positive, naming its index (``event i:
        ...``), as the constructor does; ``PrecisionExhausted`` passes
        through as it is."""
        if not 0 <= k <= k + removed <= len(self.events):
            raise IndexError(f"splice of {removed} events at {k} out of range")
        added = tuple(added)
        slices, stop = _extend_slices(self.step, self.slices[k], added, k, self.events,
                                      k + removed, self.slices)
        return self._with_window(k, removed, added, stop, slices)

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


class _WorkingDiagram(FoamDiagram):
    """A private, mutable copy of a FoamDiagram whose events and slices are
    lists.  Each rewrite edits its window into them in place, as list slice
    assignment, and returns this same diagram; so a rewrite costs its
    window, not the length of the diagram.  ``flip_reduce`` and
    ``validate_trace`` each reduce or replay on one."""

    __slots__ = ()

    def __init__(self, d: FoamDiagram):
        self.basis, self.start = d.basis, d.start
        self.events, self.slices = list(d.events), list(d.slices)

    def _with_window(self, k: int, removed: int, events, stop: int, slices):
        self.events[k : k + removed] = events
        self.slices[k + 1 : stop] = slices
        return self

    def frozen(self) -> FoamDiagram:
        """The immutable diagram it holds now."""
        return FoamDiagram._from_slices(self.basis, self.start, tuple(self.events),
                                        tuple(self.slices))


def event_to_json(e) -> dict:
    """JSON object of an oriented or planar event."""
    out = {"event": e.keyword}
    for name, encode in e.json_fields:
        out.update(encode(name, getattr(e, name)))
    return out


def nu(d: FoamDiagram) -> WedgeValue:
    """Sum of local contributions; the complete invariant on closed diagrams:
    the diagram is null-cobordant iff the result is zero."""
    if not d.is_closed():
        raise OpenDiagram("nu needs a closed diagram")
    if any(isinstance(e, (Dot, Label)) for e in d.events):
        raise UnsupportedDecoration("nu is defined for undecorated diagrams")
    return nu_events(d)


def nu_events(d: FoamDiagram) -> WedgeValue:
    """Local contribution sum, ignoring closure and decorations."""
    return wedge_sum(d.basis, _nu_terms(d))


def _nu_terms(d: FoamDiagram):
    """The nonzero entries of the table in the module docstring, as
    ``(c, a, b)`` terms of c * (a ^ b)."""
    for cur, e in zip(d.slices, d.events):
        if isinstance(e, Cross):
            a, b = cur[e.pos], cur[e.pos + 1]
            yield (1 if a.dir is b.dir else -1), a.weight, b.weight
        elif isinstance(e, (Merge, Split)):
            s = cur[e.pos]
            if e.order is (Order.R if s.dir is Dir.UP else Order.L):
                if isinstance(e, Merge):
                    yield 1, s.weight, cur[e.pos + 1].weight
                else:
                    # y ^ x with x = e.left and y = s - x is s ^ x.
                    yield 1, s.weight, e.left


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
    if nu(d) != saf(t).scale(Fraction(1, 2)):
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
        pos = len(cur) - e.consumes - e.pos
        if isinstance(e, Split):
            new_events.append(Split(pos, e.order, cur[e.pos].weight - e.left))
        elif isinstance(e, Cup):
            new_events.append(Cup(pos, e.weight, e.dir.flip()))
        else:
            new_events.append(e._moved(pos))
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
        raise DslSemanticError("zerofoam_class of nothing: pass at least one point")
    for sign, w in points:
        if w.sign() != POSITIVE:
            raise NonPositiveWeight(f"0-foam point weight {w} is not positive")
        if sign not in (POSITIVE, NEGATIVE):
            raise DslSemanticError("0-foam point sign must be +1 or -1")
    return Weight.combination(points[0][1].basis, [(int(sign), w) for sign, w in points])
