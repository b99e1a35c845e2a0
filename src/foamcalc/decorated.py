"""Decorated foams: flip dots and abelian group labels.

Dots mark flip (orientation-reversing) facets.  In their presence the
cobordism group is trivial, and :func:`flip_reduce` produces a certificate:
a trace of registered move applications taking any closed dotted diagram of
the braid-closure class down to the empty diagram.  Labels carry elements
of an abelian group presented by a free rank and torsion factors; their
invariant gamma pairs each labelled strand weight with the label's free
part and keeps nu as the second component.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable

from .errors import (
    DslSemanticError,
    OpenDiagram,
    PrecisionExhausted,
    SchemaMismatch,
    UnsupportedDecoration,
)
from .exterior import TensorH1Value, WedgeValue
from .foamdiag import (
    Cross,
    Dot,
    FoamDiagram,
    Label,
    Merge,
    Order,
    Split,
    _WorkingDiagram,
    nu_events,
)
from .moves import (_SPLIT_OFFS, MoveInstance, _candidates, _death, _first_applied,
                    apply_move, exchange_run, move_from_json, split_off_and_kill)
from .weights import POSITIVE, Weight


@dataclass(frozen=True)
class AbelianGroupSpec:
    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free_rank", index(self.free_rank))
        if self.free_rank < 0:
            raise DslSemanticError("free rank must be non-negative")
        object.__setattr__(self, "torsion", tuple(index(n) for n in self.torsion))
        for n in self.torsion:
            if n < 2:
                raise DslSemanticError(f"torsion factor {n} must be at least 2")


@dataclass(frozen=True)
class GroupLabel:
    free: tuple[int, ...]
    tors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(index(n) for n in self.free))
        object.__setattr__(self, "tors", tuple(index(n) for n in self.tors))

    def __add__(self, other: "GroupLabel") -> "GroupLabel":
        if len(self.free) != len(other.free) or len(self.tors) != len(other.tors):
            raise DslSemanticError("labels of different shapes")
        return GroupLabel(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.tors, other.tors)),
        )

    def reduced(self, spec: AbelianGroupSpec) -> "GroupLabel":
        if len(self.free) != spec.free_rank or len(self.tors) != len(spec.torsion):
            raise DslSemanticError(
                f"label shape ({len(self.free)};{len(self.tors)}) does not match "
                f"the group ({spec.free_rank};{len(spec.torsion)})"
            )
        return GroupLabel(self.free, tuple(a % n for a, n in zip(self.tors, spec.torsion)))


def gamma(d: FoamDiagram, spec: AbelianGroupSpec) -> tuple[TensorH1Value, WedgeValue]:
    """(sum of weight-tensor-free-part over labels, nu of the bare diagram).
    Torsion label parts contribute nothing to the first component."""
    if not d.is_closed():
        raise OpenDiagram("gamma needs a closed diagram")
    if d.has_dots():
        raise UnsupportedDecoration("gamma is defined without flip dots")
    labels = [
        (e.g.reduced(spec).free, cur[e.pos].weight)
        for cur, e in zip(d.slices, d.events)
        if isinstance(e, Label)
    ]
    first = TensorH1Value(
        Weight.combination(d.basis, [(free[k], a) for free, a in labels])
        for k in range(spec.free_rank)
    )
    # Labels leave every slice as it is, so the events without them have
    # the same nu terms.
    return first, nu_events(d)


def label_merge(d: FoamDiagram, k: int) -> FoamDiagram:
    """Fuse two adjacent labels on the same strand into their product."""
    if not 0 <= k <= len(d.events) - 2:
        raise SchemaMismatch("label_merge needs two consecutive events")
    e, f = d.events[k], d.events[k + 1]
    if not (isinstance(e, Label) and isinstance(f, Label) and f.pos == e.pos):
        raise SchemaMismatch("no adjacent label pair here")
    return d.spliced(k, 2, [Label(e.pos, e.g + f.g)])


def label_split(d: FoamDiagram, k: int) -> FoamDiagram:
    """Slide a label through a vertex seam: the label on the thick strand
    becomes the same label on both thin strands.  Unlike dots, no order
    flag is flipped."""
    if not 0 <= k <= len(d.events) - 2:
        raise SchemaMismatch("label_split needs two consecutive events")
    e, f = d.events[k], d.events[k + 1]
    if isinstance(e, Merge) and isinstance(f, Label) and f.pos == e.pos:
        return d.spliced(k, 2, [Label(e.pos, f.g), Label(e.pos + 1, f.g), e])
    if isinstance(e, Label) and isinstance(f, Split) and f.pos == e.pos:
        return d.spliced(k, 2, [f, Label(f.pos, e.g), Label(f.pos + 1, e.g)])
    raise SchemaMismatch("no label against a vertex seam here")


# --- flip elimination ---------------------------------------------------------
#
# flip_reduce works on one _WorkingDiagram: every move edits its window into
# it in place, so the phases below change d and return nothing.


def _step(d: FoamDiagram, trace: list[MoveInstance], m: MoveInstance) -> None:
    apply_move(d, m)
    trace.append(m)


def _split_off(d: FoamDiagram, trace: list[MoveInstance], m: MoveInstance,
               env: dict | None = None) -> None:
    """Record the split-off move m and the death of its block; make only
    the rewrite that survives both.  ``env`` is m's window bindings, if
    matched."""
    _, death = split_off_and_kill(d, m, env)
    trace += (m, death)


def _first(d: FoamDiagram, trace: list[MoveInstance], k: int, candidates: tuple) -> bool:
    """Apply and record the first candidate that matches at event k; False
    where none does."""
    hit = _first_applied(d, k, candidates)
    if hit is not None:
        trace.append(hit[0])
    return hit is not None


def _kill_dots(d: FoamDiagram, trace: list[MoveInstance], j: int = 0) -> None:
    """Split every dot off onto its own circle and kill the circle.  There
    is no dot below event j."""
    while True:
        j = next((i for i in range(j, len(d.events)) if isinstance(d.events[i], Dot)), None)
        if j is None:
            return
        _split_off(d, trace, MoveInstance("dot_splitoff", j))


# Candidate moves in order of choice: at the first crossing, at the last
# split, and at a circle.
_UNCROSS = _candidates(("crossing_splitoff", {}), ("cross_smooth", {}))
_PUSH_SPLIT = _candidates(
    ("singular_saddle", {}),
    ("vertex_cobordism", {"pattern": "sm", "dir": "lr"}),
    ("vertex_cobordism", {"pattern": "ms", "dir": "lr"}),
)
_CIRCLE = _candidates(("circle_death", {}))


def _kill_crossings(d: FoamDiagram, trace: list[MoveInstance]) -> None:
    """Split each parallel crossing off as a standard block and kill it;
    smooth antiparallel crossings of equal weight.  Neither move leaves a
    crossing at or below its index, so the scan resumes there."""
    j = 0
    while True:
        j = next((i for i in range(j, len(d.events)) if isinstance(d.events[i], Cross)), None)
        if j is None:
            return
        hit = _first_applied(d, j, _UNCROSS, apply=False)
        if hit is None:
            raise SchemaMismatch(
                "antiparallel crossing with distinct weights: "
                "outside the reducible braid-closure class"
            )
        m, env = hit
        if m.schema == "crossing_splitoff":
            _split_off(d, trace, m, env)
        else:
            _step(d, trace, m)


def _normalize_flags(d: FoamDiagram, trace: list[MoveInstance]) -> None:
    """Turn every R-flag vertex into an L-flag one by passing a dot pair
    through it, then kill the stray dots.  The dots and the flipped vertex
    lie at or above the vertex's index, so both scans resume there."""
    j = 0
    while True:
        j = next(
            (i for i in range(j, len(d.events))
             if isinstance(e := d.events[i], (Merge, Split)) and e.order is Order.R),
            None,
        )
        if j is None:
            return
        e = d.events[j]
        if isinstance(e, Merge):
            _step(d, trace, MoveInstance("dot_pair_birth", j + 1, {"pos": e.pos}))
            _step(d, trace, MoveInstance("dot_through_vertex", j, {"dir": "expand"}))
        else:
            _step(d, trace, MoveInstance("dot_pair_birth", j, {"pos": e.pos}))
            _step(d, trace, MoveInstance("dot_through_vertex", j + 1, {"dir": "expand"}))
        _kill_dots(d, trace, j)


def _collapse(d: FoamDiagram, trace: list[MoveInstance]) -> None:
    """Cancel every split against a merge.  The last split is pushed along
    the word: it cancels on contact (singular saddle), re-associates past a
    touching merge, and exchanges past everything disjoint.  Its index
    strictly advances, so each split dies in finitely many steps, and the
    next last split is at most one above the previous one.

    The other moves need a window that overlaps the split, so it exchanges
    exactly where it is disjoint from the event above.  One ``exchange_run``
    moves the split up until it meets an event that it overlaps, editing
    the run's window in place, and says how far it went.  The run is
    recorded step by step, and one of the other moves is made where it
    stopped; where none applies below the top, the split lies outside the
    reducible class."""
    j = len(d.events)
    while True:
        j = next((i for i in range(min(j + 1, len(d.events) - 1), -1, -1)
                  if isinstance(d.events[i], Split)), None)
        if j is None:
            return
        made = exchange_run(d, j, len(d.events))[1]
        trace += (MoveInstance("exchange", i) for i in range(j, j + made))
        j += made
        if not _first(d, trace, j, _PUSH_SPLIT):
            if j + 1 < len(d.events):
                raise SchemaMismatch(
                    f"split at {j} can neither cancel nor pass the event above it: "
                    "outside the reducible braid-closure class"
                )
            raise SchemaMismatch("split with nothing above it; diagram not closed")


def _kill_circles(d: FoamDiagram, trace: list[MoveInstance]) -> None:
    """Kill innermost circles, first match first.  A death at i can only
    make a new circle of events i-1 and i, so the scan resumes there."""
    i = 0
    while d.events:
        for i in range(max(i - 1, 0), len(d.events)):
            if _first(d, trace, i, _CIRCLE):
                break
        else:
            raise SchemaMismatch("residual diagram is not a union of circles")


def flip_reduce(d: FoamDiagram) -> list[MoveInstance]:
    """Certificate that d is null-cobordant once flips are allowed: a trace
    of registered moves ending at the empty diagram.  Phases, each resuming
    its scan where its last move left nothing to do below:

    - kill dots: split each dot off onto a dotted circle, and kill it;
    - split each parallel crossing off as a standard block and kill it, or
      smooth an antiparallel one;
    - normalize vertex flags by passing dot pairs through R-flag vertices;
    - cancel each split against a merge (``_collapse``);
    - kill the circles left.

    The phases reduce one working diagram, whose every move edits its
    window in place.  A split-off block's birth and death are recorded as
    two trace steps, which :func:`validate_trace` replays, but the block
    is never built; a run of exchanges is recorded step by step and made
    at once."""
    if not d.is_closed():
        raise OpenDiagram("flip_reduce needs a closed diagram")
    if d.has_labels():
        raise UnsupportedDecoration("flip_reduce handles dots, not labels")
    trace: list[MoveInstance] = []
    d = _WorkingDiagram(d)
    for phase in (_kill_dots, _kill_crossings, _normalize_flags, _collapse, _kill_circles):
        phase(d, trace)
    return trace


@dataclass(frozen=True)
class TraceCheck:
    ok: bool
    steps: int
    failed_at: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        out: dict = {"ok": self.ok, "steps": self.steps}
        if self.failed_at is not None:
            out["failed_at"] = self.failed_at
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def empty_diagram(basis) -> FoamDiagram:
    return FoamDiagram(basis, [], [])


def _positive_strands(d: FoamDiagram) -> bool:
    """Whether every strand weight of d's start slice is decided positive.
    Then so is every strand weight of every diagram a trace reaches from d:
    cups and splits check theirs, and a merge adds two positive weights."""
    try:
        return all(s.weight.sign() == POSITIVE for s in d.start)
    except PrecisionExhausted:
        return False


def _block(d: FoamDiagram, trace: list[MoveInstance], i: int, pairs: bool) -> int:
    """Replay the block of trace steps from step i on d in one call and
    return its length.  A block is a run of parameterless exchanges at k,
    k+1, ..., which one ``exchange_run`` makes as far as it goes: it stops
    before an event that event k overlaps, and the step there is left to
    ``apply_move``.  Or, with ``pairs``, a block is a split-off followed by
    exactly the death move that ``split_off_and_kill`` returns, compared
    before the rewrite is made.  ``pairs`` says that every strand weight is
    decided positive: then the block that the death deletes validates, and
    ``split_off_and_kill`` raises only what ``apply_move`` of the split-off
    raises.  Any other step, and a step where no exchange is made, is one
    ``apply_move``."""
    m = trace[i]
    if m.schema == "exchange":
        k, n, end = m.index, 0, len(trace) - i
        while n < end:
            r = trace[i + n]
            if r.schema != "exchange" or r.index != k + n or r.params:
                break
            n += 1
        made = exchange_run(d, k, n)[1]
        if made:
            return made
    elif pairs and m.schema in _SPLIT_OFFS and trace[i + 1 : i + 2] == [_death(d, m)]:
        split_off_and_kill(d, m)
        return 2
    apply_move(d, m)
    return 1


def validate_trace(d: FoamDiagram, trace: Iterable[MoveInstance],
                   target: FoamDiagram | None = None) -> TraceCheck:
    """Replay the trace from d; every step must be a registered schema that
    applies, and the final diagram must equal the target (empty by
    default).

    It replays on one working diagram, whose every step edits its window in
    place, a block of steps at a time (``_block``); a block is taken only
    where it equals its steps applied one by one.  So the report, and
    ``failed_at`` and ``reason`` where it fails, equal those of one
    ``apply_move`` per step.  A step that raises leaves the working diagram
    where it is, and the check ends there."""
    if target is None:
        target = empty_diagram(d.basis)
    trace = list(trace)
    pairs = _positive_strands(d)
    work = _WorkingDiagram(d)
    i = 0
    try:
        while i < len(trace):
            i += _block(work, trace, i, pairs)
    except SchemaMismatch as exc:
        return TraceCheck(False, len(trace), failed_at=i, reason=str(exc))
    if work.frozen() != target:
        return TraceCheck(False, len(trace), failed_at=len(trace),
                          reason="final diagram differs from the target")
    return TraceCheck(True, len(trace))


def trace_to_json(trace: Iterable[MoveInstance]) -> list:
    return [m.to_json() for m in trace]


def trace_from_json(basis, data) -> list[MoveInstance]:
    if not isinstance(data, list):
        raise DslSemanticError("a trace must be a JSON array of move records")
    return [move_from_json(basis, obj) for obj in data]
