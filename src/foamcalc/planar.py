"""Unoriented planar weighted foams and the antisymmetric 2-bracket group.

A planar foam is a sliced diagram (``foamdiag.SlicedDiagram``) like the
oriented one, but with no directions, no crossings and no decorations;
weights may carry either sign as long as every strand weight is nonzero.
Closed positive foams decompose into tripods, one bracket symbol [a, b] per
vertex, in the group Z2(H) presented by [a,a]=0, [a,b]+[b,a]=0 and the
2-cocycle relation [a,b]+[a+b,c]=[b,c]+[a,b+c].

theta sends [a,b] to a^b.  A nonzero theta certifies a nontrivial class; an
empty simplified sum certifies the trivial class; anything else stays
Unknown because the kernel of theta is 2-torsion that the calculus does not
fully resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import zip_longest
from math import gcd, inf
from operator import index
from typing import Iterable

from .errors import (BasisMismatch, DslSemanticError, InternalError, NonPositiveWeight,
                     OpenDiagram)
from .exterior import WedgeValue, wedge_sum
from .foamdiag import SlicedDiagram, event_kind
from .weights import POSITIVE, GeneratorBasis, Weight, weight_cmp


@event_kind("merge", 2, 1)
class PMerge:
    pos: int


@event_kind("split", 1, 2)
class PSplit:
    pos: int
    left: Weight


@event_kind("cup", 0, 2)
class PCup:
    pos: int
    weight: Weight


@event_kind("cap", 2, 0)
class PCap:
    pos: int


PEVENT_KINDS = (PMerge, PSplit, PCup, PCap)

PEvent = object


def _nonzero(w: Weight, what: str) -> None:
    if w.is_zero():
        raise DslSemanticError(f"{what} must be nonzero")


def apply_pevent(weights: tuple[Weight, ...], e: PEvent) -> tuple[Weight, ...]:
    n = len(weights)
    if isinstance(e, PMerge):
        if not 0 <= e.pos <= n - 2:
            raise DslSemanticError(f"merge at {e.pos} needs two strands")
        joined = weights[e.pos] + weights[e.pos + 1]
        _nonzero(joined, "merged strand weight")
        return weights[: e.pos] + (joined,) + weights[e.pos + 2 :]
    if isinstance(e, PSplit):
        if not 0 <= e.pos < n:
            raise DslSemanticError(f"split at {e.pos}: no such strand")
        right = weights[e.pos] - e.left
        _nonzero(e.left, "left part of a split")
        _nonzero(right, "right part of a split")
        return weights[: e.pos] + (e.left, right) + weights[e.pos + 1 :]
    if isinstance(e, PCup):
        if not 0 <= e.pos <= n:
            raise DslSemanticError(f"cup at {e.pos}: position out of range")
        _nonzero(e.weight, "cup weight")
        return weights[: e.pos] + (e.weight, e.weight) + weights[e.pos :]
    if isinstance(e, PCap):
        if not 0 <= e.pos <= n - 2:
            raise DslSemanticError(f"cap at {e.pos} needs two strands")
        if weights[e.pos] != weights[e.pos + 1]:
            raise DslSemanticError("cap of strands with different weights")
        return weights[: e.pos] + weights[e.pos + 2 :]
    raise DslSemanticError(f"unknown planar event {e!r}")


class PlanarFoam(SlicedDiagram):
    """Sliced diagram of a planar foam: slices are tuples of nonzero Weights."""

    __slots__ = ()

    kinds = PEVENT_KINDS

    @staticmethod
    def start_slice(start: Iterable[Weight]) -> tuple[Weight, ...]:
        """``start`` as a start slice; raises ``DslSemanticError`` at a
        zero weight."""
        start = tuple(start)
        for i, w in enumerate(start):
            _nonzero(w, f"start strand {i}")
        return start

    @staticmethod
    def step(cur: tuple[Weight, ...], e: PEvent) -> tuple[Weight, ...]:
        return apply_pevent(cur, e)

    def all_positive(self) -> bool:
        return all(w.sign() == POSITIVE for cur in self.slices for w in cur)


_END = (inf, 0)  # pads the shorter numerator tuple


def _lex_cmp(x: Weight, y: Weight) -> int:
    """The lexicographic order of coefficient vectors: the sign of the
    first numerator of ``x - y``, read off the two numerator tuples."""
    dx, dy = x.den, y.den
    for (i, n), (j, m) in zip_longest(x.nums, y.nums, fillvalue=_END):
        d = n * dy - m * dx if i == j else n if i < j else -m
        if d:
            return 1 if d > 0 else -1
    return 0


class BracketSum:
    """Integer combination of ordered bracket symbols [a, b], sorted by
    the lexicographic order of [a, b].  Immutable.  Every weight must be
    over ``basis``; ``BasisMismatch`` otherwise."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: GeneratorBasis, terms: Iterable[tuple[int, Weight, Weight]] = ()):
        acc: dict[tuple[Weight, Weight], int] = {}
        for c, a, b in terms:
            if a.basis != basis or b.basis != basis:
                raise BasisMismatch("bracket of weights over different bases")
            c = index(c)
            if c == 0:
                continue
            key = (a, b)
            acc[key] = acc.get(key, 0) + c
            if acc[key] == 0:
                del acc[key]
        self.basis = basis
        self.terms: tuple = tuple(
            sorted(
                [(c, a, b) for (a, b), c in acc.items()],
                key=cmp_to_key(lambda s, t: _lex_cmp(s[1], t[1]) or _lex_cmp(s[2], t[2])),
            )
        )

    @classmethod
    def zero(cls, basis: GeneratorBasis) -> "BracketSum":
        return cls(basis, ())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BracketSum)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.terms))

    def __add__(self, other: "BracketSum") -> "BracketSum":
        return BracketSum(self.basis, list(self.terms) + list(other.terms))

    def __neg__(self) -> "BracketSum":
        return BracketSum(self.basis, [(-c, a, b) for c, a, b in self.terms])

    def __sub__(self, other: "BracketSum") -> "BracketSum":
        return self + (-other)

    def scale(self, n: int) -> "BracketSum":
        n = index(n)
        return BracketSum(self.basis, [(c * n, a, b) for c, a, b in self.terms])

    def __repr__(self) -> str:
        if not self.terms:
            return "BracketSum(0)"
        bits = [f"{c}*[{a!r},{b!r}]" for c, a, b in self.terms]
        return "BracketSum(" + " + ".join(bits) + ")"

    def to_json(self) -> list:
        return [
            {"coeff": c, "left": a.to_json(), "right": b.to_json()}
            for c, a, b in self.terms
        ]


def bracket(basis: GeneratorBasis, c: int, a: Weight, b: Weight) -> BracketSum:
    return BracketSum(basis, [(c, a, b)])


def tripod_decompose(f: PlanarFoam) -> BracketSum:
    """One bracket per vertex: merge of (a, b) -> +[a, b]; split into
    (a, b) -> +[b, a].  Circles contribute nothing."""
    if not f.is_closed():
        raise OpenDiagram("tripod decomposition needs a closed foam")
    for cur in f.slices:
        for w in cur:
            if w.sign() != POSITIVE:
                raise NonPositiveWeight(f"strand weight {w} is not positive")
    return _vertex_terms(f)


def _vertex_terms(f: PlanarFoam) -> BracketSum:
    """The bracket terms of the vertices, signs unchecked."""
    terms = []
    for cur, e in zip(f.slices, f.events):
        if isinstance(e, PMerge):
            terms.append((1, cur[e.pos], cur[e.pos + 1]))
        elif isinstance(e, PSplit):
            terms.append((1, cur[e.pos] - e.left, e.left))
    return BracketSum(f.basis, terms)


def theta(s: BracketSum) -> WedgeValue:
    return wedge_sum(s.basis, s.terms)


DEFAULT_EUCLID_BOUND = 64


def _euclid_collapses(a: Weight, b: Weight, bound: int) -> bool:
    """True iff subtracting the smaller entry from the larger reaches an
    equal pair within ``bound`` comparisons.  Probes only positive pairs.
    Under the declared independence that happens only when b = q*a for a
    rational q, and the subtractive loop on (a, q*a) makes exactly as many
    comparisons as the partial quotients of q sum to, so the rule reads
    that sum off the integers.  Any other pair never collapses."""
    if a.sign() != POSITIVE or b.sign() != POSITIVE:
        return False
    ga, gb = gcd(*[n for _, n in a.nums]), gcd(*[n for _, n in b.nums])
    if [(k, n // ga) for k, n in a.nums] != [(k, n // gb) for k, n in b.nums]:
        return False  # the primitive vectors differ
    n, d, steps = gb * a.den, ga * b.den, 0  # b = (n/d) * a
    while d:
        steps += n // d
        n, d = d, n % d
    return steps <= bound


def bracket_simplify(s: BracketSum, euclid_bound: int = DEFAULT_EUCLID_BOUND) -> BracketSum:
    """Terminating rewrite subset: drop [x,x] and zero entries, orient each
    term by the lexicographic order of coefficient vectors (so [a,b] with a
    greater becomes -[b,a]), cancel, then kill any term [a, b] with
    positive entries and b = q*a whose partial quotients of q sum to at
    most the bound: the number of steps subtractive Euclid takes to reach
    an equal pair.  Every other term is kept as-is, so the result is stable
    under re-application."""
    oriented = []
    for c, a, b in s.terms:
        if a.is_zero() or b.is_zero() or a == b:
            continue
        if _lex_cmp(a, b) > 0:
            c, a, b = -c, b, a
        oriented.append((c, a, b))
    combined = BracketSum(s.basis, oriented)
    kept = [
        (c, a, b)
        for c, a, b in combined.terms
        if not _euclid_collapses(a, b, euclid_bound)
    ]
    return BracketSum(s.basis, kept)


@dataclass(frozen=True)
class PlanarVerdict:
    verdict: str  # "NotNull" | "ZeroBracket" | "Unknown"
    theta: WedgeValue
    residual: BracketSum

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "theta": self.theta.to_json(),
            "residual": self.residual.to_json(),
        }


def classify_bracket(s: BracketSum, euclid_bound: int = DEFAULT_EUCLID_BOUND) -> PlanarVerdict:
    th = theta(s)
    residual = bracket_simplify(s, euclid_bound)
    if not th.is_zero():
        return PlanarVerdict("NotNull", th, residual)
    if residual.is_zero():
        return PlanarVerdict("ZeroBracket", th, residual)
    return PlanarVerdict("Unknown", th, residual)


def planar_classify(f: PlanarFoam, euclid_bound: int = DEFAULT_EUCLID_BOUND) -> PlanarVerdict:
    """Three-valued: NotNull is certified by theta, ZeroBracket by reaching
    the empty sum; otherwise Unknown (possible 2-torsion), never upgraded."""
    return classify_bracket(tripod_decompose(f), euclid_bound)


def bracket_make_positive(c: int, a: Weight, b: Weight) -> BracketSum:
    """The bending map from symbols over all of R to symbols with positive
    entries.  Zero entries map to 0; [-a,-b] folds to [a,b]; a mixed-sign
    symbol bends to the symbol of the turned-around vertex."""
    return BracketSum(a.basis, _bent(c, a, b))


def _bent(c: int, a: Weight, b: Weight) -> tuple:
    """The terms of ``bracket_make_positive(c, a, b)``: one or none."""
    if c == 0 or a.is_zero() or b.is_zero():
        return ()
    sa, sb = a.sign(), b.sign()
    if sa == POSITIVE and sb == POSITIVE:
        return ((c, a, b),)
    if sa != POSITIVE and sb != POSITIVE:
        return ((c, -a, -b),)
    if sa == POSITIVE:
        pos_b = -b
        rel = weight_cmp(a, pos_b)
        if rel == 0:
            return ()
        if rel > 0:
            return ((c, pos_b, a - pos_b),)
        return ((c, pos_b - a, a),)
    return _bent(-c, b, a)


def bracket_sum_make_positive(s: BracketSum) -> BracketSum:
    return BracketSum(s.basis, [t for c, a, b in s.terms for t in _bent(c, a, b)])


def tripod_block(x: Weight, y: Weight) -> list:
    """Closed standard tripod T(x, y): a vertex joining x and y with every
    leg capped by a looped half-weight lollipop.  Decomposes to [x, y] plus
    three self-cancelling [u, u] terms."""
    half = Fraction(1, 2)
    return [
        PCup(0, x.scale(half)),
        PMerge(0),
        PCup(1, y.scale(half)),
        PMerge(1),
        PMerge(0),
        PSplit(0, (x + y).scale(half)),
        PCap(0),
    ]


def standard_tripod(x: Weight, y: Weight) -> PlanarFoam:
    return PlanarFoam(x.basis, [], tripod_block(x, y))


def foam_make_positive(f: PlanarFoam) -> PlanarFoam:
    """All-positive planar foam in the same cobordism class.  Positive
    inputs pass through unchanged; otherwise the signed vertex terms are
    bent positive and realized as disjoint standard tripods.  The theta
    image of the vertex terms is checked to be preserved."""
    if f.all_positive():
        return f
    if not f.is_closed():
        raise OpenDiagram("make-positive needs a closed foam")
    signed = _vertex_terms(f)
    positive = bracket_sum_make_positive(signed)
    events: list[PEvent] = []
    for c, a, b in positive.terms:
        block = tripod_block(a, b) if c > 0 else tripod_block(b, a)
        for _ in range(abs(c)):
            events.extend(block)
    result = PlanarFoam(f.basis, [], events)
    if theta(_vertex_terms(result)) != theta(signed):
        raise InternalError("make-positive failed to preserve theta")
    return result


# --- the Z/4 finite-weight model ---------------------------------------------


def psi_pair(a: int, b: int) -> int:
    """psi([a,b]) in Z/2 for residues mod 4: 0 iff a=0, b=0 or a=b."""
    a %= 4
    b %= 4
    return 0 if a == 0 or b == 0 or a == b else 1


def psi_sum(terms: Iterable[tuple[int, int, int]]) -> int:
    return sum(c * psi_pair(a, b) for c, a, b in terms) % 2


def verify_z4() -> dict:
    """Exhaustive checks of the Z/4 model: the 2-cocycle relation on all 64
    triples, [a,a]=0 and [a,b]+[b,a]=0 on all pairs, the doubled
    almost-bilinearity combination on all triples, and psi([1,3])=1."""
    cocycle_ok = 0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                lhs = psi_sum([(1, a, b), (1, (a + b) % 4, c)])
                rhs = psi_sum([(1, b, c), (1, a, (b + c) % 4)])
                if lhs == rhs:
                    cocycle_ok += 1
    pairs_ok = all(
        psi_pair(a, a) == 0 and (psi_pair(a, b) + psi_pair(b, a)) % 2 == 0
        for a in range(4)
        for b in range(4)
    )
    bilin_ok = all(
        psi_sum([(2, a, (b1 + b2) % 4), (-2, a, b1), (-2, a, b2)]) == 0
        for a in range(4)
        for b1 in range(4)
        for b2 in range(4)
    )
    return {
        "cocycle_ok": cocycle_ok,
        "cocycle_total": 64,
        "pairs_ok": pairs_ok,
        "bilin_ok": bilin_ok,
        "psi_1_3": psi_pair(1, 3),
    }


def z4_ok(res: dict) -> bool:
    """Whether a ``verify_z4`` report passes: all 64 cocycle instances
    hold, both pair checks and the bilinearity check hold, and psi([1,3])=1."""
    return bool(res["cocycle_ok"] == res["cocycle_total"] == 64 and res["pairs_ok"]
                and res["bilin_ok"] and res["psi_1_3"] == 1)
