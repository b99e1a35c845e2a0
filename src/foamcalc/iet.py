"""Interval exchange transformations and the SAF invariant.

An IET is stored as positive lengths lambda_1..lambda_r plus a permutation
sigma given as an image array: sigma(i) is the rank of piece i in the target
order (1-based).  Optional per-piece flip flags turn a piece's translation
into the order-reversing map of that piece.

SAF(T) = 2 * sum over inverted pairs (i < j with sigma(j) < sigma(i)) of
lambda_i ^ lambda_j, an element of the exterior square over Q; it equals
the sum of lambda_i ^ delta_i over the displacements delta_i.  It is
refused for flipped IETs, whose cobordism theory is handled elsewhere.
"""

from __future__ import annotations

from operator import index

from .errors import (
    DslSemanticError,
    FlippedIet,
    NonPositiveWeight,
    OutOfDomain,
    TotalMismatch,
)
from .exterior import WedgeValue, wedge_starts
from .weights import POSITIVE, Weight, weight_cmp


class Iet:
    __slots__ = ("lengths", "perm", "flips", "total", "basis")

    def __init__(self, lengths, perm, flips=None):
        lengths = tuple(lengths)
        perm = tuple(index(k) for k in perm)
        if not lengths:
            raise DslSemanticError("an IET needs at least one piece")
        r = len(lengths)
        if sorted(perm) != list(range(1, r + 1)):
            raise DslSemanticError(f"perm {list(perm)} is not a bijection of 1..{r}")
        if flips is None:
            flips = (False,) * r
        else:
            flips = tuple(bool(f) for f in flips)
            if len(flips) != r:
                raise DslSemanticError("flips length differs from lengths")
        basis = lengths[0].basis
        for lam in lengths:
            if lam.sign() != POSITIVE:
                raise NonPositiveWeight(f"piece length {lam} is not positive")
        self.lengths = lengths
        self.perm = perm
        self.flips = flips
        self.total = Weight.combination(basis, [(1, lam) for lam in lengths])
        self.basis = basis

    @classmethod
    def identity(cls, total: Weight) -> "Iet":
        return cls([total], [1])

    @property
    def r(self) -> int:
        return len(self.lengths)

    def is_flipped(self) -> bool:
        return any(self.flips)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Iet)
            and self.lengths == other.lengths
            and self.perm == other.perm
            and self.flips == other.flips
        )

    def __hash__(self) -> int:
        return hash((self.lengths, self.perm, self.flips))

    def __repr__(self) -> str:
        flip = f", flips={list(self.flips)}" if self.is_flipped() else ""
        return f"Iet(lengths={list(self.lengths)}, perm={list(self.perm)}{flip})"

    def source_starts(self) -> list[Weight]:
        starts, acc = [], Weight(self.basis, {})
        for lam in self.lengths:
            starts.append(acc)
            acc = acc + lam
        return starts

    def target_starts(self) -> list[Weight]:
        """Start of each piece's image, indexed like the pieces."""
        order = sorted(range(self.r), key=lambda i: self.perm[i])
        starts = [None] * self.r
        acc = Weight(self.basis, {})
        for i in order:
            starts[i] = acc
            acc = acc + self.lengths[i]
        return starts

    def to_json(self) -> dict:
        return {
            "lengths": [lam.to_json() for lam in self.lengths],
            "perm": list(self.perm),
            "flips": [bool(f) for f in self.flips],
        }

    def canonical(self) -> "Iet":
        """Coalesce adjacent pieces that continue each other in source and
        image with the same orientation.  The underlying map is unchanged."""
        return _coalesced(self.lengths, self.perm, self.flips)


def _coalesced(lengths, ranks, flips) -> Iet:
    """The canonical Iet of pieces given in source order by length, image
    rank (consecutive integers) and flip.  The next piece continues a run
    when it has the run's flip and its rank follows the last piece's rank
    in the run's direction; a run's image starts at its smallest rank, and
    the merged pieces are ranked by that, so no weight is compared."""
    runs: list[list] = []
    for lam, k, f in zip(lengths, ranks, flips):
        if runs:
            run = runs[-1]
            if run[3] == f and k == run[2] + (-1 if f else 1):
                run[0] = run[0] + lam
                run[2] = k
                continue
        runs.append([lam, k, k, f])
    order = sorted(range(len(runs)), key=lambda m: min(runs[m][1], runs[m][2]))
    perm = [0] * len(runs)
    for rank, m in enumerate(order, start=1):
        perm[m] = rank
    return Iet([run[0] for run in runs], perm, [run[3] for run in runs])


def saf(t: Iet) -> WedgeValue:
    """2 * sum of lambda_i ^ lambda_j over inverted pairs of sigma, computed
    from the displacements delta_i = t_i - s_i of the pieces as
    sum lambda_i ^ delta_i = sum lambda_i ^ t_i - sum lambda_i ^ s_i, each
    sum one pass over the pieces, in image and in source order.
    Bilinearity gives the equality: an inverted pair i < j meets
    lambda_i ^ lambda_j once in delta_i and once, as -lambda_j ^ lambda_i,
    in delta_j; any other pair cancels."""
    if t.is_flipped():
        raise FlippedIet("SAF is refused for flipped IETs")
    by_image = [t.lengths[i] for i in sorted(range(t.r), key=t.perm.__getitem__)]
    return wedge_starts(t.basis, by_image) - wedge_starts(t.basis, t.lengths)


def iet_compose(second: Iet, first: Iet) -> Iet:
    """The composite map second(first(x)) on the common refinement.

    One sweep walks first's pieces in image order alongside second's
    pieces, which tile the same interval in source order.  Each step
    compares the end of first's current image piece with the end of
    second's current piece, once, and cuts at the smaller; second's last
    piece ends at the total and needs no comparison.  So a compose makes at
    most r1 + r2 - 2 weight comparisons, between neighbouring cut points
    only.  Domain: an all-pairs cut search (the reference in the tests)
    raises PrecisionExhausted on the same inputs.  Its comparisons include
    the sweep's, and any pair of cut points differs by a sum of neighbouring
    differences, which is decided when they are: a sum of weights decided
    positive is decided.

    The segments need no sorting.  In source order they come first piece
    by first piece, reversed inside a flipped one; in image order, second
    piece by second piece in perm order, reversed inside a flipped one.
    Adjacent pieces that continue each other are coalesced, so inverse
    pairs compose to the one-piece identity.
    """
    if first.basis != second.basis:
        raise TotalMismatch("IETs over different bases")
    if not (first.total - second.total).is_zero():
        raise TotalMismatch("IETs have different total lengths")

    r1, last = first.r, second.r - 1
    k, b_end = 0, second.lengths[0]
    pos = Weight(first.basis, {})
    seg_len, seg_flip = [], []
    by_first: list = [None] * r1  # segment ids of each piece of first
    by_second: list = [[] for _ in range(last + 1)]
    for i in sorted(range(r1), key=first.perm.__getitem__):
        hi = pos + first.lengths[i]
        ids = by_first[i] = []
        while True:
            c = -1 if k == last else weight_cmp(hi, b_end)
            ids.append(len(seg_len))
            by_second[k].append(len(seg_len))
            seg_len.append((hi if c <= 0 else b_end) - pos)
            seg_flip.append(first.flips[i] != second.flips[k])
            if c >= 0:
                k += 1
                pos, b_end = b_end, b_end + second.lengths[k]
            if c <= 0:
                pos = hi
                break

    rank = [0] * len(seg_len)
    for n, s in enumerate(_runs(by_second, second.perm, second.flips)):
        rank[s] = n
    src = list(_runs(by_first, range(r1), first.flips))
    return _coalesced(
        [seg_len[s] for s in src], [rank[s] for s in src], [seg_flip[s] for s in src]
    )


def _runs(groups, order, flips):
    """The members of each group, groups in the order of their keys in
    ``order``, each group reversed when its flip is set."""
    for g in sorted(range(len(groups)), key=order.__getitem__):
        yield from reversed(groups[g]) if flips[g] else groups[g]


def iet_inverse(t: Iet) -> Iet:
    """Pieces reindexed by target rank; flips are preserved per piece."""
    inv_index = [0] * t.r
    for i in range(t.r):
        inv_index[t.perm[i] - 1] = i
    lengths = [t.lengths[i] for i in inv_index]
    perm = [i + 1 for i in inv_index]
    flips = [t.flips[i] for i in inv_index]
    return Iet(lengths, perm, flips)


def iet_apply(t: Iet, x: Weight) -> Weight:
    """Image of x under the piecewise map.

    On a flipped piece [s, s+l) the interior maps by x -> u + (s + l - x)
    and the left endpoint maps to u, keeping the piece image half-open.
    """
    if x.sign() == -1:
        raise OutOfDomain(f"{x} is negative")
    if weight_cmp(x, t.total) >= 0:
        raise OutOfDomain(f"{x} is not below the total {t.total}")
    src = t.source_starts()
    tgt = t.target_starts()
    for i in reversed(range(t.r)):
        c = weight_cmp(x, src[i])
        if c >= 0:
            if not t.flips[i]:
                return tgt[i] + (x - src[i])
            if c == 0:
                return tgt[i]
            return tgt[i] + (src[i] + t.lengths[i] - x)
    raise OutOfDomain(f"no piece contains {x}")
