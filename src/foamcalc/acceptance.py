"""Acceptance battery: thirteen exact checks over the whole library.

Each criterion draws its own seeded generator, so a given seed reproduces
the exact same instances.  All comparisons are exact; there are no
tolerances anywhere.  The CLI `selftest` subcommand and the test suite both
run this battery.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache, cmp_to_key, reduce
from typing import Callable

from .decorated import (
    AbelianGroupSpec,
    GroupLabel,
    flip_reduce,
    gamma,
    label_merge,
    label_split,
    validate_trace,
)
from .dsl import Document, parse_bytes, parse_document, print_document
from .errors import FoamError
from .exterior import WedgeValue, wedge
from .foamdiag import (
    Cap,
    Cross,
    Cup,
    Dir,
    Dot,
    FoamDiagram,
    Label,
    Merge,
    Order,
    Split,
    circle,
    disjoint_union,
    iet_closure,
    mirror,
    nu,
    u_diagram,
    zerofoam_class,
)
from .iet import Iet, iet_compose, iet_inverse, saf
from .moves import MoveInstance, _enumerated, apply_move
from .planar import (
    BracketSum,
    PCap,
    PCup,
    PMerge,
    PSplit,
    PlanarFoam,
    bracket,
    bracket_make_positive,
    foam_make_positive,
    planar_classify,
    standard_tripod,
    theta,
    tripod_decompose,
    verify_z4,
    z4_ok,
)
from .weights import Generator, GeneratorBasis, Weight, _normalised, weight_cmp

DEFAULT_SEED = 20260814

R2 = Generator("r2", "1.4142135623730951", 16)
R3 = Generator("r3", "1.7320508075688772", 16)


@cache
def demo_basis(*names: str) -> GeneratorBasis:
    """Basis with any of the stock generators r2, r3, built once for each
    list of names: a basis is immutable and compares by its entries."""
    stock = {"r2": R2, "r3": R3}
    return GeneratorBasis([stock[n] for n in names])


# random instance generators -------------------------------------------------


def _rand_weight(rng: random.Random, basis: GeneratorBasis, low: int) -> Weight:
    """Coefficients n/m with n in [low, 3] and m in [1, 4], not all zero;
    each is drawn as its numerator over 12, the lcm of the m."""
    n = len(basis.entries)
    while True:
        den, nums = _normalised(
            12, {i: rng.randint(low, 3) * (12 // rng.randint(1, 4)) for i in range(n)}
        )
        if nums:
            return Weight._of(basis, den, nums)


def rand_positive_weight(rng: random.Random, basis: GeneratorBasis) -> Weight:
    """Nonnegative coefficients, not all zero; positive by independence."""
    return _rand_weight(rng, basis, 0)


def rand_nonzero_weight(rng: random.Random, basis: GeneratorBasis) -> Weight:
    return _rand_weight(rng, basis, -3)


def rand_total(rng: random.Random, basis: GeneratorBasis) -> Weight:
    """A small positive weight with integer coefficients, unit part >= 1."""
    nums = [(0, rng.randint(1, 2))]
    nums += [(i, 1) for i in range(1, len(basis.entries)) if rng.randint(0, 1)]
    return Weight._of(basis, 1, tuple(nums))


def rand_iet_on_total(
    rng: random.Random,
    basis: GeneratorBasis,
    total: Weight,
    max_r: int = 5,
    allow_flips: bool = False,
) -> Iet:
    """Random IET of the given total: rational cuts along each coordinate.
    A cut takes j/16 of each coordinate of the total, j in [0, 15], as the
    numerator j*n over 16 times the total's denominator."""
    r = rng.randint(1, max_r)
    cuts: set[Weight] = set()
    den = 16 * total.den
    guard = 0
    while len(cuts) < r - 1:
        guard += 1
        if guard > 200:
            break
        nums = {i: rng.randint(0, 15) * n for i, n in total.nums}
        w = Weight._of(basis, *_normalised(den, nums))
        if not w.is_zero():
            cuts.add(w)
    starts = sorted(cuts, key=cmp_to_key(weight_cmp))
    lengths = []
    prev = Weight._of(basis, 1, ())
    for c in starts:
        lengths.append(c - prev)
        prev = c
    lengths.append(total - prev)
    perm = list(range(1, len(lengths) + 1))
    rng.shuffle(perm)
    flips = None
    if allow_flips and rng.random() < 0.5:
        flips = [rng.random() < 0.4 for _ in lengths]
    return Iet(lengths, perm, flips)


def rand_closure(rng: random.Random, basis: GeneratorBasis, max_r: int = 3) -> FoamDiagram:
    t = rand_iet_on_total(rng, basis, rand_total(rng, basis), max_r=max_r)
    return iet_closure(t)


def rand_closed_diagram(rng: random.Random, basis: GeneratorBasis) -> FoamDiagram:
    """Disjoint unions of closures, circles and standard crossing blocks,
    mirrored sometimes."""
    parts = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(4)
        if kind == 0:
            parts.append(
                circle(rand_positive_weight(rng, basis), rng.choice((Dir.UP, Dir.DOWN)))
            )
        elif kind == 1:
            parts.append(
                u_diagram(
                    rand_positive_weight(rng, basis), rand_positive_weight(rng, basis)
                )
            )
        else:
            parts.append(rand_closure(rng, basis))
    d = reduce(disjoint_union, parts)
    if rng.random() < 0.3:
        d = mirror(d)
    return d


def _insert_dots(rng: random.Random, d: FoamDiagram, count: int) -> FoamDiagram:
    """Sprinkle dot events at valid slots."""
    for _ in range(count):
        slots = [(s, len(sl)) for s, sl in enumerate(d.slices) if sl]
        if not slots:
            break
        s, width = rng.choice(slots)
        d = d.spliced(s, 0, [Dot(rng.randrange(width))])
    return d


def rand_dotted_diagram(rng: random.Random, basis: GeneratorBasis) -> FoamDiagram:
    """Small closed diagrams in the braid-closure class, with dots."""
    kind = rng.randrange(4)
    if kind == 0:
        d = circle(rand_positive_weight(rng, basis), rng.choice((Dir.UP, Dir.DOWN)))
        d = _insert_dots(rng, d, rng.randint(0, 3))
    elif kind == 1:
        d = u_diagram(rand_positive_weight(rng, basis), rand_positive_weight(rng, basis))
        d = _insert_dots(rng, d, rng.randint(0, 2))
    elif kind == 2:
        d = rand_closure(rng, basis, max_r=3)
        d = _insert_dots(rng, d, rng.randint(0, 3))
    else:
        a = circle(rand_positive_weight(rng, basis))
        a = _insert_dots(rng, a, rng.randint(0, 2))
        b = circle(rand_positive_weight(rng, basis), Dir.DOWN)
        d = disjoint_union(a, b)
    if rng.random() < 0.25:
        d = mirror(d)
    return d


def rand_walk_diagram(rng: random.Random, basis: GeneratorBasis) -> FoamDiagram:
    """A closed diagram from a random walk, beyond the braid-closure class;
    the basis must hold r2.  Ten random steps, each one of: a cup of weight
    1 or r2 at a random position and direction; a dot; a cross; a merge of
    a parallel pair with a random flag; or a split at 1/4, 1/2 or 3/4 of a
    strand.  A step that cannot be made is skipped.  Then a greedy close of
    at most 200 steps: cap the first equal-weight antiparallel pair; else
    merge the first parallel pair; else split the heavier strand of the
    first antiparallel pair so that its inner part equals the lighter
    strand.  A draw that does not close, or closes empty, is drawn
    again."""
    weights = (Weight.rational(basis, 1), Weight.generator(basis, "r2"))
    ratios = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    while True:
        d = FoamDiagram(basis, [], [])
        for _ in range(10):
            cur = d.slices[-1]
            n, kind, flag = len(cur), rng.randrange(5), rng.choice((Order.L, Order.R))
            parallel = [p for p in range(n - 1) if cur[p].dir is cur[p + 1].dir]
            if kind == 0:
                e = Cup(rng.randint(0, n), rng.choice(weights), rng.choice((Dir.UP, Dir.DOWN)))
            elif kind == 1 and n:
                e = Dot(rng.randrange(n))
            elif kind == 2 and n >= 2:
                e = Cross(rng.randrange(n - 1))
            elif kind == 3 and parallel:
                e = Merge(rng.choice(parallel), flag)
            elif kind == 4 and n:
                p = rng.randrange(n)
                e = Split(p, flag, cur[p].weight.scale(rng.choice(ratios)))
            else:
                continue
            d = d.spliced(len(d.events), 0, [e])
        try:
            for _ in range(200):
                cur, flag = d.slices[-1], rng.choice((Order.L, Order.R))
                if not cur:
                    if d.events:
                        return d
                    break
                pairs = range(len(cur) - 1)
                anti = [p for p in pairs if cur[p].dir is not cur[p + 1].dir]
                p = next((p for p in anti if cur[p].weight == cur[p + 1].weight), None)
                if p is not None:
                    e = Cap(p)
                elif len(anti) < len(pairs):
                    e = Merge(next(p for p in pairs if p not in anti), flag)
                else:
                    p = anti[0]
                    a, b = cur[p].weight, cur[p + 1].weight
                    e = Split(p, flag, a - b) if weight_cmp(a, b) > 0 else Split(p + 1, flag, a)
                d = d.spliced(len(d.events), 0, [e])
        except FoamError:
            pass


def rand_signed_planar(rng: random.Random, basis: GeneratorBasis) -> PlanarFoam:
    """Closed planar foam with entries of both signs."""
    for _ in range(60):
        try:
            return _try_signed_planar(rng, basis)
        except FoamError:
            continue
    a = rand_positive_weight(rng, basis)
    b = rand_positive_weight(rng, basis)
    return standard_tripod(a, b)


_SPLIT_RATIOS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(1, 4),
)


def _try_signed_planar(rng: random.Random, basis: GeneratorBasis) -> PlanarFoam:
    f = PlanarFoam(basis, (), ())

    def push(e) -> None:
        nonlocal f
        f = f.spliced(len(f.events), 0, [e])

    for _ in range(rng.randint(1, 3)):
        w = rand_nonzero_weight(rng, basis)
        push(PCup(rng.randint(0, len(f.slices[-1])), w))
    for _ in range(rng.randint(0, 5)):
        cur = f.slices[-1]
        kind = rng.randrange(3)
        if kind == 0:
            push(PCup(rng.randint(0, len(cur)), rand_nonzero_weight(rng, basis)))
        elif kind == 1 and len(cur) >= 2:
            push(PMerge(rng.randint(0, len(cur) - 2)))
        else:
            p = rng.randrange(len(cur))
            push(PSplit(p, cur[p].scale(rng.choice(_SPLIT_RATIOS))))
    while len(f.slices[-1]) > 1:
        push(PMerge(0))
    push(PSplit(0, f.slices[-1][0].scale(Fraction(1, 2))))
    push(PCap(0))
    return f


def rand_bracket(rng: random.Random, basis: GeneratorBasis) -> BracketSum:
    terms = []
    for _ in range(rng.randint(0, 3)):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        terms.append((c, rand_nonzero_weight(rng, basis), rand_nonzero_weight(rng, basis)))
    return BracketSum(basis, terms)


def rand_labeled_diagram(
    rng: random.Random, basis: GeneratorBasis, spec: AbelianGroupSpec
) -> FoamDiagram:
    """Closure with label pairs planted where label moves apply."""
    d = rand_closure(rng, basis, max_r=3)

    def rand_label() -> GroupLabel:
        free = tuple(rng.randint(-4, 4) for _ in range(spec.free_rank))
        tors = tuple(rng.randint(-5, 5) for _ in range(len(spec.torsion)))
        return GroupLabel(free, tors)

    for _ in range(rng.randint(1, 2)):
        s = rng.choice([s for s, sl in enumerate(d.slices) if sl])
        p = rng.randrange(len(d.slices[s]))
        first = Label(p, rand_label())
        # the label drawn second goes below the first
        d = d.spliced(s, 0, [Label(p, rand_label()), first])
    return d


def rand_document(rng: random.Random, index: int = 0) -> Document:
    names = rng.choice(((), ("r2",), ("r2", "r3")))
    basis = demo_basis(*names)
    items = []
    for k in range(rng.randint(0, 4)):
        name = f"x{index}_{k}"
        kind = rng.randrange(4)
        if kind == 0:
            t = rand_iet_on_total(
                rng, basis, rand_total(rng, basis), max_r=4, allow_flips=True
            )
            items.append(("iet", name, t))
        elif kind == 1:
            d = rand_dotted_diagram(rng, basis)
            items.append(("foam", name, d))
        elif kind == 2:
            items.append(("planarfoam", name, rand_signed_planar(rng, basis)))
        else:
            items.append(("bracket", name, rand_bracket(rng, basis)))
    return Document(basis, tuple(items))


# the thirteen criteria -------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] criterion {self.number:02d} {self.name}: {self.detail}"

    def to_json(self) -> dict:
        return asdict(self)


def _crit_01_saf_homomorphism(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    total = Weight.rational(basis, 1) + Weight.generator(basis, "r2")
    bad = 0
    for _ in range(200):
        s = rand_iet_on_total(rng, basis, total, max_r=5)
        t = rand_iet_on_total(rng, basis, total, max_r=5)
        if saf(iet_compose(s, t)) != saf(s) + saf(t):
            bad += 1
    return bad == 0, f"SAF(S.T) = SAF(S)+SAF(T) on 200 random pairs, {bad} failures"


def _crit_02_commutator(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    total = Weight.rational(basis, 1) + Weight.generator(basis, "r2")
    bad = 0
    for _ in range(100):
        s = rand_iet_on_total(rng, basis, total, max_r=4)
        t = rand_iet_on_total(rng, basis, total, max_r=4)
        comm = iet_compose(s, iet_compose(t, iet_compose(iet_inverse(s), iet_inverse(t))))
        if not saf(comm).is_zero():
            bad += 1
    return bad == 0, f"SAF of 100 random commutators, {bad} nonzero"


def _crit_03_nu_move_invariance(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    checked = 0
    for _ in range(100):
        d = rand_closed_diagram(rng, basis)
        base = nu(d)
        for m, out in _enumerated(d):
            if nu(out) != base:
                return False, f"nu changed under {m.schema} at index {m.index}"
            checked += 1
    return True, f"nu unchanged under {checked} move instances on 100 diagrams"


def _crit_04_closure_half_saf(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    bad = 0
    for _ in range(200):
        t = rand_iet_on_total(rng, basis, rand_total(rng, basis), max_r=6)
        if nu(iet_closure(t)) != saf(t).scale(Fraction(1, 2)):
            bad += 1
    return bad == 0, f"nu(closure) = SAF/2 on 200 random IETs, {bad} failures"


def _crit_05_crossing_splitoff(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    done = 0
    guard = 0
    while done < 50 and guard < 500:
        guard += 1
        t = rand_iet_on_total(rng, basis, rand_total(rng, basis), max_r=4)
        if t.perm == tuple(range(1, t.r + 1)):
            continue
        d = iet_closure(t)
        sites = [
            k
            for k, e in enumerate(d.events)
            if isinstance(e, Cross)
            and d.slices[k][e.pos].dir == d.slices[k][e.pos + 1].dir
        ]
        if not sites:
            continue
        k = rng.choice(sites)
        d2 = apply_move(d, MoveInstance("crossing_splitoff", k))
        if nu(d2) != nu(d):
            return False, f"classification changed at crossing {k}"
        done += 1
    return done == 50, f"{done}/50 crossing split-offs conserved the class"


def _crit_06_z4(rng: random.Random) -> tuple[bool, str]:
    res = verify_z4()
    return z4_ok(res), (
        f"{res['cocycle_ok']}/{res['cocycle_total']} cocycle instances, pairs "
        f"{'ok' if res['pairs_ok'] else 'bad'}, psi([1,3])={res['psi_1_3']}"
        f"{'' if res['bilin_ok'] else ', bilinearity bad'}"
    )


def _crit_07_theta_relations(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    bad = 0
    for _ in range(200):
        a = rand_nonzero_weight(rng, basis)
        b = rand_nonzero_weight(rng, basis)
        c = rand_nonzero_weight(rng, basis)
        rel = (
            bracket(basis, 1, a, b)
            + bracket(basis, 1, a + b, c)
            - bracket(basis, 1, b, c)
            - bracket(basis, 1, a, b + c)
        )
        if not theta(rel).is_zero():
            bad += 1
        b1, b2 = b, c
        almost = (
            bracket(basis, 2, a, b1 + b2)
            - bracket(basis, 2, a, b1)
            - bracket(basis, 2, a, b2)
        )
        if not theta(almost).is_zero():
            bad += 1
    return bad == 0, f"theta kills both relation families 200 times, {bad} failures"


def _crit_08_euclid(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    bad = 0
    for _ in range(100):
        a = rand_positive_weight(rng, basis)
        q = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        v = planar_classify(standard_tripod(a, a.scale(q)))
        if v.verdict != "ZeroBracket":
            bad += 1
    pair = planar_classify(
        standard_tripod(Weight.rational(basis, 1), Weight.generator(basis, "r2"))
    )
    notnull_ok = pair.verdict == "NotNull"
    ok = bad == 0 and notnull_ok
    return ok, (
        f"100 commensurable tripods collapse ({bad} failures); "
        f"T(1,r2) is {pair.verdict}"
    )


def _crit_09_delta(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    bad = 0
    for _ in range(100):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        a = rand_nonzero_weight(rng, basis)
        b = rand_nonzero_weight(rng, basis)
        if rng.random() < 0.1:
            a = Weight(basis, {})
        pos = bracket_make_positive(c, a, b)
        if theta(pos) != wedge(a, b).scale(Fraction(c)):
            bad += 1
        for cc, aa, bb in pos.terms:
            if aa.sign() <= 0 or bb.sign() <= 0:
                bad += 1
    foams_bad = 0
    for _ in range(50):
        f = rand_signed_planar(rng, basis)
        want = _signed_theta(f)
        f2 = foam_make_positive(f)
        if not f2.all_positive() or theta(tripod_decompose(f2)) != want:
            foams_bad += 1
    ok = bad == 0 and foams_bad == 0
    return ok, (
        f"delta matched wedge 100 times ({bad} failures); "
        f"50 signed foams rebuilt positive ({foams_bad} failures)"
    )


def _signed_theta(f: PlanarFoam) -> WedgeValue:
    """Vertex-sum invariant computed directly from the slices."""
    acc = WedgeValue.zero(f.basis)
    for cur, e in zip(f.slices, f.events):
        if isinstance(e, PMerge):
            acc = acc + wedge(cur[e.pos], cur[e.pos + 1])
        elif isinstance(e, PSplit):
            acc = acc + wedge(cur[e.pos] - e.left, e.left)
    return acc


def _crit_10_flip_triviality(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    steps = 0
    for i in range(100):
        d = rand_dotted_diagram(rng, basis)
        trace = flip_reduce(d)
        chk = validate_trace(d, trace)
        if not chk.ok:
            return False, f"trace {i} failed at step {chk.failed_at}: {chk.reason}"
        steps += len(trace)
    return True, f"100 diagrams reduced to nothing, {steps} certified steps"


def _crit_11_gamma(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    bad = 0
    checked = 0
    for _ in range(100):
        free_rank = rng.randint(0, 2)
        torsion = tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(0, 2)))
        spec = AbelianGroupSpec(free_rank, torsion)
        d = rand_labeled_diagram(rng, basis, spec)
        base = gamma(d, spec)
        if free_rank == 0 and not base[0].is_zero():
            bad += 1
        for k in range(len(d.events) - 1):
            for move in (label_merge, label_split):
                try:
                    d2 = move(d, k)
                except FoamError:
                    continue
                checked += 1
                if gamma(d2, spec) != base:
                    bad += 1
    return bad == 0, f"gamma invariant under {checked} label moves, {bad} failures"


def _crit_12_zerofoam(rng: random.Random) -> tuple[bool, str]:
    basis = demo_basis("r2")
    bad = 0
    for _ in range(50):
        a = rand_positive_weight(rng, basis)
        b = rand_positive_weight(rng, basis)
        if not zerofoam_class([(1, a), (-1, a)]).is_zero():
            bad += 1
        p1 = [(1, a), (-1, b)]
        p2 = [(1, b), (1, a)]
        if zerofoam_class(p1 + p2) != zerofoam_class(p1) + zerofoam_class(p2):
            bad += 1
    return bad == 0, f"cancellation and additivity on 50 draws, {bad} failures"


def _crit_13_dsl(rng: random.Random) -> tuple[bool, str]:
    for i in range(500):
        text = ""
        while not text:  # an empty document round-trips without a check
            doc = rand_document(rng, i)
            text = print_document(doc)
        back = parse_document(text)
        if back != doc or print_document(back) != text:
            return False, f"round-trip broke on document {i}"
    alphabet = (
        b"basis iet foam planarfoam bracket start merge split cross cup cap"
        b" dot label end lengths perm flips digits u d L R {}[]();,=:*+-/"
        b" 0123456789 r2 _ \n\t#"
    )
    for i in range(10000):
        n = rng.randrange(0, 100)
        data = rng.randbytes(n) if i % 2 else bytes(rng.choices(alphabet, k=n))
        try:
            parse_bytes(data)
        except FoamError:
            pass
    return True, "500 documents round-tripped; 10000 byte strings parsed or rejected"


CRITERIA: tuple[tuple[int, str, Callable[[random.Random], tuple[bool, str]]], ...] = (
    (1, "saf-homomorphism", _crit_01_saf_homomorphism),
    (2, "commutator-saf-zero", _crit_02_commutator),
    (3, "nu-move-invariance", _crit_03_nu_move_invariance),
    (4, "closure-half-saf", _crit_04_closure_half_saf),
    (5, "crossing-splitoff", _crit_05_crossing_splitoff),
    (6, "z4-cocycle", _crit_06_z4),
    (7, "theta-relations", _crit_07_theta_relations),
    (8, "euclid-commensurable", _crit_08_euclid),
    (9, "delta-coherence", _crit_09_delta),
    (10, "flip-triviality", _crit_10_flip_triviality),
    (11, "gamma-label-invariance", _crit_11_gamma),
    (12, "zerofoam-class", _crit_12_zerofoam),
    (13, "dsl-roundtrip", _crit_13_dsl),
)


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            rng = random.Random(seed * 1000 + num)
            ok, detail = fn(rng)
            return CriterionResult(num, name, ok, detail)
    raise ValueError(f"no criterion {number}")


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [run_criterion(num, seed) for num, _, _ in CRITERIA]
