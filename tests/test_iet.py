"""Interval exchanges: composition, inverse, SAF.

The oracle for composition is the rotation subgroup: the two-piece
exchange with permutation [2,1] and lengths [T-a, a] is rotation by a,
rotations compose by adding amounts mod T, and every value is checked
both structurally (canonical forms) and pointwise (iet_apply on sample points).
A second oracle is ``reference_compose``, composition by an all-pairs cut
search and comparison sorts, run against the sweep on random pairs with
flips and at low precision.
"""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from foamcalc import iet
from foamcalc import (
    POSITIVE,
    FlippedIet,
    Generator,
    GeneratorBasis,
    BasisMismatch,
    Iet,
    NonPositiveWeight,
    OutOfDomain,
    PrecisionExhausted,
    TotalMismatch,
    WedgeValue,
    Weight,
    iet_apply,
    iet_compose,
    iet_inverse,
    saf,
    wedge,
    weight_cmp,
)


def rotation(total, a):
    """Rotation by a on [0, total); a must satisfy 0 <= a < total."""
    if a.is_zero():
        return Iet.identity(total)
    return Iet([total - a, a], [2, 1])


def _same_map(a, b):
    """Equality as maps: the canonical forms agree structurally."""
    return a.canonical() == b.canonical()


def mod_total(x, total):
    while weight_cmp(x, total) >= 0:
        x = x - total
    return x


ROT_AMOUNTS = ["1/3", "1/2", "1", "1*r2 - 1", "1/2*r2", "5/4"]
SAMPLE_POINTS = ["0", "1/7", "1", "1*r2 - 1/2", "2/5 + 1/2*r2"]


def test_rotation_composition_grid(w):
    total = w("1 + 1*r2")
    for sa in ROT_AMOUNTS:
        for sb in ROT_AMOUNTS:
            a, b = w(sa), w(sb)
            composed = iet_compose(rotation(total, a), rotation(total, b))
            expected = rotation(total, mod_total(a + b, total))
            assert _same_map(composed, expected), (sa, sb)
            for sx in SAMPLE_POINTS:
                x = w(sx)
                assert iet_apply(composed, x) == mod_total(x + a + b, total)


def test_rotation_saf(w):
    total = w("1 + 1*r2")
    for sa in ROT_AMOUNTS:
        a = w(sa)
        assert saf(rotation(total, a)) == wedge(total, a).scale(2)


def test_identity_left_right_neutral(w):
    total = w("1 + 1*r2")
    t = Iet([w("1"), w("1/2"), w("1/2*r2"), w("1/2 + 1/2*r2") - w("1")], [3, 1, 4, 2])
    e = Iet.identity(total)
    assert _same_map(iet_compose(t, e), t)
    assert _same_map(iet_compose(e, t), t)


def test_inverse(w):
    t = Iet([w("1"), w("1*r2"), w("1/2")], [3, 1, 2])
    e = Iet.identity(t.total)
    assert _same_map(iet_compose(t, iet_inverse(t)), e)
    assert _same_map(iet_compose(iet_inverse(t), t), e)


def test_swap_displacements(w):
    a, b = w("1"), w("1*r2")
    s = Iet([a, b], [2, 1])
    assert [u - x for x, u in zip(s.source_starts(), s.target_starts())] == [b, -a]
    assert saf(s) == wedge(a, b).scale(2)


def test_equal_swap_is_involution(w):
    s = Iet([w("1/2"), w("1/2")], [2, 1])
    assert _same_map(iet_compose(s, s), Iet.identity(w("1")))


def test_unequal_swap_is_a_rotation(w):
    # swapping unequal pieces is rotation by the second length, not an
    # involution: composing with itself rotates by twice that length
    a, b = w("1"), w("1*r2")
    s = Iet([a, b], [2, 1])
    total = a + b
    assert _same_map(s, rotation(total, b))
    twice = iet_compose(s, s)
    assert not _same_map(twice, Iet.identity(total))
    assert _same_map(twice, rotation(total, mod_total(b + b, total)))


def test_canonical_coalesces(w):
    t = Iet([w("1"), w("1/2"), w("1/2")], [1, 2, 3])
    assert t.canonical().r == 1
    assert _same_map(t, Iet.identity(w("2")))


def test_flip_semantics(w):
    # one flipped piece over the whole interval reverses it
    t = Iet([w("1")], [1], [True])
    assert iet_apply(t, w("0")) == w("0")  # left endpoint fixed by convention
    assert iet_apply(t, w("1/4")) == w("3/4")
    # flipped composed with itself is the identity
    assert _same_map(iet_compose(t, t), Iet.identity(w("1")))


def test_saf_refuses_flips(w):
    t = Iet([w("1"), w("1")], [2, 1], [True, False])
    with pytest.raises(FlippedIet):
        saf(t)


def test_constructor_validation(w):
    with pytest.raises(NonPositiveWeight):
        Iet([w("1"), w("0")], [1, 2])
    with pytest.raises(Exception) as exc_info:
        Iet([w("1"), w("1")], [1, 1])
    assert "bijection" in str(exc_info.value)


def test_perm_refuses_non_integers(w):
    """int() would truncate [1.5, 2] to the identity's [1, 2]."""
    with pytest.raises(TypeError):
        Iet([w("1"), w("1*r2")], [1.5, 2])
    with pytest.raises(TypeError):
        Iet([w("1"), w("1*r2")], [Fraction(2), 1])


def test_compose_total_mismatch(w):
    with pytest.raises(TotalMismatch):
        iet_compose(Iet.identity(w("1")), Iet.identity(w("2")))


def test_compose_over_different_bases_is_a_basis_mismatch(w, w3):
    with pytest.raises(BasisMismatch, match="weights over different bases"):
        iet_compose(Iet.identity(w("1")), Iet.identity(w3("1")))


def test_apply_out_of_domain(w):
    t = Iet.identity(w("1"))
    with pytest.raises(OutOfDomain):
        iet_apply(t, w("1"))
    with pytest.raises(OutOfDomain):
        iet_apply(t, w("-1/2"))


def test_compose_associative(w):
    total = w("1 + 1*r2")
    t1 = rotation(total, w("1/2*r2"))
    t2 = Iet([w("1"), w("1*r2")], [2, 1])
    t3 = Iet([w("1/2"), w("1/2"), w("1*r2")], [3, 2, 1])
    left = iet_compose(iet_compose(t1, t2), t3)
    right = iet_compose(t1, iet_compose(t2, t3))
    assert _same_map(left, right)


def test_saf_homomorphism_hand_case(w):
    t = Iet([w("1"), w("1*r2"), w("1/2")], [3, 1, 2])
    s = Iet([w("1/2"), w("1 + 1*r2")], [2, 1])
    assert saf(iet_compose(s, t)) == saf(s) + saf(t)
    # commutator SAF vanishes
    comm = iet_compose(
        iet_compose(s, t), iet_compose(iet_inverse(s), iet_inverse(t))
    )
    assert saf(comm).is_zero()


# ------------------------------------------------- the sweep against an oracle


def _reference_iet(pieces):
    """The Iet of ``(source_start, length, image_start, flip)`` pieces in
    source order, its perm ranked by comparing the image starts."""
    by_image = cmp_to_key(lambda a, b: weight_cmp(pieces[a][2], pieces[b][2]))
    ranked = sorted(range(len(pieces)), key=by_image)
    perm = [0] * len(pieces)
    for rank, idx in enumerate(ranked, start=1):
        perm[idx] = rank
    return Iet([p[1] for p in pieces], perm, [p[3] for p in pieces])


def _reference_canonical(t):
    merged = []
    for lam, s, u, f in zip(t.lengths, t.source_starts(), t.target_starts(), t.flips):
        if merged:
            plam, ps, pu, pf = merged[-1]
            if pf == f and ((not f and u == pu + plam) or (f and pu == u + lam)):
                merged[-1] = [plam + lam, ps, u if f else pu, f]
                continue
        merged.append([lam, s, u, f])
    return _reference_iet([(s, lam, u, f) for lam, s, u, f in merged])


def _reference_piece(t, starts, x):
    for k in range(t.r):
        if weight_cmp(x, starts[k]) >= 0 and weight_cmp(x, starts[k + 1]) < 0:
            return k
    raise OutOfDomain(f"{x} outside [0, {t.total})")


def reference_compose(second, first):
    """Composition by cut search and sorting: O(r1 * r2) comparisons."""
    b_starts = second.source_starts() + [second.total]
    v_starts = second.target_starts()
    sub = []
    f_src, f_tgt = first.source_starts(), first.target_starts()
    for i in range(first.r):
        s, lam, u, f1 = f_src[i], first.lengths[i], f_tgt[i], first.flips[i]
        hi = u + lam
        cuts = [u]
        for k in range(1, second.r):
            bk = b_starts[k]
            if weight_cmp(bk, u) > 0 and weight_cmp(bk, hi) < 0:
                cuts.append(bk)
        cuts.append(hi)
        for c, d in zip(cuts, cuts[1:]):
            seg = d - c
            if seg.is_zero():
                continue
            k = _reference_piece(second, b_starts, c)
            f2 = second.flips[k]
            if f2:
                y0 = v_starts[k] + (b_starts[k] + second.lengths[k] - d)
            else:
                y0 = v_starts[k] + (c - b_starts[k])
            x0 = s + (hi - d) if f1 else s + (c - u)
            sub.append((x0, seg, y0, f1 != f2))
    sub.sort(key=cmp_to_key(lambda a, b: weight_cmp(a[0], b[0])))
    return _reference_canonical(_reference_iet(sub))


FULL = GeneratorBasis([
    Generator("r2", "1.414213562373095048801688724209698078569", 40),
    Generator("r3", "1.732050807568877293527446341505872366942", 40),
])


def _atoms(rng, basis, n):
    """n weights, with coefficients of either sign, that are decided
    positive at the basis's precision."""
    out = []
    while len(out) < n:
        w = Weight(basis, {i: Fraction(rng.randint(-3, 4), rng.randint(1, 4)) for i in range(3)})
        try:
            if w.sign() == POSITIVE:
                out.append(w)
        except PrecisionExhausted:
            pass
    return out


def _grouped(rng, atoms, flips):
    """An IET whose lengths are sums of consecutive runs of ``atoms``."""
    lengths, acc = [], None
    for a in atoms:
        acc = a if acc is None else acc + a
        if rng.random() < 0.5:
            lengths.append(acc)
            acc = None
    if acc is not None:
        lengths.append(acc)
    perm = list(range(1, len(lengths) + 1))
    rng.shuffle(perm)
    return Iet(lengths, perm, [flips and rng.random() < 0.4 for _ in lengths])


def _on(basis, t):
    return Iet([Weight(basis, dict(lam.coeffs)) for lam in t.lengths], t.perm, t.flips)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted as exc:
        return exc


def test_sweep_matches_reference_compose():
    rng = random.Random(10)
    agreed = raised = recovered = 0
    for trial in range(400):
        digits = rng.choice([1, 1, 2, 3, 40])
        basis = FULL if digits == 40 else FULL.with_precision_cap(digits)
        atoms = _atoms(rng, basis, rng.randint(1, 8))
        first = _grouped(rng, atoms, trial % 2 == 0)
        shuffled = atoms[:]
        if rng.random() < 0.7:
            rng.shuffle(shuffled)
        second = _grouped(rng, shuffled, trial % 3 == 0)
        for t in (first, second):
            assert t.canonical() == _reference_canonical(t)
        want = _outcome(reference_compose, second, first)
        got = _outcome(iet_compose, second, first)
        if not isinstance(want, PrecisionExhausted):
            assert got == want, (trial, second, first)
            agreed += 1
        elif isinstance(got, PrecisionExhausted):
            raised += 1
        else:
            exact = reference_compose(_on(FULL, second), _on(FULL, first))
            assert _on(FULL, got) == exact, (trial, second, first)
            recovered += 1
    assert agreed > 200 and raised + recovered > 5, (agreed, raised, recovered)


def test_compose_cost_guard(monkeypatch):
    """A compose makes at most r1 + r2 weight comparisons."""
    rng = random.Random(11)
    calls = []

    def counting_cmp(a, b):
        calls.append(1)
        return weight_cmp(a, b)

    monkeypatch.setattr(iet, "weight_cmp", counting_cmp)
    for trial in range(100):
        atoms = _atoms(rng, FULL, rng.randint(1, 24))
        first = _grouped(rng, atoms, trial % 2 == 0)
        rng.shuffle(atoms)
        second = _grouped(rng, atoms, trial % 2 == 1)
        del calls[:]
        iet_compose(second, first)
        assert len(calls) <= first.r + second.r


def test_saf_matches_inversion_sum():
    rng = random.Random(12)
    for _ in range(60):
        t = _grouped(rng, _atoms(rng, FULL, rng.randint(1, 9)), False)
        want = WedgeValue.zero(FULL)
        for i in range(t.r):
            for j in range(i + 1, t.r):
                if t.perm[j] < t.perm[i]:
                    want = want + wedge(t.lengths[i], t.lengths[j])
        assert saf(t) == want.scale(2)
