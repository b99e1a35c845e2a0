"""Acceptance battery: thirteen criteria, one test each.

Every check is exact rational arithmetic; the tolerance on every equality
is zero.  The battery is deterministic: each criterion draws from its own
seeded stream, so a failure reproduces with the same seed.  Run with -v to
get one pass/fail line per criterion; run `foamcalc selftest --report` for
the same battery from the command line.
"""

import hashlib
import random

import pytest

from foamcalc.acceptance import (
    CRITERIA,
    DEFAULT_SEED,
    demo_basis,
    rand_iet_on_total,
    rand_nonzero_weight,
    rand_positive_weight,
    rand_total,
    run_criterion,
)

_IDS = [f"{num:02d}-{name}" for num, name, _ in CRITERIA]


@pytest.mark.parametrize("number", [num for num, _, _ in CRITERIA], ids=_IDS)
def test_criterion(number):
    result = run_criterion(number, seed=DEFAULT_SEED)
    print(result.line())
    assert result.ok, result.line()


# sha256 of 200 draws of each weight generator and of rand_iet_on_total with
# flips, on each demo basis.  The battery's instances are these draws, so a
# change to how a generator builds its weights must leave it unchanged.
DRAWS_DIGEST = "5fdb9e023638c646207b0628bfdaaddcda8dfaf188f75e6874b521349784ec6e"


def test_draws_are_pinned():
    h = hashlib.sha256()
    for names in ((), ("r2",), ("r2", "r3")):
        basis = demo_basis(*names)
        for name, gen in (("pos", rand_positive_weight), ("nz", rand_nonzero_weight),
                          ("tot", rand_total)):
            rng = random.Random(17)
            for _ in range(200):
                w = gen(rng, basis)
                h.update(repr((name, w.den, w.nums)).encode())
        rng = random.Random(17)
        for _ in range(200):
            t = rand_iet_on_total(rng, basis, rand_total(rng, basis), allow_flips=True)
            lengths = [(w.den, w.nums) for w in t.lengths]
            h.update(repr(("iet", lengths, t.perm, t.flips)).encode())
    assert h.hexdigest() == DRAWS_DIGEST
