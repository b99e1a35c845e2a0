"""Seeded inputs and operations of the benchmark workloads.

Each workload turns ``(seed, size)`` into a list of operations.  An
operation is one call into the library (or one in-process CLI call) plus
an independent check of its result.  The seed drives every random choice;
the sizes of the inputs follow a fixed plan per workload, so that two seeds
differ in the instances and not in how much work they ask for.  The library
only ever sees the generated inputs, never the seed, except for the
acceptance battery, whose seed is its input.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable

from foamcalc import (
    Dot,
    FoamDiagram,
    Generator,
    GeneratorBasis,
    Iet,
    Weight,
    flip_reduce,
    iet_closure,
    iet_compose,
    mirror,
    nu,
    saf,
    trace_to_json,
    validate_trace,
    weight_cmp,
)
from foamcalc.acceptance import CRITERIA, run_criterion


R2 = Generator("r2", "1.4142135623730951", 16)
R3 = Generator("r3", "1.7320508075688772", 16)


@dataclass
class Op:
    """One timed call.  ``run`` is the part that is timed; ``check`` returns
    None when the result is right and a reason otherwise; ``render`` gives
    the canonical text of the result that the output digest covers."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    render: Callable[[object], str]


@dataclass
class Workload:
    ops: list[Op]
    tail_pct: int  # op_tail_ms is this percentile over the inputs
    new_inputs_each_pass: bool = False  # else every pass repeats the same inputs
    expected_digest: str | None = None  # checked when not None
    cleanup: Callable[[], None] = lambda: None


# --- shared generators ------------------------------------------------------


def rand_coeffs(rng: random.Random, n: int, top: int = 6) -> dict[int, Fraction]:
    """Nonnegative rational coefficients on n generators, not all zero, so
    the weight is positive by the declared independence."""
    while True:
        coeffs = {
            i: Fraction(rng.randint(0, top), rng.randint(1, 4)) for i in range(n)
        }
        if any(coeffs.values()):
            return coeffs


def perm_with_inversions(rng: random.Random, r: int, inversions: int) -> list[int]:
    """A random permutation of 1..r with exactly the given inversion count,
    decoded from a random Lehmer code with that digit sum."""
    code = [0] * r
    for _ in range(inversions):
        open_slots = [i for i in range(r) if code[i] < r - 1 - i]
        code[rng.choice(open_slots)] += 1
    free = list(range(1, r + 1))
    return [free.pop(c) for c in code]


def sorted_cuts(rng: random.Random, basis: GeneratorBasis, total: Weight, count: int) -> list[Weight]:
    """``count`` distinct points strictly inside (0, total), ascending."""
    cuts: set[Weight] = set()
    while len(cuts) < count:
        cuts.add(
            Weight(basis, {i: c * Fraction(rng.randint(1, 255), 256) for i, c in total.coeffs})
        )
    return sorted(cuts, key=cmp_to_key(weight_cmp))


def iet_on_total(rng: random.Random, basis: GeneratorBasis, total: Weight, r: int) -> Iet:
    """Unflipped IET with r pieces cut from ``total`` and a uniform perm."""
    lengths, prev = [], Weight(basis, {})
    for c in sorted_cuts(rng, basis, total, r - 1):
        lengths.append(c - prev)
        prev = c
    lengths.append(total - prev)
    perm = list(range(1, r + 1))
    rng.shuffle(perm)
    return Iet(lengths, perm)


def insert_dots(rng: random.Random, d: FoamDiagram, count: int) -> FoamDiagram:
    """Dot events at random slots that have a strand to carry them."""
    for _ in range(count):
        slots = [(s, len(sl)) for s, sl in enumerate(d.slices) if sl]
        s, width = rng.choice(slots)
        events = list(d.events)
        events.insert(s, Dot(rng.randrange(width)))
        d = d.replace_events(events)
    return d


def braid_closure(rng: random.Random, basis: GeneratorBasis, r: int, dots: int,
                  mirrored: bool) -> FoamDiagram:
    """Closure of an unflipped IET with r random positive lengths and a perm
    with the mean inversion count r(r-1)/4, then dots, then maybe mirrored.
    Diagrams of this family stay inside the braid-closure class that
    flip_reduce certifies."""
    lengths = [Weight(basis, rand_coeffs(rng, len(basis))) for _ in range(r)]
    perm = perm_with_inversions(rng, r, r * (r - 1) // 4)
    d = insert_dots(rng, iet_closure(Iet(lengths, perm)), dots)
    return mirror(d) if mirrored else d


def expand(plan: dict[int, int]) -> list[int]:
    """{size: count} -> the sizes, each repeated count times."""
    return [r for r, count in plan.items() for _ in range(count)]


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --- flip-closures ----------------------------------------------------------

# Number of inputs of each size.  The plans put op_p50_ms and op_tail_ms
# near the middle of a group of inputs of one size, not on the step between
# two sizes, so that which inputs a seed draws moves them little: of the 32
# closures, p50 falls among the ten of r = 8 and p80 among the eight of
# r = 10.
FLIP_PLAN = {
    "full": {6: 5, 7: 5, 8: 10, 9: 2, 10: 8, 11: 1, 12: 1},
    "tiny": {3: 1, 4: 1},
}


def _check_flip(out):
    trace, chk = out
    if not chk.ok:
        return f"trace rejected at step {chk.failed_at}: {chk.reason}"
    if chk.steps != len(trace):
        return f"validated {chk.steps} steps of {len(trace)}"
    return None


def _render_flip(out):
    trace, chk = out
    return dump([trace_to_json(trace), chk.to_json()])


def flip_closures(seed: int, size: str, workdir: str) -> Workload:
    rng = random.Random(f"flip-closures:{seed}")
    basis = GeneratorBasis([R2])
    ops = []
    for k, r in enumerate(expand(FLIP_PLAN[size])):
        dots, mirrored = k % 5, k % 3 == 2
        d = braid_closure(rng, basis, r, dots, mirrored)

        def run(d=d):
            trace = flip_reduce(d)
            return trace, validate_trace(d, trace)

        label = f"r={r} dots={dots}{' mirrored' if mirrored else ''}"
        ops.append(Op(label, run, _check_flip, _render_flip))
    rng.shuffle(ops)
    return Workload(ops, tail_pct=80)


# --- iet-compose ------------------------------------------------------------

COMPOSE_PLAN = {
    "full": {16: 3, 18: 2, 20: 2, 24: 2, 28: 1, 32: 1},
    "tiny": {3: 1, 5: 1},
}


def _render_compose(out):
    c, v, n = out
    return dump([c.to_json(), v.to_json(), n.to_json()])


def iet_compose_workload(seed: int, size: str, workdir: str) -> Workload:
    rng = random.Random(f"iet-compose:{seed}")
    basis = GeneratorBasis([R2, R3])
    ops = []
    for r in expand(COMPOSE_PLAN[size]):
        total = Weight(basis, {0: rng.randint(1, 3), 1: rng.randint(1, 2), 2: rng.randint(1, 2)})
        s = iet_on_total(rng, basis, total, r)
        t = iet_on_total(rng, basis, total, r)
        want = saf(s) + saf(t)

        def run(s=s, t=t):
            c = iet_compose(s, t)
            return c, saf(c), nu(iet_closure(c))

        def check(out, want=want):
            _, v, n = out
            if v != want:
                return "saf(s.t) differs from saf(s) + saf(t)"
            if n != want.scale(Fraction(1, 2)):
                return "nu(closure(s.t)) differs from (saf(s) + saf(t)) / 2"
            return None

        ops.append(Op(f"r={r}", run, check, _render_compose))
    rng.shuffle(ops)
    return Workload(ops, tail_pct=70)


# --- battery ----------------------------------------------------------------


def battery(seed: int, size: str, workdir: str) -> Workload:
    """Pass k runs the criteria with battery seed 1000 * seed + k, so a run
    averages the criteria's cost over several batteries."""
    numbers = [num for num, _, _ in CRITERIA]
    if size == "tiny":
        numbers = [6, 12]

    def criterion(num):
        passes = itertools.count()
        return lambda: run_criterion(num, 1000 * seed + next(passes))

    def check(res):
        return None if res.ok else res.line()

    ops = [Op(f"criterion {num:02d}", criterion(num), check, lambda res: res.line())
           for num in numbers]
    return Workload(ops, tail_pct=75, new_inputs_each_pass=True)
