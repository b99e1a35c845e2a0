"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on a shared host whose speed drifts by up to 2x over
tens of seconds, because co-tenants compete for the same cores and caches.
That drift moves every timing of a run together.  The worker therefore runs
``kernel()`` between ops and scales each op's latency by how long the kernel
took around it:

    reported = measured * NOMINAL_S / (kernel time near the op)

so the reported numbers are seconds at the speed at which the kernel takes
``NOMINAL_S``.  The kernel uses only the standard library (Fraction and big
integer arithmetic, small objects, dicts, sorting and string formatting, the
mix the library itself spends its time on), so a change to foamcalc cannot
change the kernel's time and every change to foamcalc's speed still shows
in full.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the kernel's median time under CPython 3.11 on the 2-CPU x86_64 host
# of baseline.json.  It is a fixed constant, so that the scaled figures of
# two commits compare directly.
NOMINAL_S = 0.008

# How many kernel samples around an op give its speed estimate.
NEIGHBOURS = 7


class _Term:
    __slots__ = ("key", "coeff")

    def __init__(self, key: tuple[int, int], coeff: Fraction):
        self.key = key
        self.coeff = coeff

    def scaled(self, by: Fraction) -> "_Term":
        return _Term(self.key, self.coeff * by)


def kernel() -> int:
    """About NOMINAL_S of deterministic work; returns a checksum."""
    state = 12345
    acc: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for i in range(400):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        term = _Term((i % 31, state % 7), Fraction(state % 9973 + 1, (state >> 20) % 997 + 1))
        term = term.scaled(Fraction(i % 5 + 1, 3))
        acc[term.key] = acc.get(term.key, Fraction(0)) + term.coeff
        total += term.coeff * term.coeff - total / 7
        total = Fraction(total.numerator % (1 << 80), total.denominator % (1 << 40) + 1)
    ranked = sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
    text = ",".join(f"{k[0]}:{k[1]}={v.numerator}/{v.denominator}" for k, v in ranked)
    return (len(text) + total.numerator) % 1000003


def sample() -> tuple[float, float]:
    """Run the kernel once; returns (midpoint on the perf_counter clock, seconds)."""
    start = time.perf_counter()
    kernel()
    end = time.perf_counter()
    return (start + end) / 2, end - start


def scale(samples: list[tuple[float, float]], at: float) -> float:
    """Factor that turns a time measured around ``at`` into nominal seconds:
    NOMINAL_S over the median kernel time of the NEIGHBOURS samples nearest
    to ``at``."""
    near = sorted(samples, key=lambda s: abs(s[0] - at))[:NEIGHBOURS]
    return NOMINAL_S / statistics.median(dt for _, dt in near)
