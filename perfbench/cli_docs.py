"""The cli-docs workload: in-process CLI calls on seeded documents.

At set-up the workload writes a plan of documents (3 to 30 KB, every item
kind) and the trace files that ``validate-trace`` reads, and computes the
expected stdout of every call from the in-memory objects the documents were
written from.  The document text comes from this module's own printer, so
a call's output is checked against a path that never went through the
library's parser or CLI.  The CLI prints ``json.dumps(obj, indent=2,
sort_keys=True)`` (docs/cli.md), which makes the expected stdout exact.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction

from foamcalc import (
    AbelianGroupSpec,
    BracketSum,
    Cap,
    Cross,
    Cup,
    Dot,
    GeneratorBasis,
    Iet,
    Label,
    Merge,
    PCap,
    PCup,
    PMerge,
    PSplit,
    PlanarFoam,
    Split,
    Weight,
    bracket_simplify,
    bracket_sum_make_positive,
    flip_reduce,
    foam_make_positive,
    gamma,
    iet_apply,
    iet_closure,
    iet_compose,
    nu,
    planar_classify,
    saf,
    theta,
    trace_to_json,
    tripod_decompose,
    zerofoam_class,
)
from foamcalc.cli import main as cli_main
from foamcalc.decorated import GroupLabel

from catalog import DEFAULT_SEED
from workloads import (
    R2,
    R3,
    Op,
    Workload,
    braid_closure,
    insert_dots,
    iet_on_total,
    rand_coeffs,
)

# Target size in KB and Euclid length k of the commensurable pairs [x, k*x],
# one entry per document.
DOC_PLAN = {
    "full": ((3, 12), (4, 1000), (6, 40), (9, 300), (13, 5), (20, 120), (30, 600)),
    "tiny": ((1, 9),),
}

# sha256 over exit code and stdout of every call of the first pass at
# DEFAULT_SEED and size "full", recorded when the benchmark was defined: the
# CLI's JSON must stay byte-identical.
EXPECTED_DIGEST = "0e565da273df7a22cb77c4042ba51597178e6f86a2757c68be5aba29e641f8bd"


# --- text printer -------------------------------------------------------------


def wtext(w: Weight) -> str:
    if w.is_zero():
        return "0"
    out = ""
    for i, c in w.coeffs:
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        term = num if i == 0 else f"{num}*{w.basis.name(i)}"
        if not out:
            out = term if c > 0 else "-" + term
        else:
            out += (" + " if c > 0 else " - ") + term
    return out


def iet_text(name: str, t: Iet) -> str:
    lines = [f"iet {name} {{",
             f"  lengths = [{', '.join(wtext(w) for w in t.lengths)}];",
             f"  perm = [{', '.join(map(str, t.perm))}];"]
    if t.is_flipped():
        lines.append(f"  flips = [{', '.join('1' if f else '0' for f in t.flips)}];")
    return "\n".join(lines + ["}"])


def event_text(e) -> str:
    if isinstance(e, Cup):
        return f"cup {e.pos} {wtext(e.weight)} {e.dir.value}"
    if isinstance(e, Split):
        return f"split {e.pos} {e.order.value} {wtext(e.left)}"
    if isinstance(e, Merge):
        return f"merge {e.pos} {e.order.value}"
    if isinstance(e, Label):
        return f"label {e.pos} ({', '.join(map(str, e.g.free))}; {', '.join(map(str, e.g.tors))})"
    name = {Cross: "cross", Cap: "cap", Dot: "dot"}[type(e)]
    return f"{name} {e.pos}"


def foam_text(name: str, d) -> str:
    body = [f"  {event_text(e)};" for e in d.events]
    return "\n".join([f"foam {name} {{", "  start [];"] + body + ["  end;", "}"])


def pevent_text(e) -> str:
    if isinstance(e, PCup):
        return f"cup {e.pos} {wtext(e.weight)}"
    if isinstance(e, PSplit):
        return f"split {e.pos} {wtext(e.left)}"
    return f"{'merge' if isinstance(e, PMerge) else 'cap'} {e.pos}"


def planar_text(name: str, f: PlanarFoam) -> str:
    body = [f"  {pevent_text(e)};" for e in f.events]
    return "\n".join([f"planarfoam {name} {{", "  start [];"] + body + ["  end;", "}"])


def bracket_text(name: str, s: BracketSum) -> str:
    if not s.terms:
        return f"bracket {name} = 0;"
    body = " + ".join(f"{c}*[{wtext(a)}, {wtext(b)}]" for c, a, b in s.terms)
    return f"bracket {name} = {body};"


# --- item generators ----------------------------------------------------------


def tripods(basis: GeneratorBasis, pairs) -> PlanarFoam:
    """Disjoint standard tripods T(x, y), one per pair."""
    events = []
    for x, y in pairs:
        half = Fraction(1, 2)
        events += [PCup(0, x.scale(half)), PMerge(0), PCup(1, y.scale(half)), PMerge(1),
                   PMerge(0), PSplit(0, (x + y).scale(half)), PCap(0)]
    return PlanarFoam(basis, [], events)


def signed_weight(rng: random.Random, basis: GeneratorBasis) -> Weight:
    while True:
        w = Weight(basis, {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for i in range(len(basis))})
        if not w.is_zero():
            return w


def labelled_closure(rng: random.Random, basis: GeneratorBasis):
    d = braid_closure(rng, basis, 3, 0, False)
    for _ in range(2):
        slots = [(s, len(sl)) for s, sl in enumerate(d.slices) if sl]
        s, width = rng.choice(slots)
        g = GroupLabel((rng.randint(-4, 4), rng.randint(-4, 4)), (rng.randint(0, 2),))
        events = list(d.events)
        events.insert(s, Label(rng.randrange(width), g))
        d = d.replace_events(events)
    return d


def positive(rng, basis) -> Weight:
    return Weight(basis, rand_coeffs(rng, len(basis)))


# --- documents and calls --------------------------------------------------------


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Doc:
    """Builds one document's text and its calls with their expected stdout."""

    def __init__(self, rng: random.Random, index: int, kb: int, k: int, workdir: str):
        self.rng = rng
        gens = [R2] if index % 2 == 0 else [R2, R3]
        self.basis = basis = GeneratorBasis(gens)
        self.path = os.path.join(workdir, f"doc{index}.fc")
        self.parts = ["# benchmark document %d" % index, "basis {"]
        self.parts += [f"  {g.name} = {g.enclosure} digits {g.digits};" for g in gens]
        self.parts.append("}")
        self.calls: list[tuple[list[str], str]] = []

        total = Weight(basis, {0: rng.randint(1, 3), 1: rng.randint(1, 2)})
        ia = self.add("ia", iet_text, iet_on_total(rng, basis, total, rng.randint(3, 6)))
        ib = self.add("ib", iet_text, iet_on_total(rng, basis, total, rng.randint(3, 6)))
        flipped = iet_on_total(rng, basis, total, 4)
        fi = self.add("fi", iet_text, Iet(flipped.lengths, flipped.perm, [True, False, True, False]))
        fc = self.add("fc", foam_text, braid_closure(rng, basis, 4, 0, index % 3 == 1))
        fd = self.add("fd", foam_text, braid_closure(rng, basis, 3, 1 + index % 2, index % 2 == 1))
        fg = self.add("fg", foam_text, labelled_closure(rng, basis))
        pp = self.add("pp", planar_text, tripods(basis, [(positive(rng, basis), positive(rng, basis))
                                                         for _ in range(3)]))
        x = positive(rng, basis)
        self.add("pk", planar_text, tripods(basis, [(x, x.scale(k))]))
        y = positive(rng, basis)
        ps = self.add("ps", planar_text, tripods(basis, [(-x, x + y), (y, x)]))
        self.add("bk", bracket_text, BracketSum(basis, [(2, y.scale(k), y), (-1, x, x.scale(k - 1))]))
        bm = self.add("bm", bracket_text, BracketSum(
            basis, [(rng.choice((-2, -1, 1, 3)), signed_weight(rng, basis), signed_weight(rng, basis))
                    for _ in range(3)]))

        point = Weight(basis, {i: c * Fraction(rng.randint(1, 15), 16) for i, c in total.coeffs})
        trace = flip_reduce(fd)
        trace_path = os.path.join(workdir, f"doc{index}.trace.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(trace_to_json(trace), fh)
        points = [(1, positive(rng, basis)), (-1, positive(rng, basis)), (1, positive(rng, basis))]
        tensor, base = gamma(fg, AbelianGroupSpec(2, (3,)))
        v, w = nu(fc), zerofoam_class(points)
        bound = ["--euclid-bound", str(k + 1)]
        zero_verdict = {"verdict": "ZeroBracket", "theta": [], "residual": []}
        if index % 2:
            self.call(["classify", "pp"], planar_classify(pp).to_json())
        else:
            self.call(["classify", "fc"], {"nu": v.to_json(), "null_cobordant": v.is_zero()})
        self.call(["saf", "ia"], saf(ia).to_json())
        self.call(["compose", "ib", "fi"], iet_compose(ib, fi).to_json())
        self.call(["apply", "fi", wtext(point)], iet_apply(fi, point).to_json())
        self.call(["closure", "ia"], iet_closure(ia).to_json())
        self.call(["nu", "fc"], v.to_json())
        self.call(["classify", "pk"] + bound, zero_verdict)
        self.call(["classify", "bk"] + bound, zero_verdict)
        self.call(["tripods", "pp"], tripod_decompose(pp).to_json())
        self.call(["bracket-simplify", "bm"], bracket_simplify(bm).to_json())
        self.call(["theta", "pp" if index % 2 else "bm"],
                  theta(tripod_decompose(pp) if index % 2 else bm).to_json())
        self.call(["make-positive", "ps"], foam_make_positive(ps).to_json())
        self.call(["make-positive", "bm"], bracket_sum_make_positive(bm).to_json())
        self.call(["flip-reduce", "fd"], {"trace": trace_to_json(trace), "steps": len(trace)})
        self.call(["validate-trace", "fd", trace_path], {"ok": True, "steps": len(trace)})
        self.call(["gamma", "fg", "--torsion", "3"],
                  {"tensor": [t.to_json() for t in tensor.components], "nu": base.to_json()})
        self.call(["zerofoam", " ".join(("+" if s > 0 else "-") + wtext(p).replace(" ", "")
                                        for s, p in points)],
                  {"class": w.to_json(), "zero": w.is_zero()})

        self.fill(kb * 1024)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts) + "\n")

    def add(self, name, printer, item):
        self.parts.append(printer(name, item))
        return item

    def call(self, args: list[str], expected) -> None:
        """A call on this document; ``expected`` is the object the CLI prints."""
        self.calls.append(([args[0], self.path] + args[1:], _json(expected)))

    def fill(self, target: int) -> None:
        """Unused items of every kind until the text reaches ``target`` bytes."""
        rng, basis = self.rng, self.basis
        n = 0
        while sum(len(p) + 1 for p in self.parts) < target:
            kind = n % 4
            name = f"filler{n}"
            if kind == 0:
                total = Weight(basis, {0: rng.randint(1, 3), 1: rng.randint(1, 2)})
                self.parts.append(iet_text(name, iet_on_total(rng, basis, total, rng.randint(4, 8))))
            elif kind == 1:
                self.parts.append(foam_text(name, insert_dots(
                    rng, braid_closure(rng, basis, 3, 0, False), rng.randint(0, 2))))
            elif kind == 2:
                self.parts.append(planar_text(name, tripods(
                    basis, [(positive(rng, basis), positive(rng, basis)) for _ in range(2)])))
            else:
                self.parts.append(bracket_text(name, BracketSum(
                    basis, [(rng.randint(1, 3), signed_weight(rng, basis), signed_weight(rng, basis))
                            for _ in range(4)])))
            n += 1


def _run(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, buf.getvalue()


def _check(expected: str):
    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}: {text.strip()[:200]}"
        if text != expected:
            return "stdout differs from the expected output"
        return None
    return check


def cli_docs(seed: int, size: str, workdir: str) -> Workload:
    rng = random.Random(f"cli-docs:{seed}")
    os.makedirs(workdir, exist_ok=True)
    calls = []
    for index, (kb, k) in enumerate(DOC_PLAN[size]):
        calls += _Doc(rng, index, kb, k, workdir).calls
    rng.shuffle(calls)
    ops = [
        Op(" ".join([argv[0], os.path.basename(argv[1])] + argv[2:]),
           lambda argv=argv: _run(argv), _check(expected), lambda out: f"{out[0]}\n{out[1]}")
        for argv, expected in calls
    ]
    digest = EXPECTED_DIGEST if seed == DEFAULT_SEED and size == "full" else None
    return Workload(ops, tail_pct=90, expected_digest=digest,
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))
