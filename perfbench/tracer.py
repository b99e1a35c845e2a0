"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` wraps the public functions of each foamcalc layer, both
where they are defined and wherever another module (a foamcalc module or one
of this benchmark's) bound them by name, e.g. ``foamcalc.planar.weight_cmp``.
Methods are wrapped on their class.  ``uninstall`` puts every original back.

A span is one call of a wrapped function.  Spans nest on a stack; a span's
time counts toward its name only when no span of the same name is open
around it, and each span hands its duration to its parent so that
``cli.main`` can report self time.  Spans are aggregated by name as they
close rather than kept one by one: a traced pass makes millions of them.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from foamcalc import cli, decorated, dsl, errors, exterior, foamdiag, iet, moves, planar, weights

from catalog import MOVE_SCHEMAS

# Plain spans: (module, function name, span name).  Several functions may
# share a span name; time and calls then count the outermost of them.  The
# functions that also feed counters are wrapped in Tracer.install.
SPANS = (
    (exterior, "wedge", "exterior.wedge"),
    (iet, "saf", "iet.saf"),
    (foamdiag, "nu", "foamdiag.nu"),
    (foamdiag, "iet_closure", "foamdiag.closure"),
    (moves, "enumerate_moves", "moves.enumerate"),
    (decorated, "validate_trace", "decorated.validate_trace"),
    (decorated, "gamma", "decorated.gamma"),
    (planar, "planar_classify", "planar.classify"),
    (planar, "classify_bracket", "planar.classify"),
    (planar, "bracket_simplify", "planar.bracket_simplify"),
    (planar, "bracket_make_positive", "planar.make_positive"),
    (planar, "bracket_sum_make_positive", "planar.make_positive"),
    (planar, "foam_make_positive", "planar.make_positive"),
    (planar, "tripod_decompose", "planar.tripod_decompose"),
    (planar, "theta", "planar.theta"),
    (dsl, "print_document", "dsl.print"),
)


class Tracer:
    def __init__(self, extra_modules=()):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.stack: list[list[float]] = []  # child time of each open span
        self.sign_seen: set[int] = set()
        self.sign_repeats = 0
        self.rebuilt_in_steps = 0
        self.steps = 0
        self.parse_bytes = 0
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if n == "foamcalc" or n.startswith("foamcalc.")]
        self.modules += list(extra_modules)
        self.patches: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def span(self, name, fn):
        """fn, timed as a span of the given name."""
        calls, depth, stack = self.calls, self.depth, self.stack
        seconds, self_seconds = self.seconds, self.self_seconds

        def wrapper(*args, **kwargs):
            outer = depth[name] == 0
            if outer:
                calls[name] += 1
            depth[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                if outer:
                    seconds[name] += dt
                self_seconds[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_sign(self, fn):
        calls, seen = self.calls, self.sign_seen
        timed = self.span("weights.sign", fn)

        def sign(w):
            key = hash(w)
            if key in seen:
                self.sign_repeats += 1
            else:
                seen.add(key)
            try:
                return timed(w)
            except errors.PrecisionExhausted:
                calls["weights.sign.exhausted"] += 1
                raise

        return sign

    def _wrap_apply_move(self, fn):
        calls = self.calls
        timed = self.span("moves.apply", fn)

        def apply_move(d, m):
            calls[f"moves.apply.calls.{m.schema}"] += 1
            before = calls["foamdiag.apply_event.calls"]
            try:
                out = timed(d, m)
            except errors.SchemaMismatch:
                calls["moves.apply.mismatch"] += 1
                raise
            self.rebuilt_in_steps += calls["foamdiag.apply_event.calls"] - before
            self.steps += 1
            return out

        return apply_move

    def _wrap_parse(self, fn):
        depth = self.depth
        timed = self.span("dsl.parse", fn)

        def parse(source, *args, **kwargs):
            if depth["dsl.parse"] == 0:
                self.parse_bytes += len(source)
            return timed(source, *args, **kwargs)

        return parse

    def _wrap_flip_reduce(self, fn):
        timed = self.span("decorated.flip_reduce", fn)

        def flip_reduce(d):
            trace = timed(d)
            self.calls["decorated.trace_steps"] += len(trace)
            return trace

        return flip_reduce

    def _wrap_compose(self, fn):
        timed = self.span("iet.compose", fn)

        def iet_compose(second, first):
            out = timed(second, first)
            self.calls["iet.compose.pieces_out"] += out.r
            return out

        return iet_compose

    def _wrap_cmp(self, fn, binding):
        calls = self.calls
        timed = self.span("weights.cmp", fn)
        if binding is not planar:
            return timed

        def weight_cmp(a, b):
            calls["planar.cmp_calls"] += 1
            return timed(a, b)

        return weight_cmp

    # --- install --------------------------------------------------------------

    def _rebind(self, original, make) -> None:
        """Replace every module-level binding of ``original``; ``make(module)``
        gives the wrapper for that binding."""
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, make(module))

    def _method(self, cls, attr, wrapper) -> None:
        self.patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        W = weights.Weight
        self._method(W, "sign", self._wrap_sign(W.sign))
        self._method(W, "interval", self.counted("weights.interval.calls", W.interval))
        self._method(W, "__init__", self.counted("weights.new.calls", W.__init__))
        self._method(exterior.WedgeValue, "__add__",
                     self.counted("exterior.add.calls", exterior.WedgeValue.__add__))
        self._method(foamdiag.FoamDiagram, "__init__",
                     self.span("foamdiag.build", foamdiag.FoamDiagram.__init__))
        self._rebind(foamdiag.apply_event,
                     lambda m, f=foamdiag.apply_event: self.counted("foamdiag.apply_event.calls", f))
        self._rebind(weights.weight_cmp, lambda m, f=weights.weight_cmp: self._wrap_cmp(f, m))
        for module, attr, name in SPANS:
            fn = getattr(module, attr)
            wrapped = self.span(name, fn)
            self._rebind(fn, lambda m, w=wrapped: w)
        for fn, make in (
            (moves.apply_move, self._wrap_apply_move),
            (decorated.flip_reduce, self._wrap_flip_reduce),
            (iet.iet_compose, self._wrap_compose),
            (dsl.parse_document, self._wrap_parse),
            (dsl.parse_bytes, self._wrap_parse),
            (cli.main, lambda f: self.span("cli.main", f)),
        ):
            wrapped = make(fn)
            self._rebind(fn, lambda m, w=wrapped: w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # --- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, s = self.calls, self.seconds
        sign_calls = c["weights.sign"]
        out = {
            "weights.sign.calls": sign_calls,
            "weights.sign.s": s["weights.sign"],
            "weights.sign.exhausted": c["weights.sign.exhausted"],
            "weights.sign.repeat_frac": self.sign_repeats / sign_calls if sign_calls else 0.0,
            "weights.interval.calls": c["weights.interval.calls"],
            "weights.new.calls": c["weights.new.calls"],
            "weights.cmp.calls": c["weights.cmp"],
            "exterior.wedge.calls": c["exterior.wedge"],
            "exterior.wedge.s": s["exterior.wedge"],
            "exterior.add.calls": c["exterior.add.calls"],
            "iet.compose.calls": c["iet.compose"],
            "iet.compose.s": s["iet.compose"],
            "iet.compose.pieces_out": c["iet.compose.pieces_out"],
            "iet.saf.s": s["iet.saf"],
            "foamdiag.build.calls": c["foamdiag.build"],
            "foamdiag.build.s": s["foamdiag.build"],
            "foamdiag.apply_event.calls": c["foamdiag.apply_event.calls"],
            "foamdiag.apply_event.per_step":
                self.rebuilt_in_steps / self.steps if self.steps else 0.0,
            "foamdiag.nu.s": s["foamdiag.nu"],
            "foamdiag.closure.s": s["foamdiag.closure"],
            "moves.apply.calls": c["moves.apply"],
            "moves.apply.s": s["moves.apply"],
            "moves.apply.mismatch": c["moves.apply.mismatch"],
            "moves.apply.useful_frac":
                1 - c["moves.apply.mismatch"] / c["moves.apply"] if c["moves.apply"] else 0.0,
            "moves.enumerate.s": s["moves.enumerate"],
        }
        for schema in MOVE_SCHEMAS:
            out[f"moves.apply.calls.{schema}"] = c[f"moves.apply.calls.{schema}"]
        parse_s = s["dsl.parse"]
        out.update({
            "decorated.flip_reduce.s": s["decorated.flip_reduce"],
            "decorated.validate_trace.s": s["decorated.validate_trace"],
            "decorated.trace_steps": c["decorated.trace_steps"],
            "decorated.gamma.s": s["decorated.gamma"],
            "planar.classify.s": s["planar.classify"],
            "planar.bracket_simplify.s": s["planar.bracket_simplify"],
            "planar.make_positive.s": s["planar.make_positive"],
            "planar.tripod_decompose.s": s["planar.tripod_decompose"],
            "planar.theta.s": s["planar.theta"],
            "planar.cmp_calls": c["planar.cmp_calls"],
            "dsl.parse.calls": c["dsl.parse"],
            "dsl.parse.s": parse_s,
            "dsl.parse.bytes_per_s": self.parse_bytes / parse_s if parse_s else 0.0,
            "dsl.print.s": s["dsl.print"],
            "cli.main.calls": c["cli.main"],
            "cli.main.s": s["cli.main"],
            "cli.main.self_s": self.self_seconds["cli.main"],
        })
        return out
