"""Command-line front end.

Every computing subcommand reads a document (a file path or `-` for stdin),
resolves a named item, and prints the result as JSON (default) or text via
`--output`.  `verify-z4` and `selftest` are report commands and default to
text.  Exit codes: 0 success, 1 domain errors (an error object is printed),
2 parse errors.  `--precision` (or the env var FOAMCALC_PRECISION) caps the
declared enclosure digits; `--euclid-bound` caps the subtractive reduction.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

from . import acceptance
from .decorated import (
    AbelianGroupSpec,
    flip_reduce,
    trace_from_json,
    trace_to_json,
    validate_trace,
)
from .decorated import gamma as gamma_fn
from .dsl import (
    Document,
    bracket_to_text,
    parse_bytes,
    parse_weight,
    print_document,
    wedge_to_text,
    weight_to_text,
)
from .errors import DslSemanticError, FoamError
from .exterior import WedgeValue
from .foamdiag import FoamDiagram, iet_closure, nu, zerofoam_class
from .iet import Iet, iet_apply, iet_compose, saf
from .planar import (
    DEFAULT_EUCLID_BOUND,
    BracketSum,
    PlanarFoam,
    bracket_simplify,
    bracket_sum_make_positive,
    foam_make_positive,
    planar_classify,
    classify_bracket,
    theta,
    tripod_decompose,
    verify_z4,
    z4_ok,
)
from .weights import Weight

Z4_SUMMARY = "64/64 cocycle instances OK, psi([1,3])=1"


class _ParseFailure(Exception):
    """A document or trace that failed to parse: exit 2."""

    def __init__(self, err: FoamError):
        super().__init__(str(err))
        self.err = err


# --- output helpers -----------------------------------------------------------

# The canonical text of each kind of plain value, and the document kind of
# each item.
_TEXTS = {Weight: weight_to_text, WedgeValue: wedge_to_text, BracketSum: bracket_to_text}
_ITEM_KINDS = {Iet: "iet", FoamDiagram: "foam", PlanarFoam: "planarfoam"}


def _result(doc: Document, value) -> tuple:
    """The JSON object and text of a single value.  An item prints as a
    one-item document named ``result`` over the document's basis."""
    kind = _ITEM_KINDS.get(type(value))
    if kind is None:
        text = _TEXTS[type(value)](value)
    else:
        text = print_document(Document(doc.basis, ((kind, "result", value),)))
    return value.to_json(), text


# --- document plumbing --------------------------------------------------------


def _read_source(path: str) -> bytes:
    """The bytes of the file, or of stdin for ``-``."""
    try:
        if path == "-":
            return sys.stdin.buffer.read()
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FoamError(f"cannot read {path}: {exc}") from None


def _load_document(args) -> Document:
    data = _read_source(args.file)
    try:
        return parse_bytes(data, precision_cap=args.precision)
    except FoamError as exc:
        raise _ParseFailure(exc) from None


def _resolve(doc: Document, name: str, kinds: tuple[str, ...]):
    kind, value = doc.get(name)
    if kind not in kinds:
        raise DslSemanticError(
            f"item {name!r} has kind {kind}; this subcommand needs {' or '.join(kinds)}"
        )
    return value


# --- subcommands ----------------------------------------------------------------


def _classify(args, doc, item) -> tuple:
    if isinstance(item, FoamDiagram):
        v = nu(item)
        obj = {"nu": v.to_json(), "null_cobordant": v.is_zero()}
        text = (
            f"nu = {wedge_to_text(v)}; "
            f"null-cobordant: {'yes' if v.is_zero() else 'no'}"
        )
        return obj, text
    if isinstance(item, PlanarFoam):
        verdict = planar_classify(item, euclid_bound=args.euclid_bound)
    else:
        verdict = classify_bracket(item, euclid_bound=args.euclid_bound)
    text = (
        f"verdict: {verdict.verdict}; theta = {wedge_to_text(verdict.theta)}; "
        f"residual = {bracket_to_text(verdict.residual)}"
    )
    return verdict.to_json(), text


def _flip_reduce(args, doc, d) -> tuple:
    trace = flip_reduce(d)
    lines = [f"{k}: {m.schema} at {m.index}" for k, m in enumerate(trace)]
    text = "\n".join([f"{len(trace)} steps"] + lines) if trace else "0 steps"
    return {"trace": trace_to_json(trace), "steps": len(trace)}, text


def _validate_trace(args, doc, d, trace_path) -> tuple:
    raw = _read_source(trace_path)
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise _ParseFailure(DslSemanticError(f"trace is not JSON: {exc}")) from None
    chk = validate_trace(d, trace_from_json(doc.basis, data))
    if chk.ok:
        text = f"ok ({chk.steps} steps)"
    else:
        text = f"failed at step {chk.failed_at}: {chk.reason}"
    return chk.to_json(), text


def _gamma(args, doc, d) -> tuple:
    free_rank = args.free_rank
    if free_rank is None:
        free_rank = max(
            (len(e.g.free) for e in d.events if hasattr(e, "g")), default=0
        )
    tensor, base = gamma_fn(d, AbelianGroupSpec(free_rank, args.torsion))
    obj = {"tensor": tensor.to_json(), "nu": base.to_json()}
    text = (
        "tensor: ["
        + ", ".join(weight_to_text(w) for w in tensor.components)
        + f"]; nu = {wedge_to_text(base)}"
    )
    return obj, text


def _zerofoam(args, doc, text) -> tuple:
    points = []
    for token in text.replace(",", " ").split():
        if token[0] not in "+-":
            raise DslSemanticError(
                f"point {token!r} must start with an explicit + or - sign"
            )
        sign = 1 if token[0] == "+" else -1
        points.append((sign, parse_weight(token[1:], doc.basis)))
    if not points:
        raise DslSemanticError("POINTS is empty: pass at least one signed weight, e.g. '+1/2'")
    w = zerofoam_class(points)
    obj = {"class": w.to_json(), "zero": w.is_zero()}
    return obj, f"class = {weight_to_text(w)}; zero: {'yes' if w.is_zero() else 'no'}"


def _verify_z4(args, doc) -> tuple:
    res = verify_z4()
    return res, Z4_SUMMARY if z4_ok(res) else f"FAILED: {res}"


def _selftest(args, doc) -> tuple:
    results = acceptance.run_all()
    return [r.to_json() for r in results], "\n".join(r.line() for r in results)


@dataclass(frozen=True)
class _Arg:
    """A positional argument; ``kinds`` names the item kinds it resolves to,
    and is empty for an argument passed through as text."""

    name: str
    kinds: tuple[str, ...] = ()
    help: str | None = None


@dataclass(frozen=True)
class _Command:
    """A subcommand.  ``run(args, doc, *values)`` gets the parsed document
    and the value of each positional after ``file``, and returns the JSON
    object and the text form of the result.  A report command takes no
    document, defaults to text, and exits 1 unless ``ok`` holds of its
    result."""

    name: str
    help: str
    args: tuple[_Arg, ...]
    run: Callable[..., tuple]
    ok: Callable[[object], bool] | None = None
    options: tuple = ()  # extra (flag, add_argument keywords) pairs

    @property
    def report(self) -> bool:
        return not self.args


def _item(*kinds: str) -> tuple[_Arg, ...]:
    """``file item``, the item being of one of the given kinds."""
    return (_Arg("file"), _Arg("item", kinds))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(n) for n in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


COMMANDS = (
    _Command("saf", "SAF invariant of a named IET", _item("iet"),
             lambda args, doc, t: _result(doc, saf(t))),
    _Command("compose", "compose two named IETs (second . first)",
             (_Arg("file"), _Arg("second", ("iet",)), _Arg("first", ("iet",))),
             lambda args, doc, s, t: _result(doc, iet_compose(s, t))),
    _Command("apply", "evaluate a named IET at a weight expression",
             _item("iet") + (_Arg("point"),),
             lambda args, doc, t, point: _result(doc, iet_apply(t, parse_weight(point, doc.basis)))),
    _Command("closure", "foam diagram closing a named IET", _item("iet"),
             lambda args, doc, t: _result(doc, iet_closure(t))),
    _Command("nu", "nu invariant of a named closed foam", _item("foam"),
             lambda args, doc, d: _result(doc, nu(d))),
    _Command("classify", "cobordism class of a foam, planar foam or bracket",
             _item("foam", "planarfoam", "bracket"), _classify),
    _Command("tripods", "tripod decomposition of a planar foam", _item("planarfoam"),
             lambda args, doc, f: _result(doc, tripod_decompose(f))),
    _Command("bracket-simplify", "normal form of a bracket sum", _item("bracket"),
             lambda args, doc, s: _result(doc, bracket_simplify(s, args.euclid_bound))),
    _Command("theta", "wedge image of a bracket sum or planar foam",
             _item("bracket", "planarfoam"),
             lambda args, doc, x: _result(doc, theta(x if isinstance(x, BracketSum)
                                                     else tripod_decompose(x)))),
    _Command("make-positive", "positive form of a bracket or planar foam",
             _item("bracket", "planarfoam"),
             lambda args, doc, x: _result(doc, bracket_sum_make_positive(x)
                                          if isinstance(x, BracketSum)
                                          else foam_make_positive(x))),
    _Command("flip-reduce", "elimination trace for a dotted foam", _item("foam"),
             _flip_reduce),
    _Command("validate-trace", "check a move trace ends empty",
             _item("foam") + (_Arg("trace", help="JSON trace file, or - for stdin"),),
             _validate_trace),
    _Command("gamma", "label invariant of a decorated foam", _item("foam"), _gamma,
             options=(("--free-rank", {"type": int, "default": None}),
                      ("--torsion", {"type": _int_list, "default": (),
                                     "help": "comma-separated torsion orders"}))),
    _Command("zerofoam", "class of a signed weighted point collection",
             (_Arg("file", help="document supplying the basis"),
              _Arg("points", help="signed weights, e.g. '+1/2 -r2 +3'")),
             _zerofoam),
    _Command("verify-z4", "exhaustive finite-model check", (), _verify_z4, ok=z4_ok),
    _Command("selftest", "run the acceptance battery", (), _selftest,
             ok=lambda results: all(r["ok"] for r in results)),
)


# --- argument parsing ---------------------------------------------------------


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each ``parse_args`` call
    returns a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="foamcalc",
        description="Exact invariants of weighted foam diagrams and"
        " interval exchanges.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(cmd=cmd)
        p.add_argument(
            "--output",
            choices=("json", "text"),
            default="text" if cmd.report else "json",
            help="result form (default: %(default)s)",
        )
        p.add_argument(
            "--precision",
            type=_positive_int,
            default=None,
            help="cap declared enclosure digits (env: FOAMCALC_PRECISION)",
        )
        p.add_argument(
            "--euclid-bound",
            type=_positive_int,
            default=DEFAULT_EUCLID_BOUND,
            help="step bound for subtractive reduction",
        )
        for a in cmd.args:
            p.add_argument(a.name, help=a.help)
        for flag, keywords in cmd.options:
            p.add_argument(flag, **keywords)
    return top


def _error(err: FoamError) -> str:
    return json.dumps({"error": err.code, "message": str(err)})


def _run(cmd: _Command, args) -> tuple[int, str]:
    """Exit code and stdout text of one subcommand call."""
    if args.precision is None:
        env = os.environ.get("FOAMCALC_PRECISION")
        if env:
            try:
                args.precision = _positive_int(env)
            except (ValueError, argparse.ArgumentTypeError):
                return 2, _error(
                    DslSemanticError("FOAMCALC_PRECISION must be a positive integer")
                )
    if cmd.name == "validate-trace" and args.file == args.trace == "-":
        return 2, _error(DslSemanticError(
            "FILE and TRACE are both - (stdin): stdin holds only one of them"
        ))
    try:
        doc = _load_document(args) if cmd.args else None
        values = []
        for a in cmd.args[1:]:
            value = getattr(args, a.name)
            values.append(_resolve(doc, value, a.kinds) if a.kinds else value)
        obj, text = cmd.run(args, doc, *values)
    except _ParseFailure as exc:
        return 2, _error(exc.err)
    except FoamError as exc:
        return 1, _error(exc)
    out = json.dumps(obj, indent=2, sort_keys=True) if args.output == "json" else text
    return (0 if cmd.ok is None or cmd.ok(obj) else 1), out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code, out = _run(args.cmd, args)
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # interpreter exit cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
