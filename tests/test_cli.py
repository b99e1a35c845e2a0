"""Command line: exit codes, JSON payloads, and option plumbing."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from foamcalc import WedgeValue, acceptance, cli, errors, foamdiag, planar
from foamcalc.cli import main

DOC = """
basis {
  r2 = 1.4142135623730951 digits 16;
}
iet s {
  lengths = [1, 1*r2];
  perm = [2, 1];
}
iet flipped {
  lengths = [1, 1*r2];
  perm = [2, 1];
  flips = [1, 0];
}
foam u {
  start [];
  cup 0 1 + 1*r2 d;
  split 1 L 1;
  cross 1;
  merge 1 L;
  cap 0;
  end;
}
foam dotted {
  start [];
  cup 0 1 u;
  dot 0;
  cap 0;
  end;
}
foam labeled {
  start [];
  cup 0 1 u;
  label 0 (2; );
  label 0 (-1; );
  cap 0;
  end;
}
planarfoam tri {
  start [];
  cup 0 1/2;
  merge 0;
  cup 1 1/2*1*r2;
  merge 1;
  merge 0;
  split 0 1/2 + 1/2*1*r2;
  cap 0;
  end;
}
bracket br = 1*[1, 5/2];
"""


@pytest.fixture
def doc(tmp_path):
    path = tmp_path / "doc.dsl"
    path.write_text(DOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ------------------------------------------------------------- happy paths


def test_saf(capsys, doc):
    code, got = run_json(capsys, "saf", doc, "s")
    assert code == 0
    assert got == [{"left": "1", "right": "r2", "coeff": "2/1"}]


def test_saf_text_output(capsys, doc):
    code, out = run(capsys, "saf", doc, "s", "--output", "text")
    assert code == 0
    assert out.strip() == "2/1*(1^r2)"


def test_compose_takes_second_then_first(capsys, doc):
    code, got = run_json(capsys, "compose", doc, "s", "s")
    assert code == 0
    # swap composed with itself rotates by r2 - 1
    assert got["lengths"] == [{"1": "2/1"}, {"1": "-1/1", "r2": "1/1"}]
    assert got["perm"] == [2, 1]
    assert got["flips"] == [False, False]


def test_apply(capsys, doc):
    code, got = run_json(capsys, "apply", doc, "s", "1/2")
    assert code == 0
    assert got == {"1": "1/2", "r2": "1/1"}


def test_closure_and_nu(capsys, doc):
    code, closure = run_json(capsys, "closure", doc, "s")
    assert code == 0 and closure["events"]
    code, nu_val = run_json(capsys, "nu", doc, "u")
    assert code == 0
    assert nu_val == [{"left": "1", "right": "r2", "coeff": "1/1"}]


def test_classify_foam(capsys, doc):
    code, got = run_json(capsys, "classify", doc, "u")
    assert code == 0
    assert got["null_cobordant"] is False
    assert got["nu"]


def test_classify_planarfoam_and_bracket(capsys, doc):
    code, got = run_json(capsys, "classify", doc, "tri")
    assert code == 0
    assert got["verdict"] == "NotNull"
    code, got = run_json(capsys, "classify", doc, "br")
    assert code == 0
    assert got["verdict"] == "ZeroBracket"


def test_tripods_theta_simplify(capsys, doc):
    code, terms = run_json(capsys, "tripods", doc, "tri")
    assert code == 0
    assert any(t["coeff"] == 1 for t in terms)
    code, th = run_json(capsys, "theta", doc, "tri")
    assert code == 0
    assert th == [{"left": "1", "right": "r2", "coeff": "1/1"}]
    code, simp = run_json(capsys, "bracket-simplify", doc, "br")
    assert code == 0
    assert simp == []


def test_make_positive(capsys, doc):
    code, got = run_json(capsys, "make-positive", doc, "br")
    assert code == 0
    assert isinstance(got, list)


def test_flip_reduce_and_validate(capsys, doc, tmp_path):
    code, got = run_json(capsys, "flip-reduce", doc, "dotted")
    assert code == 0
    assert got["steps"] == len(got["trace"]) > 0
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(got["trace"]))
    code, chk = run_json(capsys, "validate-trace", doc, "dotted", str(trace_file))
    assert code == 0
    assert chk["ok"] is True
    # corrupt one location: the check still exits 0 but reports failure
    bad = got["trace"]
    bad[0] = dict(bad[0], location={"index": 99})
    trace_file.write_text(json.dumps(bad))
    code, chk = run_json(capsys, "validate-trace", doc, "dotted", str(trace_file))
    assert code == 0
    assert chk["ok"] is False and chk["failed_at"] == 0


@pytest.mark.parametrize("record", [
    "a",
    {"schema": ["x"], "location": {"index": 0}},
    {"location": {"index": 0}},
    {"schema": "u_ab_death", "location": [["index", 0]]},
    {"schema": "u_ab_death", "location": {"index": 0.9}},
    {"schema": "u_ab_death", "location": {"index": True}},
    {"schema": "u_ab_death", "location": {"index": "0"}},
    {"schema": "u_ab_death", "location": {}},
], ids=["string", "list-schema", "no-schema", "list-location", "float-index",
        "bool-index", "string-index", "no-index"])
def test_malformed_move_record_is_semantic_error(capsys, doc, tmp_path, record):
    """A record without a string schema, a location object and an integer
    index is refused before replay; a float index is not truncated."""
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps([record]))
    code, got = run_json(capsys, "validate-trace", doc, "u", str(trace_file))
    assert code == 1
    assert got["error"] == "semantic"
    assert got["message"].startswith("malformed move record")


def test_gamma(capsys, doc):
    code, got = run_json(capsys, "gamma", doc, "labeled")
    assert code == 0
    assert got["tensor"] == [{"1": "1/1"}]
    code, got = run_json(capsys, "gamma", doc, "labeled", "--free-rank", "1")
    assert code == 0
    code, out = run(capsys, "gamma", doc, "labeled", "--output", "text")
    assert code == 0 and "tensor" in out
    code, got = run_json(capsys, "gamma", doc, "labeled", "--torsion", "1")
    assert code == 1
    assert got["error"] == "semantic"


def test_zerofoam(capsys, doc):
    code, got = run_json(capsys, "zerofoam", doc, "+1 +1*r2 -1/2")
    assert code == 0
    assert got == {"class": {"1": "1/2", "r2": "1/1"}, "zero": False}
    code, got = run_json(capsys, "zerofoam", doc, "+1*r2 -1*r2")
    assert code == 0
    assert got == {"class": {}, "zero": True}


def test_zerofoam_without_points(capsys, doc):
    for points in ("", " , "):
        code, got = run_json(capsys, "zerofoam", doc, points)
        assert code == 1
        assert got["error"] == "semantic"
        assert "POINTS is empty" in got["message"]


@pytest.mark.parametrize(
    "argv",
    [("apply", "s", "1+"), ("apply", "s", "1/0"), ("zerofoam", "+")],
)
def test_malformed_point_is_a_domain_error(capsys, doc, argv):
    """POINT and POINTS are arguments, not the document: a malformed one
    is the `syntax` error with exit 1, not the parse exit 2."""
    cmd, *rest = argv
    code, got = run_json(capsys, cmd, doc, *rest)
    assert code == 1
    assert got["error"] == "syntax"


def test_verify_z4_pinned_line(capsys):
    code, out = run(capsys, "verify-z4")
    assert code == 0
    assert out.strip() == "64/64 cocycle instances OK, psi([1,3])=1"
    code, got = run_json(capsys, "verify-z4", "--output", "json")
    assert code == 0
    assert got["cocycle_ok"] == 64


def test_a_failed_cocycle_count_fails_verify_z4_and_criterion_6(capsys, monkeypatch):
    """63 of 64 cocycle instances is a failure, in the CLI and in the
    battery, although the count is not zero."""
    report = dict(planar.verify_z4(), cocycle_ok=63)
    monkeypatch.setattr(cli, "verify_z4", lambda: report)
    monkeypatch.setattr(acceptance, "verify_z4", lambda: report)
    code, out = run(capsys, "verify-z4")
    assert code == 1 and out.startswith("FAILED: ")
    result = acceptance.run_criterion(6)
    assert not result.ok
    assert result.detail.startswith("63/64 cocycle instances")


def test_a_failed_bilinearity_check_is_named_by_criterion_6(monkeypatch):
    report = dict(planar.verify_z4(), bilin_ok=False)
    monkeypatch.setattr(acceptance, "verify_z4", lambda: report)
    result = acceptance.run_criterion(6)
    assert not result.ok
    assert result.line() == (
        "[FAIL] criterion 06 z4-cocycle: 64/64 cocycle instances, pairs ok, "
        "psi([1,3])=1, bilinearity bad"
    )


# The whole default-seed selftest text.  Every count in it comes from the
# seeded draws, so a change to what the generators draw shows here.
SELFTEST_LINES = (
    "[PASS] criterion 01 saf-homomorphism: "
    "SAF(S.T) = SAF(S)+SAF(T) on 200 random pairs, 0 failures",
    "[PASS] criterion 02 commutator-saf-zero: "
    "SAF of 100 random commutators, 0 nonzero",
    "[PASS] criterion 03 nu-move-invariance: "
    "nu unchanged under 3412 move instances on 100 diagrams",
    "[PASS] criterion 04 closure-half-saf: "
    "nu(closure) = SAF/2 on 200 random IETs, 0 failures",
    "[PASS] criterion 05 crossing-splitoff: "
    "50/50 crossing split-offs conserved the class",
    "[PASS] criterion 06 z4-cocycle: "
    "64/64 cocycle instances, pairs ok, psi([1,3])=1",
    "[PASS] criterion 07 theta-relations: "
    "theta kills both relation families 200 times, 0 failures",
    "[PASS] criterion 08 euclid-commensurable: "
    "100 commensurable tripods collapse (0 failures); T(1,r2) is NotNull",
    "[PASS] criterion 09 delta-coherence: "
    "delta matched wedge 100 times (0 failures); 50 signed foams rebuilt positive (0 failures)",
    "[PASS] criterion 10 flip-triviality: "
    "100 diagrams reduced to nothing, 536 certified steps",
    "[PASS] criterion 11 gamma-label-invariance: "
    "gamma invariant under 193 label moves, 0 failures",
    "[PASS] criterion 12 zerofoam-class: "
    "cancellation and additivity on 50 draws, 0 failures",
    "[PASS] criterion 13 dsl-roundtrip: "
    "500 documents round-tripped; 10000 byte strings parsed or rejected",
)


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert out == "".join(line + "\n" for line in SELFTEST_LINES)


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(DOC.encode())))
    code, got = run_json(capsys, "saf", "-", "s")
    assert code == 0
    assert got[0]["coeff"] == "2/1"


def test_document_and_trace_cannot_both_be_stdin(capsys, monkeypatch):
    """stdin is read once, so validate-trace refuses ``- ITEM -`` before it
    reads either: the document would take all of stdin and leave the trace
    empty."""
    import io

    stdin = io.TextIOWrapper(io.BytesIO(DOC.encode()))
    monkeypatch.setattr("sys.stdin", stdin)
    code, got = run_json(capsys, "validate-trace", "-", "dotted", "-")
    assert code == 2
    assert got == {
        "error": "semantic",
        "message": "FILE and TRACE are both - (stdin): stdin holds only one of them",
    }
    assert stdin.buffer.tell() == 0


BAD_UTF8 = b"iet s { lengths = [1]; perm = [1]; }\n# \xff\n"


def test_invalid_utf8_is_a_syntax_error(capsys, tmp_path, monkeypatch):
    """A file and stdin holding the same invalid bytes fail the same way,
    even inside a comment."""
    import io

    bad = tmp_path / "bad.fc"
    bad.write_bytes(BAD_UTF8)
    expected = {"error": "syntax", "message": "invalid UTF-8 (line 2, column 3)"}
    assert run_json(capsys, "saf", str(bad), "s") == (2, expected)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(BAD_UTF8)))
    assert run_json(capsys, "saf", "-", "s") == (2, expected)


def test_byte_order_mark_is_skipped(capsys, tmp_path):
    path = tmp_path / "bom.fc"
    path.write_bytes(b"\xef\xbb\xbf" + DOC.encode())
    code, got = run_json(capsys, "saf", str(path), "s")
    assert code == 0
    assert got[0]["coeff"] == "2/1"


def test_invalid_utf8_trace_is_not_json(capsys, doc, tmp_path):
    trace_file = tmp_path / "trace.json"
    trace_file.write_bytes(b'[{"schema": "\xff"}]')
    code, got = run_json(capsys, "validate-trace", doc, "dotted", str(trace_file))
    assert code == 2
    assert got["error"] == "semantic"
    assert got["message"].startswith("trace is not JSON")


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 1000 + "]" * 1000],
                         ids=["unclosed-100000", "closed-1000"])
def test_deeply_nested_trace_is_not_json(capsys, doc, tmp_path, text):
    """JSON nested past the interpreter's recursion limit is reported like
    any other text that is not JSON, not with a traceback."""
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(text)
    code, got = run_json(capsys, "validate-trace", doc, "dotted", str(trace_file))
    assert code == 2
    assert got["error"] == "semantic"
    assert got["message"] == ("trace is not JSON: maximum recursion depth exceeded "
                              "while decoding a JSON array from a unicode string")


def test_trace_weight_with_an_exponent_is_a_bad_rational(capsys, doc, tmp_path):
    trace_file = tmp_path / "trace.json"
    move = {"schema": "saddle", "location": {"index": 0, "weight": {"1": "1e-3000000"}}}
    trace_file.write_text(json.dumps([move]))
    code, got = run_json(capsys, "validate-trace", doc, "dotted", str(trace_file))
    assert code == 1
    assert got == {"error": "semantic",
                   "message": "bad rational '1e-3000000' for generator '1'"}


# ------------------------------------------------------------- golden output

# Exact exit code and stdout of every subcommand but selftest, in both output
# forms, plus three error payloads.  DOC, BAD and TRACE stand for the document
# fixture, a document whose foam has an out-of-range dot, and a file holding
# the trace that `flip-reduce DOC dotted` prints.  The expected bytes in
# golden_cli.json were recorded once and are never rewritten by the test.

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())

BAD_DOC = """
foam bad {
  start [];
  cup 0 1 u;
  dot 5;
  cap 0;
  end;
}
"""

_GOLDEN_CALLS = [
    ("saf", "DOC", "s"),
    ("compose", "DOC", "s", "s"),
    ("apply", "DOC", "s", "1/2"),
    ("closure", "DOC", "s"),
    ("nu", "DOC", "u"),
    ("classify", "DOC", "u"),
    ("classify", "DOC", "tri"),
    ("classify", "DOC", "br"),
    ("tripods", "DOC", "tri"),
    ("bracket-simplify", "DOC", "br"),
    ("theta", "DOC", "br"),
    ("theta", "DOC", "tri"),
    ("make-positive", "DOC", "br"),
    ("make-positive", "DOC", "tri"),
    ("flip-reduce", "DOC", "dotted"),
    ("validate-trace", "DOC", "dotted", "TRACE"),
    ("gamma", "DOC", "labeled"),
    ("zerofoam", "DOC", "+1 +1*r2 -1/2"),
    ("verify-z4",),
]

GOLDEN_ARGV = [
    call + ("--output", form) for call in _GOLDEN_CALLS for form in ("json", "text")
] + [
    ("saf", "DOC", "nope"),
    ("saf", "DOC", "u"),
    ("nu", "BAD", "bad"),
]


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=" ".join)
def test_golden_output(capsys, doc, tmp_path, argv):
    bad = tmp_path / "bad.dsl"
    bad.write_text(BAD_DOC)
    trace = tmp_path / "trace.json"
    flip = json.loads(GOLDEN["flip-reduce DOC dotted --output json"]["stdout"])
    trace.write_text(json.dumps(flip["trace"]))
    paths = {"DOC": doc, "BAD": str(bad), "TRACE": str(trace)}
    code, out = run(capsys, *(paths.get(a, a) for a in argv))
    want = GOLDEN[" ".join(argv)]
    assert (code, out) == (want["exit"], want["stdout"])


def test_golden_covers_every_subcommand():
    from foamcalc.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in GOLDEN_ARGV} == set(sub.choices) - {"selftest"}
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in GOLDEN_ARGV)


# ------------------------------------------------------------- failure paths


def test_the_cli_doc_lists_the_error_codes():
    """docs/cli.md lists the code of FoamError and of each subclass, and no
    other."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "cli.md").read_text()
    listed = doc[doc.index("The codes are stable strings:"):].split(".")[0]
    classes, codes = [errors.FoamError], set()
    while classes:
        cls = classes.pop()
        codes.add(cls.code)
        classes += cls.__subclasses__()
    assert set(re.findall(r"`([\w-]+)`", listed)) == codes


@pytest.mark.parametrize("argv", [
    ("saf", "/nonexistent/x.dsl", "s"),
    ("validate-trace", "DOC", "dotted", "/nonexistent/trace.json"),
], ids=["file", "trace"])
def test_missing_file(capsys, doc, argv):
    argv = [doc if a == "DOC" else a for a in argv]
    code, got = run_json(capsys, *argv)
    assert code == 1
    assert got["error"] == "error"
    assert got["message"].startswith("cannot read /nonexistent/")


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.dsl"
    bad.write_text("iet s { lengths = [1")
    code, got = run_json(capsys, "saf", str(bad), "s")
    assert code == 2
    assert got["error"] == "syntax"


@pytest.mark.parametrize("basis, error, message", [
    ("r2 = 1.4142 digits 99999999999999999999999;", "semantic",
     "digit count must be at most 4300 (line 2)"),
    ("r2 = 1." + "4" * 4400 + " digits 5;", "syntax",
     "number literal too large near '1.4444444444444444444444...' (line 2, column 7)"),
])
def test_oversized_basis_is_a_parse_error(capsys, tmp_path, basis, error, message):
    bad = tmp_path / "bad.dsl"
    bad.write_text(f"basis {{\n {basis} }}")
    code = main(["saf", str(bad), "s"])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out) == {"error": error, "message": message}
    assert err == ""


def test_unknown_item(capsys, doc):
    code, got = run_json(capsys, "saf", doc, "nope")
    assert code == 1
    assert got["error"] == "semantic"


def test_wrong_kind(capsys, doc):
    code, got = run_json(capsys, "saf", doc, "u")
    assert code == 1
    assert got["error"] == "semantic"


def test_flipped_iet_refused(capsys, doc):
    code, got = run_json(capsys, "saf", doc, "flipped")
    assert code == 1
    assert got["error"] == "flipped-iet"


def test_precision_flag_and_env(capsys, doc, monkeypatch):
    code, got = run_json(capsys, "apply", doc, "s", "1*r2 - 7/5", "--precision", "1")
    assert code == 1
    assert got["error"] == "precision-exhausted"
    # the flag wins over the environment
    monkeypatch.setenv("FOAMCALC_PRECISION", "1")
    code, _ = run_json(capsys, "apply", doc, "s", "1*r2 - 7/5", "--precision", "16")
    assert code == 0
    # the environment alone also applies
    code, got = run_json(capsys, "apply", doc, "s", "1*r2 - 7/5")
    assert code == 1
    assert got["error"] == "precision-exhausted"


def test_parser_is_built_once_and_defaults_do_not_leak(capsys, doc, monkeypatch):
    """main() builds the argument parser once per process; each call still
    starts from the defaults of its subcommand."""
    import argparse

    from foamcalc.cli import build_parser

    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "foamcalc":
            builds.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    try:
        code, got = run_json(capsys, "apply", doc, "s", "1*r2 - 7/5", "--precision", "1")
        assert (code, got["error"]) == (1, "precision-exhausted")
        monkeypatch.setenv("FOAMCALC_PRECISION", "1")
        assert run(capsys, "saf", doc, "s", "--output", "text") == (0, "2/1*(1^r2)\n")
        monkeypatch.delenv("FOAMCALC_PRECISION")
        # JSON output and the declared precision again
        code, got = run_json(capsys, "apply", doc, "s", "1*r2 - 7/5")
        assert (code, got) == (0, {"1": "-7/5", "r2": "2/1"})
    finally:
        build_parser.cache_clear()
    assert len(builds) == 1


def test_invalid_precision_env(capsys, doc, monkeypatch):
    monkeypatch.setenv("FOAMCALC_PRECISION", "zero")
    code, got = run_json(capsys, "saf", doc, "s")
    assert code == 2
    assert got["error"] == "semantic"


def test_bad_flag_exits_2(doc):
    for argv in (
        ["saf", doc, "s", "--precision", "0"],
        ["gamma", doc, "labeled", "--torsion", "abc"],
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2


def test_euclid_bound_flag(capsys, doc):
    code, got = run_json(capsys, "classify", doc, "br", "--euclid-bound", "1")
    assert code == 0
    assert got["verdict"] == "Unknown"


def test_broken_closure_postcondition_is_internal(capsys, doc, monkeypatch):
    assert run(capsys, "closure", doc, "s")[0] == 0
    monkeypatch.setattr(foamdiag, "saf", lambda t: WedgeValue.zero(t.basis))
    code, got = run_json(capsys, "closure", doc, "s")
    assert code == 1
    assert got == {"error": "internal",
                   "message": "closure postcondition nu == SAF/2 violated"}


def test_broken_make_positive_postcondition_is_internal(capsys, tmp_path, monkeypatch):
    path = tmp_path / "signed.dsl"
    path.write_text("planarfoam f {\n  start [];\n  cup 0 1;\n  split 0 -1;\n"
                    "  merge 0;\n  cap 0;\n  end;\n}\n")
    assert run(capsys, "make-positive", str(path), "f")[0] == 0
    monkeypatch.setattr(planar, "theta", lambda s: object())  # never equal
    code, got = run_json(capsys, "make-positive", str(path), "f")
    assert code == 1
    assert got == {"error": "internal", "message": "make-positive failed to preserve theta"}


# ------------------------------------------------------------- entry point


def _python_m(module, *argv, stdout=subprocess.PIPE):
    """``python -m module argv`` on the checkout's ``src``, without the
    installed script."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", module, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


def _with_closed_stdout(module, *argv):
    """_python_m with the reader of its stdout gone before it writes."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _python_m(module, *argv, stdout=write_end)
    finally:
        os.close(write_end)


def test_closed_stdout_exits_quietly(doc):
    proc = _with_closed_stdout("foamcalc.cli", "closure", doc, "s")
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_python_dash_m_runs_the_command_line():
    """``python -m foamcalc`` works from a checkout, without the installed script."""
    proc = _python_m("foamcalc", "verify-z4")
    assert proc.returncode == 0
    assert proc.stdout == cli.Z4_SUMMARY + "\n"
    assert proc.stderr == ""


def test_python_dash_m_exits_quietly_on_a_closed_stdout():
    proc = _with_closed_stdout("foamcalc", "verify-z4")
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_installed_script():
    exe = shutil.which("foamcalc")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "verify-z4"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "64/64 cocycle instances OK, psi([1,3])=1"
