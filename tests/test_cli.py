"""Command line: exit codes, JSON payloads, and option plumbing."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from foamcalc import WedgeValue, foamdiag, planar
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


def test_verify_z4_pinned_line(capsys):
    code, out = run(capsys, "verify-z4")
    assert code == 0
    assert out.strip() == "64/64 cocycle instances OK, psi([1,3])=1"
    code, got = run_json(capsys, "verify-z4", "--output", "json")
    assert code == 0
    assert got["cocycle_ok"] == 64


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 13
    assert all(l.startswith("[PASS]") for l in lines)


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(DOC))
    code, got = run_json(capsys, "saf", "-", "s")
    assert code == 0
    assert got[0]["coeff"] == "2/1"


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


def test_missing_file(capsys):
    code, got = run_json(capsys, "saf", "/nonexistent/x.dsl", "s")
    assert code == 1
    assert got["error"] == "error"


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.dsl"
    bad.write_text("iet s { lengths = [1")
    code, got = run_json(capsys, "saf", str(bad), "s")
    assert code == 2
    assert got["error"] == "syntax"


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


def test_closed_stdout_exits_quietly(doc):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "foamcalc.cli", "closure", doc, "s"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_installed_script():
    exe = shutil.which("foamcalc")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "verify-z4"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "64/64 cocycle instances OK, psi([1,3])=1"
