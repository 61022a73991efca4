"""Problem-file parsing and the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from intclose import ProblemError, parse_problem
from intclose.cli import main

QUADRATIC = """\
indvars: x
depvar: y
weights: [[3,2]]
relation: y^2 - 3/2*x^3 + 24/7*x^2 - 96/49*x
"""

TRIDENT_Q7 = """\
# a space curve with one added fraction of weight 11
indvars: x
depvar: y
weights: [[7,3]]
relation: y^3 + x^7 + 8*y*x
characteristic: 7
"""


def test_parse_problem_fields():
    pf = parse_problem(QUADRATIC)
    assert pf.indvars == ("x",)
    assert pf.depvar == "y"
    assert pf.weights == ((3, 2),)
    assert pf.characteristic is None
    ring = pf.ring()
    f = pf.relation(ring)
    assert f.degree_in(0) == 2


def test_parse_problem_with_characteristic():
    pf = parse_problem(TRIDENT_Q7)
    assert pf.characteristic == 7
    assert pf.ring().domain.char == 7


@pytest.mark.parametrize("mutation,message", [
    (lambda t: t.replace("weights: [[3,2]]", "weights: [[3,2,1]]"), "weight"),
    (lambda t: t.replace("y^2", "3*y^2"), "monic"),
    (lambda t: t.replace("depvar: y", "depvar: x"), "repeated"),
    (lambda t: t.replace("relation: y", "relation: z + y"), "parse"),
    (lambda t: t.replace("indvars: x\n", ""), "missing"),
    (lambda t: t + "mystery: 3\n", "unknown"),
    (lambda t: t.replace("indvars: x", "indvars: x, x").replace("[[3,2]]", "[[3,2,2]]"),
     "independent variable 'x' repeated"),
    (lambda t: t.replace("indvars: x", "indvars: 2"), "bad independent variable name '2'"),
    (lambda t: t.replace("indvars: x", "indvars: x y"),
     "bad independent variable name 'x y'"),
    (lambda t: t.replace("[[3,2]]", "[[3.5,2]]"), "entry 3.5 is not an integer"),
    (lambda t: t.replace("[[3,2]]", "[[3,True]]"), "entry True is not an integer"),
])
def test_parse_problem_rejections(mutation, message):
    with pytest.raises(ProblemError) as err:
        parse_problem(mutation(QUADRATIC))
    assert message in str(err.value)


def _write(tmp_path, text, name="prob.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_char0_text(tmp_path, capsys):
    path = _write(tmp_path, QUADRATIC)
    code = main([path, "--primes", "5,11,13"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta: x - 8/7" in out
    assert "relation: ybar^2 - 3/2*x" in out
    assert "psi(y): ybar*(x - 8/7)" in out
    assert ("certificate: gb=true containment=true numerators=true"
            " accepted=true") in out


def test_cli_char0_structured(tmp_path, capsys):
    path = _write(tmp_path, QUADRATIC)
    code = main([path, "--primes", "5,11,13", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert doc["delta"] == "x - 8/7"
    assert doc["relations"] == ["ybar^2 - 3/2*x"]
    assert doc["psi_factored"] == "ybar*(x - 8/7)"
    assert doc["primes"] == [5, 11, 13]
    assert doc["certificate"]["per_prime"] == [[5, True], [11, True], [13, True]]


def test_cli_charq_run(tmp_path, capsys):
    path = _write(tmp_path, TRIDENT_Q7)
    code = main([path])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode: charq" in out
    assert "q: 7" in out
    assert "\nDelta: x\n" in out
    assert "\ndelta: x\n" in out
    assert "induced_weights: 11,7,3" in out
    assert "relation: ybar2^2 + ybar2 + ybar1*x^5" in out
    assert "psi(y): ybar1" in out


def test_cli_exit_nonzero_when_not_accepted(tmp_path, capsys):
    path = _write(tmp_path, QUADRATIC)
    code = main([path, "--primes", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "status: not accepted" in captured.out
    assert "not accepted" in captured.err


def test_cli_audit_log(tmp_path, capsys):
    path = _write(tmp_path, QUADRATIC)
    log = tmp_path / "audit.log"
    code = main([path, "--primes", "5,11,13", "--log", str(log)])
    capsys.readouterr()
    assert code == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "conductor: x - 8/7"
    assert any(line.startswith("q=5 usable delta=x + 1") for line in lines)
    assert any("N=715" in line and "accepted=True" in line for line in lines)


def test_cli_unwritable_log_path(tmp_path, capsys):
    path = _write(tmp_path, QUADRATIC)
    log = tmp_path / "no" / "such" / "audit.log"
    code = main([path, "--primes", "5,11,13", "--log", str(log)])
    captured = capsys.readouterr()
    assert code == 2
    assert "status: accepted" in captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not log.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(after: str) -> str:
    """The first plain fenced block that follows the text ``after`` in README.md."""
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(after) + len(after):]
    start = rest.index("```\n") + len("```\n")
    return rest[start:rest.index("```", start)]


def test_readme_example_output(tmp_path, capsys):
    problem = _readme_block("A problem file describes the input ring:")
    expected = _readme_block("Example (the file above, primes pinned to `5,11,13`):")
    code = main([_write(tmp_path, problem), "--primes", "5,11,13"])
    assert code == 0
    assert capsys.readouterr().out == expected


def test_cli_output_stable_between_runs(tmp_path, capsys):
    path = _write(tmp_path, QUADRATIC)
    main([path, "--primes", "5,11,13"])
    first = capsys.readouterr().out
    main([path, "--primes", "5,11,13"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, QUADRATIC.replace("y^2", "3*y^2"))
    code = main([path])
    err = capsys.readouterr().err
    assert code == 2
    assert "monic" in err


@pytest.mark.parametrize("relation,message", [
    ("y^2 - x^", "expected a number (at position 8)"),
    ("y^2 - 3/0*x", "zero denominator (at position 9)"),
    ("y^2 + (x", "expected ')' (at position 8)"),
    ("y^2 - z", "unknown variable 'z' (at position 6)"),
    ("y^2 x", "trailing input (at position 4)"),
    ("y^2 - x*-1", "expected a factor (at position 8)"),
    ("y^2 - x^2^3", "trailing input (at position 9)"),
])
def test_cli_relation_parse_errors(tmp_path, capsys, relation, message):
    path = _write(tmp_path, QUADRATIC.replace("y^2 - 3/2*x^3 + 24/7*x^2 - 96/49*x", relation))
    assert main([path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: relation does not parse: {message}\n"


TWO_INDEP = """\
indvars: x, z
depvar: y
weights: [[2,1,3]]
relation: y^2 - x*z
"""


@pytest.mark.parametrize("mode_args", [[], ["--mode", "charq", "--prime", "7"]])
def test_cli_rejects_two_independent_variables(tmp_path, capsys, mode_args):
    # rejected up front, before any prime is tried, in both modes
    path = _write(tmp_path, TWO_INDEP)
    code = main([path, "--log", str(tmp_path / "audit.log")] + mode_args)
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err.splitlines() == [
        "error: closure iteration supports one independent variable, the problem has 2"]
    assert not (tmp_path / "audit.log").exists()


@pytest.mark.parametrize("bad_args,message", [
    (["--primes", "5,a"], "error: --primes expects comma-separated integers, got '5,a'"),
    (["--mode", "charq", "--prime", "4"], "error: --prime 4 is not prime"),
    # an option of the other mode is an error, not ignored
    (["--primes", "5,11,13", "--prime", "7"], "error: --prime applies to charq mode only"),
    (["--mode", "charq", "--prime", "7", "--primes", "5,11,13"],
     "error: --primes applies to char0 mode only"),
], ids=["primes", "prime", "prime-in-char0", "primes-in-charq"])
def test_cli_rejects_malformed_primes(tmp_path, capsys, bad_args, message):
    path = _write(tmp_path, QUADRATIC)
    code = main([path, "--log", str(tmp_path / "audit.log")] + bad_args)
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err.splitlines() == [message]
    assert not (tmp_path / "audit.log").exists()


# the least prime above 2^63: GF(q) holds residues as machine words below 2^63
BEYOND_WORD = 9223372036854775837
BEYOND_WORD_REASON = f"{BEYOND_WORD} is not below the word limit 2^63"


@pytest.mark.parametrize("text,bad_args,message", [
    (QUADRATIC + f"characteristic: {BEYOND_WORD}\n", [],
     f"error: characteristic {BEYOND_WORD_REASON}"),
    (QUADRATIC, ["--mode", "charq", "--prime", str(BEYOND_WORD)],
     f"error: --prime {BEYOND_WORD_REASON}"),
    (QUADRATIC, ["--primes", f"5,{BEYOND_WORD}"],
     f"error: prime schedule: {BEYOND_WORD_REASON}"),
    (QUADRATIC, ["--start-prime", str(BEYOND_WORD)],
     f"error: prime schedule: {BEYOND_WORD_REASON}"),
    (QUADRATIC, ["--primes", ""], "error: --primes expects comma-separated integers, got ''"),
    # an explicit --prime 0 is a value, not an absent flag
    (TRIDENT_Q7, ["--prime", "0"], "error: --prime 0 is not prime"),
    (QUADRATIC, ["--mode", "charq", "--prime", "0"], "error: --prime 0 is not prime"),
    # the characteristic selects charq mode, where a schedule does not apply
    (TRIDENT_Q7, ["--primes", "5,7"], "error: --primes applies to char0 mode only"),
], ids=["characteristic", "prime", "primes", "start-prime", "empty-primes",
        "prime-0-over-characteristic", "charq-prime-0", "primes-over-characteristic"])
def test_cli_rejects_unusable_primes_up_front(tmp_path, capsys, text, bad_args, message):
    # rejected before the conductor runs, with one error line and exit 2
    path = _write(tmp_path, text)
    code = main([path, "--log", str(tmp_path / "audit.log")] + bad_args)
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err.splitlines() == [message]
    assert not (tmp_path / "audit.log").exists()

@pytest.mark.parametrize("mode_args", [["--primes", "5,7"], ["--mode", "charq", "--prime", "7"]],
                         ids=["char0", "charq"])
def test_cli_rejects_fraction_name_collision_up_front(tmp_path, capsys, mode_args):
    # y^2 - ybar^3 has one fraction, named ybar: known before any prime runs
    text = "indvars: ybar\ndepvar: y\nweights: [[3,2]]\nrelation: y^2 - ybar^3\n"
    code = main([_write(tmp_path, text)] + mode_args)
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err == ("error: fraction variable names collide with ring"
                       " variables: ybar\n")


DENOMINATOR_MESSAGE = ("error: relation has no image in GF(7):"
                       " denominator of 24/7 vanishes mod 7")


@pytest.mark.parametrize("text,mode_args", [
    (QUADRATIC + "characteristic: 7\n", []),
    (QUADRATIC, ["--mode", "charq", "--prime", "7"]),
], ids=["characteristic", "prime"])
def test_cli_rejects_prime_dividing_a_denominator(tmp_path, capsys, text, mode_args):
    # 7 divides the denominators of 24/7 and 96/49: the relation has no image
    path = _write(tmp_path, text)
    code = main([path, "--log", str(tmp_path / "audit.log")] + mode_args)
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err.splitlines() == [DENOMINATOR_MESSAGE]
    assert not (tmp_path / "audit.log").exists()


def test_parse_problem_rejects_prime_dividing_a_denominator():
    with pytest.raises(ProblemError) as err:
        parse_problem(QUADRATIC + "characteristic: 7\n")
    assert str(err.value) == DENOMINATOR_MESSAGE.removeprefix("error: ")


def test_cli_missing_file(capsys):
    code = main(["/nonexistent/problem.txt"])
    assert code == 2


def test_cli_no_new_fractions_prints_none(tmp_path, capsys):
    # a degree-1 extension is its own closure: no relations at all
    text = """\
indvars: x
depvar: y
weights: [[3,1]]
relation: y - x^3
characteristic: 5
"""
    path = _write(tmp_path, text)
    code = main([path])
    out = capsys.readouterr().out
    assert code == 0
    assert "relations: (none)" in out


def test_cli_charq_prime_flag(tmp_path, capsys):
    path = _write(tmp_path, QUADRATIC)
    code = main([path, "--mode", "charq", "--prime", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "q: 5" in out
    assert "relation: ybar^2 + x" in out


def test_cli_charq_structured(tmp_path, capsys):
    path = _write(tmp_path, TRIDENT_Q7)
    code = main([path, "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "charq" and doc["q"] == 7
    assert doc["conductor"] == "x" and doc["delta"] == "x"
    assert doc["numerators"] == ["y^2", "y*x", "x"]
    assert doc["induced_weights"] == [[11, 7, 3]]
    assert doc["psi"] == "ybar1"


def test_parse_sextic_problem_file():
    text = """\
indvars: x
depvar: y
weights: [[11,6]]
relation: (y^2 - 3/4*y - 15/17*x)^3 - 9*y*x^4*(y^2 - 3/4*y - 15/17*x) - 27*x^11
"""
    pf = parse_problem(text)
    assert pf.weights == ((11, 6),)
    f = pf.relation()
    assert f.degree_in(0) == 6 and f.degree_in(1) == 11


# Byte-exact outputs of the README problem (QUADRATIC).  A structured
# document is compared as the emitter's exact text: json.dumps with indent 2
# and a trailing newline, keys in the order given here.
CHARQ5_TEXT = """\
mode: charq
q: 5
Delta: x + 1
delta: x + 1
numerators:
  y
  x + 1
induced_weights: 1,2
relation: ybar^2 + x
psi(y): ybar*(x + 1)
"""

CHARQ5_DOC = {
    "mode": "charq", "q": 5, "conductor": "x + 1", "delta": "x + 1",
    "numerators": ["y", "x + 1"], "induced_weights": [[1, 2]],
    "relations": ["ybar^2 + x"], "psi": "ybar*x + ybar",
    "psi_factored": "ybar*(x + 1)",
}

CHARQ5_LOG = "q=5 delta=x + 1\n"

CHAR0_DOC = {
    "mode": "char0", "accepted": True, "conductor": "x - 8/7",
    "primes": [5, 11, 13], "delta": "x - 8/7", "numerators": ["y", "x - 8/7"],
    "induced_weights": [[1, 2]], "relations": ["ybar^2 - 3/2*x"],
    "psi": "ybar*x - 8/7*ybar", "psi_factored": "ybar*(x - 8/7)",
    "certificate": {"gb": True, "containment": True, "numerators": True,
                    "per_prime": [[5, True], [11, True], [13, True]],
                    "accepted": True},
    "skipped": [],
}

CHAR0_LOG = """\
conductor: x - 8/7
q=5 usable delta=x + 1 J=1 lm_g=[y,x] K=1 lm_b=[ybar^2]
N=5 primes=5 lift=ok gb=True containment=False numerators=True accepted=False
q=11 usable delta=x + 2 J=1 lm_g=[y,x] K=1 lm_b=[ybar^2]
N=55 primes=5,11 lift=ok gb=True containment=False numerators=True accepted=False
q=13 usable delta=x - 3 J=1 lm_g=[y,x] K=1 lm_b=[ybar^2]
N=715 primes=5,11,13 lift=ok gb=True containment=True numerators=True accepted=True
"""


@pytest.mark.parametrize("args,out,log", [
    (["--mode", "charq", "--prime", "5"], CHARQ5_TEXT, CHARQ5_LOG),
    (["--mode", "charq", "--prime", "5", "--format", "structured"],
     json.dumps(CHARQ5_DOC, indent=2) + "\n", CHARQ5_LOG),
    (["--primes", "5,11,13", "--format", "structured"],
     json.dumps(CHAR0_DOC, indent=2) + "\n", CHAR0_LOG),
], ids=["charq-text", "charq-structured", "char0-structured"])
def test_readme_problem_golden_output(tmp_path, capsys, args, out, log):
    path = _write(tmp_path, QUADRATIC)
    log_path = tmp_path / "audit.log"
    code = main([path, "--log", str(log_path)] + args)
    cap = capsys.readouterr()
    assert code == 0
    assert cap.out == out
    assert cap.err == ""
    assert log_path.read_text() == log


# a fresh interpreter in which every import of numpy raises ImportError
WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None
from intclose.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("args,out,log", [
    (["--primes", "5,11,13", "--format", "structured"],
     json.dumps(CHAR0_DOC, indent=2) + "\n", CHAR0_LOG),
    (["--mode", "charq", "--prime", "5"], CHARQ5_TEXT, CHARQ5_LOG),
], ids=["char0", "charq"])
def test_runs_without_numpy(tmp_path, args, out, log):
    path = _write(tmp_path, QUADRATIC)
    log_path = tmp_path / "audit.log"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, path,
                           "--log", str(log_path)] + args,
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out
    assert proc.stderr == ""
    assert log_path.read_text() == log


# Byte-exact outputs of a curve with two fractions (J = 2) whose psi(y) has a
# constant part: y^3 = 1/3 x (x - 3/2)^3 shifted by y -> y - 1.
J2_CURVE = """\
indvars: x
depvar: y
weights: [[4,3]]
relation: (y - 1)^3 - 1/3*x*(x - 3/2)^3
"""

J2_CHAR0_TEXT = """\
mode: char0
status: accepted
Delta: x^2 - 3*x + 9/4
primes: 5,7,11
delta: x^2 - 3*x + 9/4
numerators:
  y^2 - 2*y + 1
  y*x - 3/2*y - x + 3/2
  x^2 - 3*x + 9/4
induced_weights: 2,1,3
relation: ybar2^2 - 1/3*ybar1*x
relation: ybar2*ybar1 - 1/3*x
relation: ybar1^2 - ybar2
psi(y): ybar1*(x - 3/2) + (1)
certificate: gb=true containment=true numerators=true accepted=true
"""

J2_CHAR0_DOC = {
    "mode": "char0", "accepted": True, "conductor": "x^2 - 3*x + 9/4",
    "primes": [5, 7, 11], "delta": "x^2 - 3*x + 9/4",
    "numerators": ["y^2 - 2*y + 1", "y*x - 3/2*y - x + 3/2", "x^2 - 3*x + 9/4"],
    "induced_weights": [[2, 1, 3]],
    "relations": ["ybar2^2 - 1/3*ybar1*x", "ybar2*ybar1 - 1/3*x", "ybar1^2 - ybar2"],
    "psi": "ybar1*x - 3/2*ybar1 + 1", "psi_factored": "ybar1*(x - 3/2) + (1)",
    "certificate": {"gb": True, "containment": True, "numerators": True,
                    "per_prime": [[5, True], [7, True], [11, True]],
                    "accepted": True},
    "skipped": [],
}

J2_CHAR0_LOG = """\
conductor: x^2 - 3*x + 9/4
q=5 usable delta=x^2 + 2*x + 1 J=2 lm_g=[y^2,y*x,x^2] K=3 lm_b=[ybar2^2,ybar2*ybar1,ybar1^2]
N=5 primes=5 lift=ok gb=True containment=False numerators=True accepted=False
q=7 usable delta=x^2 - 3*x - 3 J=2 lm_g=[y^2,y*x,x^2] K=3 lm_b=[ybar2^2,ybar2*ybar1,ybar1^2]
N=35 primes=5,7 lift=ok gb=True containment=True numerators=False accepted=False
q=11 usable delta=x^2 - 3*x + 5 J=2 lm_g=[y^2,y*x,x^2] K=3 lm_b=[ybar2^2,ybar2*ybar1,ybar1^2]
N=385 primes=5,7,11 lift=ok gb=True containment=True numerators=True accepted=True
"""

J2_CHARQ7_TEXT = """\
mode: charq
q: 7
Delta: x^2 - 3*x - 3
delta: x^2 - 3*x - 3
numerators:
  y^2 - 2*y + 1
  y*x + 2*y - x - 2
  x^2 - 3*x - 3
induced_weights: 2,1,3
relation: ybar2^2 + 2*ybar1*x
relation: ybar2*ybar1 + 2*x
relation: ybar1^2 - ybar2
psi(y): ybar1*(x + 2) + (1)
"""

J2_CHARQ7_DOC = {
    "mode": "charq", "q": 7, "conductor": "x^2 - 3*x - 3", "delta": "x^2 - 3*x - 3",
    "numerators": ["y^2 - 2*y + 1", "y*x + 2*y - x - 2", "x^2 - 3*x - 3"],
    "induced_weights": [[2, 1, 3]],
    "relations": ["ybar2^2 + 2*ybar1*x", "ybar2*ybar1 + 2*x", "ybar1^2 - ybar2"],
    "psi": "ybar1*x + 2*ybar1 + 1", "psi_factored": "ybar1*(x + 2) + (1)",
}

J2_CHARQ7_LOG = "q=7 delta=x^2 - 3*x - 3\n"


@pytest.mark.parametrize("args,out,log", [
    (["--primes", "5,7,11"], J2_CHAR0_TEXT, J2_CHAR0_LOG),
    (["--primes", "5,7,11", "--format", "structured"],
     json.dumps(J2_CHAR0_DOC, indent=2) + "\n", J2_CHAR0_LOG),
    (["--mode", "charq", "--prime", "7"], J2_CHARQ7_TEXT, J2_CHARQ7_LOG),
    (["--mode", "charq", "--prime", "7", "--format", "structured"],
     json.dumps(J2_CHARQ7_DOC, indent=2) + "\n", J2_CHARQ7_LOG),
], ids=["char0-text", "char0-structured", "charq-text", "charq-structured"])
def test_two_fraction_golden_output(tmp_path, capsys, args, out, log):
    path = _write(tmp_path, J2_CURVE)
    log_path = tmp_path / "audit.log"
    code = main([path, "--log", str(log_path)] + args)
    cap = capsys.readouterr()
    assert code == 0
    assert cap.out == out
    assert cap.err == ""
    assert log_path.read_text() == log


# A char0 run that does not certify: the schedule ends after the one stage
# that lifts (3 is skipped), and the certificate printed is that stage's,
# per_prime included.
CUSP = """\
indvars: x
depvar: y
weights: [[3,2]]
relation: y^2 - x^3
"""

CUSP_NOT_ACCEPTED_DOC = {
    "mode": "char0", "accepted": False, "conductor": "x^2", "primes": [2],
    "certificate": {"gb": True, "containment": False, "numerators": True,
                    "per_prime": [[2, True]], "accepted": False},
    "skipped": [{"q": 3, "reason": "conductor disagrees with the rational one"}],
}


def test_not_accepted_run_prints_per_prime_of_last_lifted_stage(tmp_path, capsys):
    code = main([_write(tmp_path, CUSP), "--primes", "2,3", "--format", "structured"])
    cap = capsys.readouterr()
    assert code == 1
    assert cap.out == json.dumps(CUSP_NOT_ACCEPTED_DOC, indent=2) + "\n"
    assert cap.err == "not accepted: prime budget exhausted before certification\n"


# Structured output and audit log, byte for byte, of the sextic and of the
# first ten problems of the seeded tall-char0 set (seed 7) with the default
# schedule: they pin N, the primes and the certificate bits of every stage.
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["sextic"] + [f"tall-7-{i:03d}" for i in range(10)])
def test_golden_structured_output_and_log(tmp_path, capsys, name):
    log_path = tmp_path / "audit.log"
    code = main([str(GOLDEN / f"{name}.txt"), "--format", "structured",
                 "--log", str(log_path)])
    cap = capsys.readouterr()
    assert code == 0
    assert cap.out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert cap.err == ""
    assert log_path.read_text(encoding="utf-8") == \
        (GOLDEN / f"{name}.log").read_text(encoding="utf-8")


# The sextic over GF(53) and GF(101), text and structured, with the audit log.
# These primes lie above every prime of the char-0 goldens, where the cost of
# the Frobenius images (``frobenius_images``) grows fastest.
@pytest.mark.parametrize("q", [53, 101])
@pytest.mark.parametrize("fmt,suffix", [("text", "out"), ("structured", "json")])
def test_golden_charq_output_and_log(tmp_path, capsys, q, fmt, suffix):
    log_path = tmp_path / "audit.log"
    code = main([str(GOLDEN / "sextic.txt"), "--mode", "charq", "--prime", str(q),
                 "--format", fmt, "--log", str(log_path)])
    cap = capsys.readouterr()
    assert code == 0
    assert cap.out == (GOLDEN / f"sextic-q{q}.{suffix}").read_text(encoding="utf-8")
    assert cap.err == ""
    assert log_path.read_text(encoding="utf-8") == \
        (GOLDEN / f"sextic-q{q}.log").read_text(encoding="utf-8")
