"""Problem-file parsing and the command line front end."""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import intclose
from intclose import GF, QQ, ProblemError, Ring, parse_problem
from intclose.cli import main
from conftest import conductor_of
from corpus import README_PROBLEM

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
    # the README's file is the corpus's README problem, so its example output
    # is pinned by the corpus digests as well as here
    problem = _readme_block("A problem file describes the input ring:")
    assert problem == README_PROBLEM
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
    (["--prime", "7"], "error: --prime applies to charq mode only"),
    (["--mode", "charq", "--prime", "7", "--primes", "5,11,13"],
     "error: --primes applies to char0 mode only"),
    (["--mode", "charq", "--prime", "5", "--start-prime", "101"],
     "error: --start-prime applies to char0 mode only"),
    (["--mode", "charq", "--prime", "5", "--max-primes", "3"],
     "error: --max-primes applies to char0 mode only"),
    # an explicit schedule has no start: --start-prime would be ignored
    (["--primes", "5,11,13", "--start-prime", "101"],
     "error: --start-prime does not apply with --primes"),
], ids=["primes", "prime", "prime-in-char0", "prime-in-default-mode", "primes-in-charq",
        "start-prime-in-charq", "max-primes-in-charq", "start-prime-with-primes"])
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

# the largest prime below 2^63, and a relation whose conductor x^20000 gives
# the first step 40000 columns
BELOW_WORD = 9223372036854775783
HIGH_POWER = "indvars: x\ndepvar: y\nweights: [[20001,2]]\nrelation: y^2 - x^20001\n"
COLUMNS_REASON = "40000 step columns d*deg D exceed the limit 8192"
SLOTS_REASON = f"{BELOW_WORD} image slots q*deg D exceed the limit 16777216"


@pytest.mark.parametrize("text,args,reason", [
    (HIGH_POWER, ["--mode", "charq", "--prime", "7"], COLUMNS_REASON),
    (HIGH_POWER, ["--primes", "5"], COLUMNS_REASON),
    (QUADRATIC, ["--mode", "charq", "--prime", str(BELOW_WORD)], SLOTS_REASON),
    (QUADRATIC, ["--primes", str(BELOW_WORD)], SLOTS_REASON),
], ids=["columns-charq", "columns-char0", "slots-charq", "slots-char0"])
def test_cli_refuses_a_walk_too_large_for_the_dense_layers(tmp_path, capsys, text, args, reason):
    # refused before the images or a kernel allocate: charq mode fails the run,
    # and char0 mode skips the prime, which leaves its schedule without a stage
    log = tmp_path / "audit.log"
    start = time.monotonic()
    code = main([_write(tmp_path, text), "--log", str(log)] + args)
    elapsed = time.monotonic() - start
    cap = capsys.readouterr()
    assert code == 1
    if "charq" in args:
        assert cap.out == ""
        assert cap.err.splitlines() == [f"computation failed: {reason}"]
        assert not log.exists()
    else:
        assert cap.err.splitlines() == ["not accepted: prime budget exhausted before certification"]
        assert log.read_text().splitlines()[1:] == [
            f"q={args[-1]} skipped: closure failed: {reason}",
            "prime budget exhausted without an accepted certificate"]
    assert elapsed < 1.0


def test_cli_default_schedule_past_the_word_limit_exhausts_its_budget(tmp_path, capsys):
    # the first default prime is below 2^63 and skipped by the slot limit; each
    # prime after it has no GF(q) and is skipped with that reason, so the run
    # spends its schedule and ends as not accepted instead of failing
    log = tmp_path / "audit.log"
    start = time.monotonic()
    code = main([_write(tmp_path, QUADRATIC), "--start-prime", str(BELOW_WORD),
                 "--max-primes", "1", "--log", str(log)])
    elapsed = time.monotonic() - start
    cap = capsys.readouterr()
    assert code == 1
    assert cap.err.splitlines() == ["not accepted: prime budget exhausted before certification"]
    lines = log.read_text().splitlines()
    assert lines[1] == f"q={BELOW_WORD} skipped: closure failed: {SLOTS_REASON}"
    assert lines[-1] == "prime budget exhausted without an accepted certificate"
    beyond = [re.fullmatch(r"q=(\d+) skipped: (\d+) is not below the word limit 2\^63", line)
              for line in lines[2:-1]]
    primes = [int(m[1]) for m in beyond if m and m[1] == m[2]]
    assert len(primes) == len(beyond) == 59     # the default budget of 60 primes
    assert primes[0] == BEYOND_WORD and primes == sorted(primes)
    assert elapsed < 1.0


# a closure of a relation of y-degree 2 has one fraction, named ybar, and of
# y-degree 3 two, ybar2 and ybar1: a clash with an independent or the dependent
# variable is known before any prime runs
COLLISIONS = [
    ("indvars: ybar\ndepvar: y\nweights: [[3,2]]\nrelation: y^2 - ybar^3\n", "ybar"),
    ("indvars: x\ndepvar: ybar\nweights: [[3,2]]\nrelation: ybar^2 - x^3\n", "ybar"),
    ("indvars: x\ndepvar: ybar1\nweights: [[4,3]]\nrelation: ybar1^3 - x^4\n", "ybar1"),
]


@pytest.mark.parametrize("text,clash,mode_args", [
    (text, clash, mode_args) for text, clash in COLLISIONS
    for mode_args in (["--primes", "5,7"], ["--mode", "charq", "--prime", "7"])
], ids=["char0", "charq", "depvar-char0", "depvar-charq", "depvar-J2-char0", "depvar-J2-charq"])
def test_cli_rejects_fraction_name_collision_up_front(tmp_path, capsys, text, clash, mode_args):
    code = main([_write(tmp_path, text)] + mode_args)
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err == ("error: fraction variable names collide with ring"
                       f" variables: {clash}\n")


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


def test_cli_rejects_an_undecodable_problem_file(tmp_path, capsys):
    # byte 0xff is not UTF-8: one error line, not a traceback
    path = tmp_path / "prob.txt"
    path.write_bytes(QUADRATIC.encode().replace(b"96/49", b"96/49\xff"))
    code = main([str(path)])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err.splitlines() == [
        "error: 'utf-8' codec can't decode byte 0xff in position 80: invalid start byte"]


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


@pytest.mark.parametrize("args,plain_args", [
    ([], ["--mode", "charq", "--prime", "5"]),
    (["--mode", "char0", "--primes", "5,11,13"], ["--primes", "5,11,13"]),
], ids=["default-mode", "char0"])
def test_cli_characteristic_line_prints_what_the_plain_file_prints(tmp_path, capsys,
                                                                  args, plain_args):
    # the README problem with characteristic: 5 runs charq at 5 by default and
    # char0 under --mode char0: over its own GF(5) ring and over QQ, both read
    # the relation the plain file holds
    code = main([_write(tmp_path, QUADRATIC + "characteristic: 5\n", "q5.txt")] + args)
    printed = capsys.readouterr()
    assert (code, printed.err) == (0, "")
    assert (main([_write(tmp_path, QUADRATIC)] + plain_args), capsys.readouterr()) == (
        code, printed)


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
    # the child imports the intclose this process imported, installed or not
    package_root = str(Path(intclose.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
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


# The octic over GF(29), GF(53) and GF(101), text and structured, with the
# audit log: d = 8 and Delta = x^24, so its Frobenius images hold 8
# y-coefficients of up to 24*q slots, the widest of any golden.  At 29 its
# walk takes two steps, the second by targets that are not diagonal, and
# stops at the kernel's dimension in both; at 53 and 101 it takes one.
@pytest.mark.parametrize("q", [29, 53, 101])
@pytest.mark.parametrize("fmt,suffix", [("text", "out"), ("structured", "json")])
def test_golden_octic_charq_output_and_log(tmp_path, capsys, q, fmt, suffix):
    log_path = tmp_path / "audit.log"
    code = main([str(GOLDEN / "octic.txt"), "--mode", "charq", "--prime", str(q),
                 "--format", fmt, "--log", str(log_path)])
    cap = capsys.readouterr()
    assert code == 0
    assert cap.out == (GOLDEN / f"octic-q{q}.{suffix}").read_text(encoding="utf-8")
    assert cap.err == ""
    assert log_path.read_text(encoding="utf-8") == \
        (GOLDEN / f"octic-q{q}.log").read_text(encoding="utf-8")


def test_runs_parse_once_per_ring_and_reduce_mod_q_without_polynomials(tmp_path, monkeypatch,
                                                                      capsys):
    # the README problem at 5, 11, 13 without --log: parse_problem's check
    # parses the relation, and the run over the same ring reuses that parse;
    # f's tail and Delta are reduced mod q straight into F_q[x] dicts, so no
    # Polynomial is built or sorted over GF(q) (no GF(q) conductor runs, as
    # none of the primes divides B), and the package has no mu_poly to call
    calls = []
    for name in ("parse", "poly", "_sorted"):
        def counted(self, arg, _name=name, _real=getattr(Ring, name)):
            calls.append((_name, self.domain))
            return _real(self, arg)
        monkeypatch.setattr(Ring, name, counted)
    path = _write(tmp_path, QUADRATIC)
    assert main([path, "--primes", "5,11,13"]) == 0
    assert [c for c in calls if c[0] == "parse"] == [("parse", QQ)]
    assert [c for c in calls if c[1].char] == []
    problem = parse_problem(QUADRATIC)
    assert all(conductor_of(problem.relation())[1] % q for q in (5, 11, 13))
    assert not [name for name, module in sys.modules.items()
                if name.startswith("intclose") and hasattr(module, "mu_poly")]
    # the sextic at 7 and 11, which both divide B: the GF(q) conductor runs on
    # the mod-q tail the filter already holds, so it builds no Polynomial either
    sextic = GOLDEN / "sextic.txt"
    assert not any(conductor_of(parse_problem(sextic.read_text(encoding="utf-8")).relation())[1]
                   % q for q in (7, 11))
    calls.clear()
    assert main([str(sextic), "--primes", "7,11"]) == 1
    assert [c for c in calls if c[1].char] == []
    # a run over another ring than the problem's own parses again: a
    # characteristic-7 problem in char0 mode parses over GF(7), then over QQ,
    # and prints what the file without the characteristic prints
    capsys.readouterr()
    calls.clear()
    code = main([_write(tmp_path, TRIDENT_Q7, "q7.txt"), "--mode", "char0"])
    printed = capsys.readouterr()
    assert [c for c in calls if c[0] == "parse"] == [("parse", GF(7)), ("parse", QQ)]
    plain = _write(tmp_path, TRIDENT_Q7.replace("characteristic: 7\n", ""), "plain.txt")
    assert (main([plain]), capsys.readouterr()) == (code, printed)


# CLI fuzz: seeded mutations of small problem files and flag sets through
# ``main``, for about FUZZ_SECONDS.  Every run must end with exit 0, 1 or 2 and
# print no traceback.  Exponents stay small but for the two huge ones below,
# and valid primes below 30 but for the largest prime below 2^63, so no single
# run is long: a walk too large for the dense layers is refused; primes at or
# past 2^63 and other bad values are usage errors.
FUZZ_SECONDS = 10.0
FUZZ_HUGE = ("20001", "1000001")
FUZZ_PROBLEMS = (QUADRATIC, TRIDENT_Q7, QUADRATIC.replace("[[3,2]]", "[[2,1]]").replace(
    "relation: y^2 - 3/2*x^3 + 24/7*x^2 - 96/49*x", "relation: y^2 - x"),
    "indvars: x\ndepvar: y\nweights: [[5,3]]\nrelation: y^3 + 1/3*y*x + 8/7*x^5\n")
FUZZ_VALUES = {
    "indvars": ["x", "x, x", "x1, x2", "ybar", "1x", "", "x,", "y", "ybar1"],
    "depvar": ["y", "x", "ybar", "2y", ""],
    "weights": ["[[3,2]]", "[3,2]", "[[7,3]]", "[[1,1],[0,1]]", "[[3]]", "[[3.5,2]]",
                "[[True,2]]", "[['3',2]]", "[[-1,2]]", "[[0,0]]", "[[", "3,2", "[[2,1,1]]",
                *(f"[[{e},2]]" for e in FUZZ_HUGE)],
    "relation": ["y^2 - x^3", "y^3 - x^5 - y*x", "y^2 + 1/0*x", "y^2 - x2*x1", "2*y^2 - x^3",
                 "y^2 + y^2*x - x^3", "x^3", "y^2 - ybar^3", "y^2 -", "(y - x)^2", "y",
                 *(f"y^2 - x^{e}" for e in FUZZ_HUGE)],
    "characteristic": ["5", "7", "4", "0", "-7", "2", "3", str(2 ** 63), "x", "1", "13"],
    "mystery": ["3"],
}
FUZZ_FRAGMENTS = ["y", "x", "^", "*", "+", "-", "/", "(", ")", "2", "3", "7", " ", "0",
                  "1/2", "ybar", "x2", "^2", "*x", "+ y*x"]
FUZZ_FLAGS = {
    "--mode": ["char0", "charq", "chr"],
    "--prime": ["2", "3", "4", "5", "7", "11", "-5", "0", "x", str(2 ** 63), str(2 ** 64 + 1),
                str(BELOW_WORD)],
    "--primes": ["5,11,13", "5", "7,7", "4,5", "", "5,,7", "x", "3,5,7,11,13", str(2 ** 63),
                 str(BELOW_WORD)],
    "--start-prime": ["-5", "0", "2", "3", "29", str(2 ** 63), "x", str(BELOW_WORD)],
    "--max-primes": ["-1", "0", "1", "2", "3", "x"],
    "--format": ["text", "structured", "json"],
}


def _fuzz_text(rng) -> str:
    lines = rng.choice(FUZZ_PROBLEMS).splitlines()
    for _ in range(rng.randint(0, 3)):
        i, kind = rng.randrange(len(lines) + 1), rng.randrange(4)
        if kind == 0 and i < len(lines):         # drop or repeat a line
            lines[i:i + 1] = [] if rng.random() < 0.5 else [lines[i]] * 2
        elif kind == 1:                          # set a field, or add one more
            key = rng.choice(sorted(FUZZ_VALUES))
            if rng.random() < 0.7:
                lines = [line for line in lines if not line.startswith(key + ":")]
            lines.insert(min(i, len(lines)), f"{key}: {rng.choice(FUZZ_VALUES[key])}")
        else:                                    # splice the relation's text
            k = next((j for j, line in enumerate(lines) if line.startswith("relation:")), None)
            if k is not None:
                text = lines[k]
                a = rng.randint(len("relation:"), len(text))
                b = min(len(text), a + rng.randint(0, 3))
                lines[k] = text[:a] + (rng.choice(FUZZ_FRAGMENTS) if kind == 2 else "") + text[b:]
    return "\n".join(lines) + "\n"


def test_cli_fuzz_ends_with_a_status_and_no_traceback(tmp_path, capsys):
    rng, seen, runs = random.Random(31), set(), 0
    path, log = str(tmp_path / "fuzz.txt"), str(tmp_path / "fuzz.log")
    start = time.monotonic()
    while time.monotonic() - start < FUZZ_SECONDS:
        text = _fuzz_text(rng)
        if any(int(e) > 12 and e not in FUZZ_HUGE for e in re.findall(r"\^\s*(\d+)", text)):
            continue
        flags = [a for flag in rng.sample(sorted(FUZZ_FLAGS), rng.randint(0, 3))
                 for a in (flag, rng.choice(FUZZ_FLAGS[flag]))]
        argv = [path] + flags + (["--log", log] if rng.random() < 0.3 else [])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            code = main(argv)
        except SystemExit as exc:                # argparse's usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (text, argv, code, err)
        seen.add(code)
        runs += 1
    assert runs >= 20 and {0, 2} <= seen
