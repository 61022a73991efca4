"""Tests of the benchmark itself: its checker, its trace and its metric lists.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import contextlib
import importlib.util
import io
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from intclose import cli, driver, lifting  # noqa: E402


def _solve(workdir, solve):
    workloads.write_problems([solve], str(workdir))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([os.path.join(str(workdir), solve.file), *solve.args])
    return rc, out.getvalue()


def _perturb(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_sextic_reference_matches_the_test_fixtures():
    spec = importlib.util.spec_from_file_location(
        "fixtures", os.path.join(ROOT, "tests", "conftest.py"))
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    ref = workloads.sextic_solves()[0].expect["reference"]
    assert ref["numerators"] == fixtures.SEXTIC_NUMERATORS
    ring, rels = fixtures.sextic_relations()
    names = ring.names
    assert (sorted(check.parse_poly(t, names) for t in ref["relations"])
            == sorted(check.parse_poly(str(r), names) for r in rels))
    assert ref["induced_weights"] == [list(fixtures.SEXTIC_INDUCED_WEIGHTS)]


def test_checker_rejects_a_perturbed_sextic_result():
    solve = workloads.sextic_solves()[0]
    ref = solve.expect["reference"]
    doc = {"mode": "char0", "accepted": True, "conductor": ref["conductor"],
           "primes": ref["primes"], "delta": ref["delta"],
           "numerators": list(reversed(ref["numerators"])),
           "induced_weights": ref["induced_weights"],
           "relations": ref["relations"], "psi": ref["psi"],
           "certificate": {"accepted": True,
                           "per_prime": [[q, True] for q in ref["primes"]]}}
    assert check.check_output(solve.expect, 0, json.dumps(doc)) == []
    for key, bad in (
            ("numerators", [_perturb(ref["numerators"][1], "15/17", "15/16")]
             + ref["numerators"][:1] + ref["numerators"][2:]),
            ("relations", [_perturb(ref["relations"][0], "729/4", "729/5")]
             + ref["relations"][1:]),
            ("primes", [7, 11, 13, 19, 23, 31]),
            ("psi", "ybar1"),
            ("delta", "x^4")):
        assert check.check_output(solve.expect, 0, json.dumps(dict(doc, **{key: bad})))
    assert check.check_output(solve.expect, 1, json.dumps(doc))


def test_checker_rejects_a_perturbed_octic_result(tmp_path):
    solve = workloads.octic_solves()[0]
    rc, out = _solve(tmp_path, solve)
    assert check.check_output(solve.expect, rc, out) == []
    doc = json.loads(out)
    doc["relations"][0] = _perturb(doc["relations"][0], "+ x", "+ 2*x")
    assert check.check_output(solve.expect, rc, json.dumps(doc))


def test_checker_accepts_tall_closed_forms_and_rejects_perturbations(tmp_path):
    quad, cubic = workloads.tall_solves(seed=3)[:2]
    for solve in (quad, cubic):
        rc, out = _solve(tmp_path, solve)
        assert check.check_output(solve.expect, rc, out) == []
        doc = json.loads(out)
        for key, bad in (("relations", doc["relations"][:-1] + [doc["relations"][-1] + " + x"]),
                         ("numerators", doc["numerators"][:-1] + ["x^2"]),
                         ("psi", doc["psi"] + " + 1")):
            assert check.check_output(solve.expect, rc, json.dumps(dict(doc, **{key: bad})))
    # right shape, wrong coefficients: the quadratic output against another curve
    other = workloads.tall_solves(seed=4)[0]
    rc, out = _solve(tmp_path, quad)
    assert check.check_output(other.expect, rc, out)


def test_tall_problems_depend_only_on_the_seed():
    a, b = workloads.tall_solves(5), workloads.tall_solves(5)
    assert [s.text for s in a] == [s.text for s in b]
    assert [s.text for s in a] != [s.text for s in workloads.tall_solves(6)]
    assert len(a) == workloads.TALL_PROBLEMS
    for s in a:
        for key in ("c", "a", "alpha", "beta"):
            if key in s.expect:
                num, _, den = s.expect[key].partition("/")
                assert 0 < abs(int(num)) <= workloads.TALL_COEFF_MAX
                assert 0 < int(den or 1) <= workloads.TALL_COEFF_MAX


def test_traced_self_times_add_up_to_the_traced_wall(tmp_path):
    solves = workloads.tall_solves(seed=2)[:2] + workloads.octic_solves()[:1]
    workloads.write_problems(solves, str(tmp_path))
    argvs = [(os.path.join(str(tmp_path), s.file),) + s.args for s in solves]
    originals = (cli.run_algorithm1, driver.canonical_conductor, lifting.qth_closure)
    rec = tracing.Recorder()
    with tracing.installed(rec):
        assert cli.run_algorithm1 is not originals[0]
    assert (cli.run_algorithm1, driver.canonical_conductor, lifting.qth_closure) == originals
    results, traced = run.run_pass(cli, argvs, rec)
    assert run.check_pass(solves, results) == run.check_pass(solves, traced) == 0
    wall = run.pass_wall(traced)
    values = tracing.pass_metrics(rec, wall)
    self_total = sum(values[n] for n, u, _ in tracing.PER_LAYER
                     if u == "s" and n != "trace.unattributed_s")
    assert abs(self_total + values["trace.unattributed_s"] - wall) < 1e-6 * wall
    assert 0 <= values["trace.unattributed_s"] < 0.2 * wall
    # spans arrive through names imported into other modules
    calls = rec.calls()
    assert calls["conductor.rational"] == 2
    assert calls["closure.qth_closure"] == values["driver.primes_used"]
    assert values["driver.primes_tried"] > values["driver.primes_used"] > 2
    assert values["lifting.stages"] >= 2 and values["lifting.modulus_bits_max"] > 0


def test_sampler_time_is_taken_out_of_solve_times(tmp_path):
    solves = workloads.octic_solves()[:1]
    workloads.write_problems(solves, str(tmp_path))
    argv = (os.path.join(str(tmp_path), solves[0].file),) + solves[0].args
    sampler = speed.Sampler()
    t0 = time.perf_counter()
    with sampler.running():
        result = run.run_solve(cli, argv, sampler)
    elapsed = time.perf_counter() - t0
    assert check.check_output(solves[0].expect, result.rc, result.out) == []
    assert len(sampler.durations) >= 2  # the first probe, then timer ticks
    assert 0 < result.seconds < elapsed - sampler.total + 1e-3
    mean = sampler.total / len(sampler.durations)
    assert abs(sampler.factor() * mean - speed.REFERENCE_PROBE_S) < 1e-12
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_times_exclude_children():
    rec = tracing.Recorder()
    rec.names, rec.parents = ["a", "b", "b", "c"], [-1, 0, 0, 2]
    rec.starts, rec.ends = [0.0, 1.0, 3.0, 3.5], [10.0, 2.0, 5.0, 4.0]
    assert rec.self_times() == {"a": 7.0, "b": 2.5, "c": 0.5}
    assert rec.top_level_time() == 10.0


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
