"""The intclose benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload sextic-char0|octic-charq|tall-char0 \
        --seed N --seconds S --trace 0|1

Load model: closed loop, one client, one process, no threads.  Each solve
calls ``intclose.cli.main([file, ..., "--format", "structured"])`` with its
output captured, so it parses its own problem file into a fresh ``Ring`` and
order-key cache, like a user's cold ``intclose`` process; the next solve
starts when the previous one returns.  After one untimed warm-up pass, whole
passes over the workload's problems run until ``--seconds`` have elapsed (at
least one pass).  Every output is checked for exactness (``check.py``).

``--trace 0`` reports the end-to-end metrics, measured with no wrappers
installed and with ``speed.Sampler`` probing the host's speed during every
timed pass.  Solve times exclude the probes.  The reported times, the
``*_adj_s`` ones and ``setup_s``, are scaled to a reference host speed
(``speed.py``); the raw seconds are printed beside them.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``tracing.py``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

import check
import speed
import tracing
import workloads

SETUP_REPS = 7

# (name, unit, better); the end_to_end list of BENCHMARK.json
END_TO_END = (
    ("wall_adj_s", "s", "lower"),
    ("solve_p50_adj_s", "s", "lower"),
    ("solve_p90_adj_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def measure_setup(workload: str, seed: int, out_dir: str) -> float:
    """Median wall time of a fresh process that imports, generates and writes."""
    cmd = [sys.executable, workloads.__file__, "--workload", workload,
           "--seed", str(seed), "--out", out_dir]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls the child in steps of up to 50 ms
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Result(NamedTuple):
    rc: object           # exit status; None when the call raised
    out: str             # captured standard output
    err: str             # captured standard error
    seconds: float       # wall time, less any speed probes that ran inside it


def run_solve(cli, argv, sampler=None) -> Result:
    """One ``cli.main`` call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    probed = sampler.total if sampler is not None else 0.0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed solve, reported below
            traceback.print_exc()
            rc = None
    dt = time.perf_counter() - t0
    if sampler is not None:
        dt -= sampler.total - probed
    return Result(rc, out.getvalue(), err.getvalue(), dt)


def run_pass(cli, argvs, rec=None, sampler=None) -> tuple:
    """Results of each solve of one pass, untraced and traced.

    With a recorder, every solve is repeated at once with the wrappers
    installed, so that drift in machine speed falls on both alike.  With a
    running sampler, probe time is taken out of each solve's time.
    """
    results, traced = [], []
    for argv in argvs:
        results.append(run_solve(cli, argv, sampler))
        if rec is not None:
            with tracing.installed(rec):
                traced.append(run_solve(cli, argv))
    return results, traced


def pass_wall(results) -> float:
    return sum(r.seconds for r in results)


def check_pass(solves, results) -> int:
    """Number of solves in the pass whose output is not exactly right."""
    failed = 0
    for s, r in zip(solves, results):
        problems = check.check_output(s.expect, r.rc, r.out)
        if problems:
            failed += 1
            print(f"FAIL {s.label}: {'; '.join(problems)}\n{r.err}", file=sys.stderr)
    return failed


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metadata(root: str) -> dict:
    src_files = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
        lines += data.count(b"\n")
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    """HEAD of a git checkout, read from .git; "unknown" elsewhere."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _metric_json(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}


def timed_passes(cli, solves, argvs, seconds, traced: bool):
    """Passes until ``seconds`` elapse.

    Traced: each solve followed by a traced one.  Untraced: each pass under
    its own speed sampler, whose factor scales that pass's times.
    """
    walls, traced_walls, times, layer_passes = [], [], [], []
    factors, adj_times = [], []
    attempted = failed = 0
    first_results = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if traced:
            rec = tracing.Recorder()
            results, tresults = run_pass(cli, argvs, rec)
        else:
            sampler = speed.Sampler()
            with sampler.running():
                results, tresults = run_pass(cli, argvs, sampler=sampler)
            factors.append(sampler.factor())
            adj_times.extend(r.seconds * factors[-1] for r in results)
        walls.append(pass_wall(results))
        if traced:
            traced_walls.append(pass_wall(tresults))
            layer_passes.append(tracing.pass_metrics(rec, traced_walls[-1]))
        for batch in (results, tresults):
            attempted += len(batch)
            failed += check_pass(solves, batch)
        times.extend(r.seconds for r in results)
        first_results = first_results or results
    return {"walls": walls, "traced_walls": traced_walls, "times": times,
            "factors": factors, "adj_times": adj_times,
            "layer_passes": layer_passes, "attempted": attempted,
            "failed": failed, "first_results": first_results}


def record_primes(path: str, seed: int, solves, results) -> list:
    """Write the primes each char-0 solve tried and used; return the records."""
    records = []
    for s, r in zip(solves, results):
        rec = {"label": s.label, "exit": r.rc}
        if r.rc == 0:
            rec.update(check.primes_record(r.out))
        records.append(rec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "problems": records}, fh, indent=1)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="intclose benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "intclose", "cli.py")):
        print("error: run from the repository root (src/intclose not found)",
              file=sys.stderr)
        return 2
    # the probe's list is built before anything is measured, and its memory
    # is taken out of peak_rss_mb
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed.prepare()
    probe_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_kb
    work = os.path.join(root, ".perfbench-work", f"{args.workload}-seed{args.seed}")
    solves = workloads.solves_for(args.workload, args.seed)
    setup_raw_s = measure_setup(args.workload, args.seed, work)

    sys.path.insert(0, os.path.join(root, "src"))
    from intclose import cli

    path = lambda name: os.path.join(work, name)
    for argv in workloads.warmup_args(args.workload, solves):
        run_solve(cli, (path(argv[0]),) + argv[1:])
    argvs = [(path(s.file),) + s.args for s in solves]
    res = timed_passes(cli, solves, argvs, args.seconds, traced=bool(args.trace))

    print(f"workload {args.workload} seed {args.seed}: {len(res['walls'])} timed"
          f" pass(es) of {len(solves)} solve(s)"
          + (", each solve followed by a traced one" if args.trace else ""))
    print("meta: " + json.dumps(metadata(root)))
    if args.workload == "tall-char0":
        records = record_primes(os.path.join(work, "primes.json"), args.seed,
                                solves, res["first_results"])
        tried = [len(r.get("tried", ())) for r in records]
        used = [len(r.get("used", ())) for r in records]
        print(f"primes per problem: tried {min(tried)}..{max(tried)}"
              f" (median {statistics.median(tried)}), used {min(used)}..{max(used)};"
              f" accepted {sum(r['exit'] == 0 for r in records)}/{len(records)}"
              f" (written to {os.path.relpath(work, root)}/primes.json)")
    fail_ratio = res["failed"] / res["attempted"]
    print(f"fail_ratio: {fail_ratio:g} ({res['failed']}/{res['attempted']} solves)")

    if args.trace:
        values = tracing.layer_metrics(res["layer_passes"], res["traced_walls"],
                                     res["walls"])
        spec = tracing.PER_LAYER
        wall = statistics.median(res["traced_walls"])
        print(f"traced wall {wall:.3f} s; self-time shares:")
        shares = sorted(((values[n], n) for n, u, _ in spec if u == "s"), reverse=True)
        for v, n in shares:
            print(f"  {n:36s} {v:10.4f} s {100 * v / wall:6.1f} %")
    else:
        times, adj = res["times"], res["adj_times"]
        values = {
            "wall_adj_s": statistics.median(
                w * f for w, f in zip(res["walls"], res["factors"])),
            "solve_p50_adj_s": statistics.median(adj),
            "solve_p90_adj_s": p90(adj),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            - probe_kb) / 1024,
            # the child process cannot be probed from inside; the run's
            # median speed factor stands for the host's speed at set-up
            "setup_s": setup_raw_s * statistics.median(res["factors"]),
        }
        spec = END_TO_END
        print(f"raw: wall_s {statistics.median(res['walls']):.6g} s,"
              f" solve_p50_s {statistics.median(times):.6g} s,"
              f" solve_p90_s {p90(times):.6g} s, setup_s {setup_raw_s:.6g} s;"
              " speed factor per pass "
              + ", ".join(f"{f:.4f}" for f in res["factors"]))
        print(f"solve times: {len(times)} samples, "
              f"{sum(t > p90(times) for t in times)} beyond p90")
        if len(solves) < 10:
            per = {s.label: statistics.median(res["times"][i::len(solves)])
                   for i, s in enumerate(solves)}
            print("median seconds per solve: "
                  + ", ".join(f"{k} {v:.3f}" for k, v in per.items()))
    for name, unit, _ in spec:
        print(f"  {name:36s} {values[name]:.6g} {unit}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": _metric_json(values, spec)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
