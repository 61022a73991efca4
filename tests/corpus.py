"""The 610-problem byte-identity corpus and its committed digests.

The corpus is the sextic in char 0; the octic in charq mode at
q = 7, 11, 13, 19, 23, 29; the 100 ``tall-char0`` problems of seeds 1, 7 and 51,
with the default schedule and with ``--mode charq --prime 13``; and the README
example with ``--primes 5,11,13``, ``--mode charq --prime 5`` and
``--mode charq --prime 7``.  Each problem runs through ``intclose.cli.main``
in-process, in text and in structured format, with ``--log``: 1220 runs.  A
run's digest is the sha256 of its stdout, stderr, exit status and log.  The
604 char-0 runs (no ``--mode``) are made again without ``--log``, and must
print the same stdout and stderr and exit with the same status.

The problem texts come from ``perfbench/workloads.py``, loaded by path and
left as it is.  Run as a script, it reruns the set and lists the runs whose
digest differs, or whose output changes without ``--log``, with no test
framework; to rewrite the digest file after an intended output change::

    PYTHONPATH=src python tests/corpus.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE.parent / "perfbench" / "workloads.py"
DIGESTS = HERE / "golden" / "corpus.sha256"

README_PROBLEM = ("indvars: x\ndepvar: y\nweights: [[3,2]]\n"
                  "relation: y^2 - 3/2*x^3 + 24/7*x^2 - 96/49*x\n")
TALL_SEEDS = (1, 7, 51)
FORMATS = ("text", "structured")


def workloads():
    """``perfbench/workloads.py`` as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def problems() -> list:
    """(name, problem text, cli arguments after the file) for the 610 problems."""
    wl = workloads()
    sextic = wl.sextic_solves()[0]
    out = [("sextic", sextic.text, ())]
    out += [(f"octic-q{q}", wl.problem_text([[9, 8]], wl.OCTIC_RELATION),
             ("--mode", "charq", "--prime", str(q))) for q in wl.OCTIC_PRIMES]
    for seed in TALL_SEEDS:
        solves = wl.tall_solves(seed)
        out += [(f"tall-{seed}-{s.label[5:]}", s.text, ()) for s in solves]
        out += [(f"tall-{seed}-{s.label[5:]}-q13", s.text, ("--mode", "charq", "--prime", "13"))
                for s in solves]
    out += [("readme-primes-5-11-13", README_PROBLEM, ("--primes", "5,11,13")),
            ("readme-q5", README_PROBLEM, ("--mode", "charq", "--prime", "5")),
            ("readme-q7", README_PROBLEM, ("--mode", "charq", "--prime", "7"))]
    return out


def run_record(main, path: Path, args: tuple, fmt: str, log: Path | None = None) -> list:
    """[stdout, stderr, exit status, log text] of one ``main`` run, with
    ``--log`` when a log path is given (the log text is None without one)."""
    argv = [str(path), *args, "--format", fmt]
    if log is not None:
        log.unlink(missing_ok=True)
        argv += ["--log", str(log)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = log.read_text(encoding="utf-8") if log is not None and log.exists() else None
    return [out.getvalue(), err.getvalue(), rc, text]


def run_digest(record: list) -> str:
    """sha256 of a run's stdout, stderr, exit status and log."""
    return hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()


def check(select=None) -> tuple:
    """(run id ("name format") -> digest, unlogged) over the problems whose
    name passes ``select`` (all by default).  Every char-0 run is made a second
    time without ``--log``; ``unlogged`` lists those whose stdout, stderr or
    exit status differ from the logged run's."""
    from intclose.cli import main
    found, unlogged = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        path, log = Path(tmp) / "problem.txt", Path(tmp) / "audit.log"
        for name, text, args in problems():
            if select is not None and not select(name):
                continue
            path.write_text(text, encoding="utf-8")
            for fmt in FORMATS:
                run = f"{name} {fmt}"
                record = run_record(main, path, args, fmt, log)
                found[run] = run_digest(record)
                if "--mode" not in args and run_record(main, path, args, fmt)[:3] != record[:3]:
                    unlogged.append(run)
    return found, unlogged


def read_digests() -> dict:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {run: digest for digest, run in (line.split("  ", 1) for line in lines)}


def write_digests(found: dict) -> None:
    DIGESTS.write_text("".join(f"{d}  {run}\n" for run, d in found.items()), encoding="utf-8")


if __name__ == "__main__":
    found, unlogged = check()
    if sys.argv[1:] == ["--write"]:
        write_digests(found)
    else:
        stored = read_digests()
        bad = [run for run in stored.keys() | found.keys() if stored.get(run) != found.get(run)]
        bad += [f"{run} (without --log)" for run in unlogged]
        print("\n".join(sorted(bad)) or f"all {len(found)} runs match")
        sys.exit(1 if bad else 0)
