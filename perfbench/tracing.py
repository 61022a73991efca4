"""Per-layer spans recorded from outside the program.

``installed(recorder)`` wraps the public functions of the layers in every
``intclose`` namespace that holds them.  The package imports names with
``from .x import y``, so a wrapper placed only on the defining module would
be skipped, without any error, by every caller that imported the name: the
wrapper replaces the function object wherever it is bound.  Spans (name,
start, end, parent) stay in memory; a span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Recorder:
    """Spans of one traced pass, plus counters taken at the same boundaries."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    maxima: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def note_max(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self) -> dict:
        """Seconds per span name, each span minus the time of its children."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + (self.ends[i] - self.starts[i]) - child[i]
        return out

    def top_level_time(self) -> float:
        return sum(self.ends[i] - self.starts[i]
                   for i, p in enumerate(self.parents) if p < 0)

    def calls(self) -> Counter:
        return Counter(self.names)


# ---------------------------------------------------------------------------
# what is wrapped


def _count_reduce(rec, args, result):
    rec.counts["closure.module_reduce_terms_in"] += len(args[0].terms)


def _count_nullspace(rec, args, result):
    rows, ncols = args[0], args[1]
    rec.counts["linalg.matrix_cells"] += len(rows) * ncols
    rec.counts["linalg.kernel_dim"] += len(result)


def _count_lift(rec, args, result):
    if not result.lifted:
        rec.counts["lifting.lift_failures"] += 1
    rec.note_max("lifting.modulus_bits_max", result.modulus.bit_length())


def _count_verify(rec, args, result):
    rec.counts["lifting.cert_accepted" if result.accepted
               else "lifting.cert_rejected"] += 1


def _count_algorithm1(rec, args, result):
    rec.counts["driver.primes_tried"] += len(result.runs)
    rec.counts["driver.primes_used"] += len(result.primes_used)


def _count_charq(rec, args, result):
    rec.counts["driver.primes_tried"] += 1
    rec.counts["driver.primes_used"] += 1


def _conductor_span(args) -> str:
    """canonical_conductor(gens, ring): named by the characteristic of ring."""
    return "conductor.modq" if args[1].domain.char else "conductor.rational"


@dataclass(frozen=True)
class Target:
    module: str                    # defining module inside the package
    attr: str                      # function name, or Class.method
    span: str | Callable           # span name, or a function of the call's args
    scope: tuple | None = None     # modules whose binding is wrapped; None: all
    hook: Callable | None = None   # counter update after the call returns


TARGETS = (
    Target("closure", "module_reduce", "closure.module_reduce", hook=_count_reduce),
    Target("closure", "frobenius_nf", "closure.frobenius_nf"),
    Target("closure", "qth_power_step", "closure.qth_power_step"),
    Target("closure", "canonical_generators", "closure.canonical_generators"),
    Target("closure", "induce_presentation", "closure.induce_presentation"),
    Target("closure", "minimize_denominator", "closure.minimize_denominator"),
    Target("closure", "qth_closure", "closure.qth_closure"),
    Target("linalg", "nullspace_mod", "linalg.nullspace_mod", hook=_count_nullspace),
    Target("groebner", "module_gb", "groebner.module_gb"),
    Target("groebner", "buchberger", "groebner.buchberger"),
    Target("groebner", "is_minimal_reduced_gb", "groebner.is_minimal_reduced_gb"),
    # only the certificate's reductions; the other callers keep them in self time
    Target("groebner", "normal_form", "groebner.normal_form", scope=("lifting",)),
    Target("conductor", "canonical_conductor", _conductor_span),
    Target("lifting", "run_prime", "lifting.run_prime"),
    Target("lifting", "is_prime_usable", "lifting.is_prime_usable"),
    Target("lifting", "reconcile_and_lift", "lifting.reconcile_and_lift",
           hook=_count_lift),
    Target("lifting", "verify_candidate", "lifting.verify_candidate",
           hook=_count_verify),
    Target("driver", "run_algorithm1", "driver.run_algorithm1",
           hook=_count_algorithm1),
    Target("driver", "run_charq", "driver.run_charq", hook=_count_charq),
    Target("problem", "parse_problem", "cli.parse"),
    Target("problem", "ProblemFile.relation", "cli.parse"),
    Target("cli", "emit_structured", "cli.emit"),
)


def _wrap(rec: Recorder, target: Target, fn):
    span, hook = target.span, target.hook

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(span if isinstance(span, str) else span(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every target while the block runs; restore the originals after."""
    modules = {name.partition(".")[2]: mod for name, mod in sys.modules.items()
               if name == "intclose" or name.startswith("intclose.")}
    patched = []
    try:
        for t in TARGETS:
            owner = modules[t.module]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                patched.append((cls, meth, orig))
                setattr(cls, meth, _wrap(rec, t, orig))
                continue
            orig = getattr(owner, t.attr)
            wrapper = _wrap(rec, t, orig)
            for mname in (t.scope or tuple(modules)):
                mod = modules[mname]
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        yield rec
    finally:
        for obj, attr, orig in reversed(patched):
            setattr(obj, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

# (name, unit, better); the per_layer list of BENCHMARK.json
PER_LAYER = (
    ("closure.module_reduce_s", "s", "lower"),
    ("closure.module_reduce_calls", "count", "lower"),
    ("closure.module_reduce_terms_in", "count", "lower"),
    ("closure.frobenius_nf_s", "s", "lower"),
    ("closure.frobenius_nf_calls", "count", "lower"),
    ("closure.qth_power_step_s", "s", "lower"),
    ("closure.fixpoint_iters", "count", "lower"),
    ("closure.canonical_generators_s", "s", "lower"),
    ("closure.induce_presentation_s", "s", "lower"),
    ("closure.minimize_denominator_s", "s", "lower"),
    ("closure.qth_closure_s", "s", "lower"),
    ("linalg.nullspace_mod_s", "s", "lower"),
    ("linalg.nullspace_mod_calls", "count", "lower"),
    ("linalg.matrix_cells", "count", "lower"),
    ("linalg.kernel_dim", "count", "lower"),
    ("groebner.module_gb_s", "s", "lower"),
    ("groebner.module_gb_calls", "count", "lower"),
    ("groebner.buchberger_s", "s", "lower"),
    ("groebner.buchberger_calls", "count", "lower"),
    ("groebner.is_minimal_reduced_gb_s", "s", "lower"),
    ("groebner.normal_form_s", "s", "lower"),
    ("conductor.rational_s", "s", "lower"),
    ("conductor.modq_s", "s", "lower"),
    ("conductor.calls", "count", "lower"),
    ("lifting.run_prime_s", "s", "lower"),
    ("lifting.is_prime_usable_s", "s", "lower"),
    ("lifting.reconcile_and_lift_s", "s", "lower"),
    ("lifting.verify_candidate_s", "s", "lower"),
    ("lifting.stages", "count", "lower"),
    ("lifting.lift_failures", "count", "lower"),
    ("lifting.cert_rejected", "count", "lower"),
    ("lifting.accept_ratio", "ratio", "higher"),
    ("lifting.modulus_bits_max", "bits", "lower"),
    ("driver.primes_tried", "count", "lower"),
    ("driver.primes_used", "count", "lower"),
    ("driver.usable_ratio", "ratio", "higher"),
    ("driver.self_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_SELF_TIME = {
    "closure.module_reduce_s": ("closure.module_reduce",),
    "closure.frobenius_nf_s": ("closure.frobenius_nf",),
    "closure.qth_power_step_s": ("closure.qth_power_step",),
    "closure.canonical_generators_s": ("closure.canonical_generators",),
    "closure.induce_presentation_s": ("closure.induce_presentation",),
    "closure.minimize_denominator_s": ("closure.minimize_denominator",),
    "closure.qth_closure_s": ("closure.qth_closure",),
    "linalg.nullspace_mod_s": ("linalg.nullspace_mod",),
    "groebner.module_gb_s": ("groebner.module_gb",),
    "groebner.buchberger_s": ("groebner.buchberger",),
    "groebner.is_minimal_reduced_gb_s": ("groebner.is_minimal_reduced_gb",),
    "groebner.normal_form_s": ("groebner.normal_form",),
    "conductor.rational_s": ("conductor.rational",),
    "conductor.modq_s": ("conductor.modq",),
    "lifting.run_prime_s": ("lifting.run_prime",),
    "lifting.is_prime_usable_s": ("lifting.is_prime_usable",),
    "lifting.reconcile_and_lift_s": ("lifting.reconcile_and_lift",),
    "lifting.verify_candidate_s": ("lifting.verify_candidate",),
    "driver.self_s": ("driver.run_algorithm1", "driver.run_charq"),
    "cli.parse_s": ("cli.parse",),
    "cli.emit_s": ("cli.emit",),
}

_CALLS = {
    "closure.module_reduce_calls": ("closure.module_reduce",),
    "closure.frobenius_nf_calls": ("closure.frobenius_nf",),
    "closure.fixpoint_iters": ("closure.qth_power_step",),
    "linalg.nullspace_mod_calls": ("linalg.nullspace_mod",),
    "groebner.module_gb_calls": ("groebner.module_gb",),
    "groebner.buchberger_calls": ("groebner.buchberger",),
    "conductor.calls": ("conductor.rational", "conductor.modq"),
    "lifting.stages": ("lifting.reconcile_and_lift",),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(rec: Recorder, wall: float) -> dict:
    """Per-layer values of one traced pass that took ``wall`` seconds."""
    selfs, calls, counts = rec.self_times(), rec.calls(), rec.counts
    out = {m: sum(selfs.get(s, 0.0) for s in spans) for m, spans in _SELF_TIME.items()}
    out.update({m: sum(calls[s] for s in spans) for m, spans in _CALLS.items()})
    for name in ("closure.module_reduce_terms_in", "linalg.matrix_cells",
                 "linalg.kernel_dim", "lifting.lift_failures",
                 "lifting.cert_rejected", "driver.primes_tried",
                 "driver.primes_used"):
        out[name] = counts[name]
    out["lifting.accept_ratio"] = _ratio(counts["lifting.cert_accepted"],
                                         out["lifting.stages"])
    out["lifting.modulus_bits_max"] = rec.maxima.get("lifting.modulus_bits_max", 0)
    out["driver.usable_ratio"] = _ratio(counts["driver.primes_used"],
                                        counts["driver.primes_tried"])
    out["trace.unattributed_s"] = wall - rec.top_level_time()
    return out


def layer_metrics(passes: list, traced_walls: list, untraced_walls: list) -> dict:
    """Median over traced passes of each per-layer value, plus the overhead."""
    out = {name: statistics.median(p[name] for p in passes)
           for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                  / statistics.median(untraced_walls) - 1.0)
    return out
