"""The benchmark harness wraps library functions by name: each name must resolve.

``perfbench/tracing.py`` replaces every ``TARGETS`` entry in the ``intclose``
namespaces while a traced pass runs, so a renamed or deleted function, such
as ``closure.module_reduce``, which no library code calls, would otherwise
show only in a traced benchmark run.  Its counter hooks read attributes of
the results (``LiftState.lifted`` and ``.modulus``, ``Certificate.accepted``,
``Algorithm1Result.runs`` and ``.primes_used``), so a traced run of the README
problem checks those too.  This reads the harness and changes nothing under
perfbench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from corpus import README_PROBLEM
from intclose import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_harness_target_resolves_to_a_callable(target):
    obj = importlib.import_module(f"intclose.{target.module}")
    for part in target.attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_harness_hooks_read_the_results(tmp_path, capsys):
    path = tmp_path / "readme.txt"
    path.write_text(README_PROBLEM)
    rec = tracing.Recorder()
    with tracing.installed(rec):
        assert cli.main([str(path), "--primes", "5,11,13", "--format", "structured"]) == 0
        assert cli.main([str(path), "--mode", "charq", "--prime", "5"]) == 0
    capsys.readouterr()
    metrics = tracing.pass_metrics(rec, 0.0)
    assert metrics["lifting.stages"] == 3
    assert metrics["lifting.lift_failures"] == 0
    assert metrics["lifting.cert_rejected"] == 2
    assert metrics["lifting.accept_ratio"] == 1 / 3
    assert metrics["lifting.modulus_bits_max"] == (5 * 11 * 13).bit_length()
    assert metrics["driver.primes_tried"] == 4
    assert metrics["driver.primes_used"] == 4
