"""The benchmark harness wraps library functions by name: each name must resolve.

``perfbench/tracing.py`` replaces every ``TARGETS`` entry in the ``intclose``
namespaces while a traced pass runs, so a renamed or deleted function, such
as ``closure.module_reduce``, which no library code calls, would otherwise
show only in a traced benchmark run.  This reads the harness's list and
changes nothing under perfbench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def harness_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


TARGETS = harness_targets()


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_harness_target_resolves_to_a_callable(target):
    obj = importlib.import_module(f"intclose.{target.module}")
    for part in target.attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
