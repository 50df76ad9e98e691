"""The public names and the functions perfbench's tracer patches stay in place.

``perfbench/run.py --trace 1`` replaces each function named in
``perfbench/tracing.py``'s ``LOOKUPS`` in every module listed there, and
refuses to run when one of those modules lost the name or holds another
object under it.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import linsys

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _lookups():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LOOKUPS


LOOKUPS = _lookups()


def test_every_public_name_resolves():
    missing = [name for name in linsys.__all__ if not hasattr(linsys, name)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(LOOKUPS))
def test_traced_function_is_one_object_in_every_listed_module(name):
    home, lookups = LOOKUPS[name]
    original = getattr(importlib.import_module(f"linsys.{home}"), name)
    for module_name in lookups:
        module = importlib.import_module(f"linsys.{module_name}")
        assert getattr(module, name, None) is original, f"linsys.{module_name}.{name}"
