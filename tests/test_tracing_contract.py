"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` wraps the functions named in ``SPANNED``; a renamed or
deleted one makes ``perfbench/run.py --trace 1`` fail, so it fails here too.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spans_module():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read-only
    try:
        return importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))


spans = _spans_module()


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attrs in spans.SPANNED.items() for attr in attrs]
)
def test_spanned_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"hodge4d.{module}"), attr, None))


def test_tracer_installs_and_restores():
    from hodge4d import solver

    assemble = solver.assemble
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert solver.assemble is not assemble
    finally:
        tracer.uninstall()
    assert solver.assemble is assemble
