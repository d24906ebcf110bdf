"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` wraps the functions named in ``SPANNED``; a renamed or
deleted one makes ``perfbench/run.py --trace 1`` fail, so it fails here too.
"""

import importlib
import os
import subprocess
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


def test_tracer_installs_after_only_a_sweep(tmp_path):
    # in a fresh interpreter, where a sweep is all that has run, so no earlier
    # test has loaded the modules the tracer spans
    config = tmp_path / "sweep.cfg"
    config.write_text("[sweep]\nnx = 8\nnt = 8\nmanufactured = sin(pi*x)*(1+t)\neps_list = 0.1\n")
    script = (
        "import contextlib, io, sys\n"
        "from hodge4d.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['sweep', '--config', sys.argv[1]]) == 0\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import spans\n"
        "from hodge4d import solver, verification\n"
        "assemble, run_identities = solver.assemble, verification.run_identities\n"
        "tracer = spans.Tracer()\n"
        "try:\n"
        "    tracer.install()\n"
        "    assert solver.assemble is not assemble and verification.run_identities is not run_identities\n"
        "finally:\n"
        "    tracer.uninstall()\n"
        "assert solver.assemble is assemble and verification.run_identities is run_identities\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # read-only: no __pycache__ under perfbench
    done = subprocess.run([sys.executable, "-c", script, str(config)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
