"""The package namespace: what ``hodge4d`` exports, and that its lazy loading keeps it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hodge4d

EXPORTED = [
    "AXES", "BasisForm", "BoundaryKind", "BoundaryReport", "ConvectionForm", "DegreeUnderflowWarning",
    "ExpPolyField", "ExpansionReport", "KForm", "MaterialParams", "NoPotentialError", "NormalForm",
    "PolyField", "Potential", "SolveError", "artificial_bc", "basis_forms", "boundary", "boundary_report",
    "build_convection_form", "codifferential_1a", "codifferential_a1", "convdiff", "display_components",
    "emergent_constraint", "errors", "exp_fitted_flux", "expand_componentwise", "exterior_derivative",
    "fields", "flux", "forms", "hodge_laplacian", "hodge_star", "interior_product_dt", "make_potential",
    "one_form", "operator_pieces", "parse_basis_label", "scaled_hodge_star", "spatial_form",
    "spatial_parts", "temporal_parts", "unified_operator", "vectorcalc", "wedge", "wedge_trace",
    "DiscreteField", "Grid1p1", "LinearSystem", "ProblemConfig", "Scheme", "SweepFloorError",
    "SweepResult", "assemble", "bernoulli", "discrete_bilinear", "epsilon_sweep", "l2_error",
    "reference_evolution", "solve",
]  # fmt: skip

SUBMODULES = ("boundary", "convdiff", "errors", "fields", "forms", "solver", "vectorcalc")


def _run_python(script):
    src = str(Path(hodge4d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)


def test_all_lists_the_exported_names():
    assert hodge4d.__all__ == EXPORTED


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hodge4d import *", namespace)
    assert set(EXPORTED) <= set(namespace)


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_is_its_submodule_object(name):
    value = getattr(hodge4d, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"hodge4d.{name}")
        return
    holders = [importlib.import_module(f"hodge4d.{module}") for module in SUBMODULES]
    holders = [module for module in holders if name in vars(module)]
    assert holders, f"no submodule defines {name}"
    assert all(vars(module)[name] is value for module in holders)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'hodge4d' has no attribute 'no_such_name'$"):
        hodge4d.no_such_name


def test_a_fresh_package_lists_its_names_and_rejects_unknown_ones():
    script = (
        "import sys, hodge4d\n"
        "assert set(hodge4d.__all__) <= set(dir(hodge4d))\n"
        "try:\n"
        "    hodge4d.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'hodge4d' has no attribute 'no_such_name'\", exc\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "loaded = [m for m in sys.modules if m.startswith('hodge4d.')]\n"
        "assert not loaded, loaded\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "module", ["_record", "fields", "forms", "vectorcalc", "convdiff", "boundary", "tables", "verification", "errors"]
)
def test_importing_a_submodule_first_keeps_the_package_names(module):
    # convdiff and verification ask the package for vectorcalc while they
    # import, before the rest of the layer can load
    script = (
        f"import hodge4d.{module}\n"
        "import hodge4d\n"
        "from hodge4d import verification\n"
        "assert hodge4d.PolyField is hodge4d.fields.PolyField\n"
        "assert hodge4d.expand_componentwise is verification.expand_componentwise\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr


def test_threads_that_touch_the_layer_first_all_get_it():
    # each thread's first access waits for the modules another thread is
    # importing; none sees the layer half loaded
    script = (
        "import threading, hodge4d\n"
        "barrier, errors = threading.Barrier(4), []\n"
        "def touch(i):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        if i % 2:\n"
        "            hodge4d.PolyField\n"
        "        else:\n"
        "            from hodge4d import verification\n"
        "        assert hodge4d.expand_componentwise is hodge4d.convdiff.expand_componentwise\n"
        "    except Exception as exc:\n"
        "        errors.append(exc)\n"
        "threads = [threading.Thread(target=touch, args=(i,)) for i in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join()\n"
        "assert not errors, errors\n"
    )
    for _ in range(3):  # a race: a loader that hands out a half-loaded layer fails most runs
        done = _run_python(script)
        assert done.returncode == 0, done.stderr
