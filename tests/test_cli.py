import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hodge4d
from hodge4d import convdiff, verification
from hodge4d.cli import main
from hodge4d.convdiff import NoPotentialError
from hodge4d.forms import BasisForm, KForm

SOLVE_CONFIG = """
[solve]
nx = 16
nt = 16
alpha = 1.0
beta = 0.5
epsilon = 0.1
scheme = centered
manufactured = sin(pi*x)*(1+t)
"""

SWEEP_CONFIG = """
[sweep]
nx = 24
nt = 96
alpha = 1.0
beta = 0.5
epsilon = 0.1
scheme = centered
manufactured = sin(pi*x)*(1+t**2)
target = limit
eps_list = 0.1,0.05
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_tables_passes(capsys):
    code, out = run(capsys, "verify-tables")
    assert code == 0
    assert "32/32" in out.replace("star table: ", "").replace(" entries", "")
    assert "expansion[k=4]" in out


def test_identities_deterministic_under_seed(capsys):
    code1, out1 = run(capsys, "identities", "--seed", "42", "--count", "20")
    code2, out2 = run(capsys, "identities", "--seed", "42", "--count", "20")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "constraint-value" in out1  # informational note, not a failure


def test_identities_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("HODGE4D_SEED", "7")
    code, out = run(capsys, "identities", "--count", "10")
    assert code == 0


def _checkout_env():
    """The environment of a fresh interpreter that imports hodge4d from this checkout."""
    src = str(Path(hodge4d.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_python(script, *args):
    """Run ``script`` in a fresh interpreter that imports hodge4d from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=_checkout_env(), capture_output=True, text=True
    )


# modules that only solve and sweep need: the solver's numpy and scipy, the
# dataclasses it is built from (with inspect), and the config and CSV readers
SOLVER_ONLY_MODULES = ("numpy", "scipy", "dataclasses", "inspect", "configparser", "csv")


def test_symbolic_commands_do_not_load_the_solver():
    script = (
        "import sys\n"
        "from hodge4d.cli import main\n"
        "assert main(['verify-tables']) == 0\n"
        "assert main(['identities', '--count', '2']) == 0\n"
        "assert main(['expand', '--k', '2']) == 0\n"
        "assert main(['boundary', '--k', '1']) == 0\n"
        f"loaded = sorted(set({SOLVER_ONLY_MODULES!r}) & set(sys.modules))\n"
        "assert not loaded, f'symbolic commands loaded {loaded}'\n"
        "from hodge4d import solve\n"
        "assert callable(solve) and 'scipy' in sys.modules\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr


README_SWEEP_CONFIG = """
[sweep]
nx = 64
nt = 1024
alpha = 1.0
beta = 0.5
epsilon = 0.1
scheme = centered
manufactured = sin(pi*x)*(1+t**2)
target = limit
eps_list = 0.1,0.05,0.025,0.0125
"""


def test_solve_and_sweep_run_without_sympy(tmp_path):
    solve_config, sweep_config = tmp_path / "solve.cfg", tmp_path / "sweep.cfg"
    solve_config.write_text(SOLVE_CONFIG)
    sweep_config.write_text(README_SWEEP_CONFIG)
    script = (
        "import sys\n"
        "sys.modules['sympy'] = None  # import sympy now raises ImportError\n"
        "from hodge4d.cli import main\n"
        "assert main(['solve', '--config', sys.argv[1]]) == 0\n"
        "assert main(['sweep', '--config', sys.argv[2]]) == 0\n"
    )
    done = _run_python(script, str(solve_config), str(sweep_config))
    assert done.returncode == 0, done.stderr
    assert "L2 error" in done.stdout and "fitted slope" in done.stdout


def test_expand_command(capsys):
    code, out = run(capsys, "expand", "--k", "1", "--alpha", "2", "--eps", "1/2",
                    "--beta", "1,0,0")
    assert code == 0
    assert "all cells match" in out
    assert "[dt]" in out


def test_expand_rejects_bad_degree(capsys):
    code, _ = run(capsys, "expand", "--k", "7")
    assert code == 2


def test_boundary_command(capsys):
    code, out = run(capsys, "boundary", "--k", "3")
    assert code == 0
    assert "not applicable" in out
    code, out = run(capsys, "boundary", "--k", "0")
    assert "u = 0" in out


@pytest.mark.parametrize("k", range(4))
def test_boundary_initial_data_satisfies_the_trace(capsys, k):
    code, out = run(capsys, "boundary", "--k", str(k))
    assert code == 0
    assert "  t0-BC: u(x, t0) matches the prescribed initial form  [satisfied]" in out.splitlines()


def test_solve_command(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG)
    code, out = run(capsys, "solve", "--config", str(config))
    assert code == 0
    assert "L2 error" in out


def test_solve_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text("[solve]\nnx = 8\nnt = 8\nwhatever = 1\n")
    code, _ = run(capsys, "solve", "--config", str(config))
    assert code == 2


def test_solve_missing_config_rejected(capsys):
    code, _ = run(capsys, "solve", "--config", "/nonexistent.cfg")
    assert code == 2


def test_sweep_writes_bit_identical_csv(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _ = run(capsys, "sweep", "--config", str(config), "--out", str(out1))
    code2, _ = run(capsys, "sweep", "--config", str(config), "--out", str(out2))
    assert code1 == code2 == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.splitlines()
    assert lines[0] == "epsilon,l2_error_T,energy_integral,slope_estimate"
    assert lines[-1].startswith("fit,")
    assert len(lines) == 4  # header + two entries + summary


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["sweep", "expand", "help", "sweep-help"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, capsys, command, unbuffered):
    # the pipe's reader is gone before the child writes; with buffered stdout
    # the write fails at the flush, unbuffered at the first print; argparse
    # prints --help itself, inside parse_args
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    argv = {
        "sweep": ["sweep", "--config", str(config), "--out", str(tmp_path / "piped.csv")],
        "expand": ["expand", "--k", "2"],
        "help": ["--help"],
        "sweep-help": ["sweep", "--help"],
    }[command]
    env = _checkout_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hodge4d.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert done.stderr == ""  # no traceback, no "Exception ignored" note
    assert done.returncode == 1
    if command == "sweep":
        expected = tmp_path / "expected.csv"
        assert run(capsys, "sweep", "--config", str(config), "--out", str(expected))[0] == 0
        assert (tmp_path / "piped.csv").read_text() == expected.read_text()


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.startswith(f"usage: hodge4d {' '.join(argv[:-1])}".rstrip())
    assert "--help" in out


def test_sweep_empty_eps_list_is_usage_error(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG.replace("eps_list = 0.1,0.05", "eps_list ="))
    code, _ = run(capsys, "sweep", "--config", str(config))
    assert code == 2


def test_sweep_zero_epsilon_rejected(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG.replace("0.1,0.05", "0.1,0.0"))
    code, _ = run(capsys, "sweep", "--config", str(config))
    assert code == 2


def test_flag_overrides_file_value(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG)
    code, out = run(capsys, "solve", "--config", str(config), "--nx", "24", "--nt", "24")
    assert code == 0
    assert "24x24" in out


# -- exit-code contract: one-line "error:" message, no traceback ----------------------


def run_failing(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err


def test_solve_too_few_cells_is_usage_error(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG)
    code, err = run_failing(capsys, "solve", "--config", str(config), "--nx", "1")
    assert code == 2
    assert "interior nodes" in err


def test_solve_zero_epsilon_is_usage_error(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG)
    code, err = run_failing(capsys, "solve", "--config", str(config), "--epsilon", "0")
    assert code == 2
    assert "epsilon > 0" in err


def test_solve_malformed_expression_is_usage_error(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text("[solve]\nnx = 8\nnt = 8\nf = x+\n")
    code, err = run_failing(capsys, "solve", "--config", str(config))
    assert code == 2
    assert "'x+'" in err


def test_solve_expression_is_not_evaluated(tmp_path, capsys, monkeypatch):
    import os

    calls = []
    monkeypatch.setattr(os, "getcwd", lambda: calls.append("getcwd") or "/")
    config = tmp_path / "solve.cfg"
    config.write_text('[solve]\nnx = 8\nnt = 8\nf = __import__("os").getcwd()\n')
    code, err = run_failing(capsys, "solve", "--config", str(config))
    assert code == 2
    assert "not allowed" in err
    assert calls == []


def test_solve_failure_exits_one(tmp_path, capsys, monkeypatch):
    import hodge4d.solver
    from hodge4d.solver import SolveError

    def failing_solve(system):
        raise SolveError("relative residual 1.000e+00 above 1e-10")

    # the CLI imports the solver inside the command, so patch it at its home
    monkeypatch.setattr(hodge4d.solver, "solve", failing_solve)
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG)
    code, err = run_failing(capsys, "solve", "--config", str(config))
    assert code == 1
    assert "residual" in err


def test_solve_with_expression_data(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text("[solve]\nnx = 8\nnt = 8\nalpha = 1 + x\nf = sin(pi*x)*t\ng = x*exp(-t)\n")
    code, out = run(capsys, "solve", "--config", str(config))
    assert code == 0
    assert "value range" in out


def run_quietly(capsys, *argv):
    """run_failing, asserting that no warning was raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_failing(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    return code, err


def test_solve_non_finite_data_is_usage_error(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text("[solve]\nnx = 8\nnt = 8\ng = log(x)\n")
    code, err = run_quietly(capsys, "solve", "--config", str(config))
    assert code == 2
    assert err == "error: g is not finite at x=0, t=0\n"


def test_sweep_non_finite_data_is_usage_error(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("[sweep]\nnx = 8\nnt = 16\ng = log(x)\neps_list = 0.1,0.05\n")
    code, err = run_quietly(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert err == "error: g is not finite at x=0, t=0\n"


@pytest.mark.parametrize("nt", [96, 1024])
def test_sweep_on_data_near_the_float_maximum_prints_one_error_line(tmp_path, nt):
    # the reference overflows on the fast path and in the time steps: no
    # floating-point warning may reach stderr, and under -W error::RuntimeWarning
    # none may end the run in a traceback; with BLAS on one thread, at 1024
    # cells the fast path's lanes are large enough for its helper thread
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"[sweep]\nnx = 24\nnt = {nt}\nalpha = 1\nbeta = 0.5\nf = 0\ng = 1e307*(1+x)\neps_list = 0.1,0.05\n"
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hodge4d.cli", "sweep", "--config", str(config)],
        env=dict(_checkout_env(), OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stderr == (
        f"error: the time steps reached a value that is not finite (eps=0.0, scheme=centered, grid=23x{nt - 1})\n"
    )


def _sweep_with(*lines):
    """SWEEP_CONFIG without its manufactured solution, each ``key = value`` line set."""
    keys = {line.split("=")[0].strip() for line in lines} | {"manufactured"}
    kept = [line for line in SWEEP_CONFIG.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + list(lines)) + "\n"


@pytest.mark.parametrize(
    "lines, err",
    [
        (["alpha = 1e400", "g = sqrt(-1)"], "error: alpha is not finite at x=0.0208333\n"),
        (["beta = 1e400", "f = 1/0", "g = 0"], "error: beta is not finite at x=0.0208333\n"),
        (["f = 1/(x-0.5)", "g = 0"], "error: f is not finite at x=0.5, t=0.0104167\n"),
        (["g = log(1-x)"], "error: g is not finite at x=1, t=0\n"),
    ],
    ids=["alpha-before-g", "beta-before-f", "f-interior", "g-spatial-end"],
)
def test_sweep_names_the_first_non_finite_data(tmp_path, capsys, lines, err):
    # the sweep checks alpha and beta before the data, as its reference march does
    config = tmp_path / "sweep.cfg"
    config.write_text(_sweep_with(*lines))
    code, got = run_quietly(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert got == err


@pytest.mark.parametrize(
    "text",
    [
        b"nx = 8\n",  # no section header
        b"[solve]\nnx = 8\n[solve]\nnt = 8\n",  # duplicate section
        b"[solve]\nnx = 8\nnx = 9\n",  # duplicate key
        b"[solve]\n  stray\nnx = 8\n",  # indented continuation line with nothing to continue
        b"[solve]\nnx = 8\ng = \xff\n",  # not UTF-8
    ],
    ids=["no-header", "duplicate-section", "duplicate-key", "stray-continuation", "bad-bytes"],
)
def test_malformed_config_is_usage_error(tmp_path, capsys, text):
    config = tmp_path / "solve.cfg"
    config.write_bytes(text)
    code, err = run_quietly(capsys, "solve", "--config", str(config))
    assert code == 2
    assert err.startswith(f"error: malformed config file {str(config)!r}: ")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_epsilon_is_usage_error(tmp_path, capsys, value):
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG)
    code, err = run_quietly(capsys, "solve", "--config", str(config), "--epsilon", value)
    assert code == 2
    assert "epsilon > 0" in err


def test_sweep_non_finite_epsilon_is_usage_error(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG.replace("eps_list = 0.1,0.05", "eps_list = 0.1,nan"))
    code, err = run_quietly(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert "positive and finite" in err


@pytest.mark.parametrize("key, value", [("lx", "inf"), ("t_final", "inf"), ("t0", "-inf")])
def test_solve_non_finite_domain_is_usage_error(tmp_path, capsys, key, value):
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG + f"{key} = {value}\n")
    code, err = run_quietly(capsys, "solve", "--config", str(config))
    assert code == 2
    assert err == f"error: {key} must be finite, got {float(value)}\n"


@pytest.mark.parametrize(
    "line, err",
    [
        ("manufactured = Abs(x-0.5)*t**2", ""),  # the kink at x = 0.5 is a grid node
        ("g = 10**10**10", "error: g is not finite at x=0, t=0\n"),
        ("g = sqrt(-1)", "error: g is not finite at x=0, t=0\n"),
        ("f = 1/0", "error: f is not finite at x=0.0625, t=0.0625\n"),
        ("alpha = 1e400", "error: alpha is not finite at x=0.03125\n"),
        ("beta = 1e400", "error: beta is not finite at x=0.03125\n"),
        ("g = " + "+".join(["x"] * 3000), "error: expression is nested too deeply\n"),
        ("manufactured = " + "+".join(["x*t"] * 1200), "error: expression is nested too deeply\n"),
    ],
    ids=[
        "abs-kink", "huge-power", "sqrt-negative", "divide-by-zero", "huge-alpha", "huge-beta",
        "deep-data", "deep-manufactured",
    ],
)
def test_constant_and_kinked_expressions(tmp_path, capsys, line, err):
    config = tmp_path / "solve.cfg"
    config.write_text(f"[solve]\nnx = 16\nnt = 16\n{line}\n")
    if not err:
        code, out = run(capsys, "solve", "--config", str(config))
        assert code == 0 and "L2 error" in out
        return
    code, got = run_quietly(capsys, "solve", "--config", str(config))
    assert code == 2
    assert got == err


@pytest.mark.parametrize(
    "flag, value, err",
    [("--alpha", "0", "alpha must be positive, got 0"), ("--eps", "-1", "epsilon must be positive, got -1")],
    ids=["alpha-zero", "eps-negative"],
)
def test_expand_bad_material_is_usage_error(capsys, flag, value, err):
    code, got = run_quietly(capsys, "expand", "--k", "0", flag, value)
    assert code == 2
    assert got == f"error: {err}\n"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_identities_count_below_one_is_usage_error(capsys, count):
    code, err = run_quietly(capsys, "identities", "--count", count)
    assert code == 2
    assert err == f"error: count must be at least 1, got {count}\n"


# -- a failing identity names its first failing instance -------------------------------


def _plus_one(form):
    """``form`` plus a spurious 1 on the first basis form of its degree."""
    if form.degree > 4:
        return form
    return form + KForm(form.degree, {BasisForm((1 << form.degree) - 1): 1})


def _spurious(calls=0):
    """original -> the original, plus ``_plus_one`` on every result after its first ``calls`` calls."""

    def make(original):
        seen = itertools.count()
        return lambda *args: _plus_one(original(*args)) if next(seen) >= calls else original(*args)

    return make


def _on_no_potential(outcome):
    """A ``make_potential`` that returns ``outcome``, or raises it if it is an
    error, where the real one rejects a non-closed field."""

    def make(make_potential):
        def broken(b):
            try:
                return make_potential(b)
            except NoPotentialError:
                if isinstance(outcome, Exception):
                    raise outcome
                return outcome

        return broken

    return make


# name -> (module, function, original -> broken function)
_BROKEN = {
    "exterior_derivative": (verification, "exterior_derivative", _spurious(5)),
    "wedge": (verification, "wedge", _spurious()),
    "interior_product_dt": (verification, "interior_product_dt", _spurious()),
    "exp_fitted_flux": (verification, "exp_fitted_flux", _spurious()),
    "potential-accepted": (verification, "make_potential", _on_no_potential(None)),
    "potential-unnamed": (verification, "make_potential", _on_no_potential(NoPotentialError([]))),
    "unified_operator": (verification, "unified_operator", _spurious(3)),
    "scaled_star_convection": (convdiff, "scaled_star_convection", lambda s: lambda w, m: s(w, m).scale(2)),
}

# the FAIL lines of ``identities --seed 0 --count 10`` with each function broken
_EXPECTED_FAILURES = {
    "exp_fitted_flux": [
        "FAIL flux-exponential-fitting[k=0] x10: instance #0",
        "FAIL flux-exponential-fitting[k=1] x10: instance #0",
        "FAIL flux-exponential-fitting[k=2] x10: instance #0",
        "FAIL flux-exponential-fitting[k=3] x10: instance #0",
    ],
    "exterior_derivative": [
        "FAIL d-after-d[k=0] x10: instance #2: d(d(w)) = KForm<2>((1)*dx^dy)",
        "FAIL d-after-d[k=1] x10: instance #0: d(d(w)) = KForm<3>((1)*dx^dy^dz)",
        "FAIL d-after-d[k=2] x10: instance #0: d(d(w)) = KForm<4>((1)*dx^dy^dz^dt)",
        "FAIL graded-leibniz[0,0] x1: instance #0",
        "FAIL graded-leibniz[0,1] x1: instance #0",
        "FAIL graded-leibniz[0,2] x1: instance #0",
        "FAIL graded-leibniz[0,3] x1: instance #0",
        "FAIL graded-leibniz[1,0] x1: instance #0",
        "FAIL graded-leibniz[1,1] x1: instance #0",
        "FAIL graded-leibniz[1,2] x1: instance #0",
        "FAIL graded-leibniz[2,0] x1: instance #0",
        "FAIL graded-leibniz[2,1] x1: instance #0",
        "FAIL graded-leibniz[3,0] x1: instance #0",
    ],
    "interior_product_dt": [
        "FAIL interior-product-antiderivation[signed]: basis 1",
        "FAIL interior-product-nilpotent x10: instance #0",
    ],
    "potential-accepted": [
        "FAIL potential-rejects-nonclosed x1: instance #0: non-closed field accepted",
    ],
    "potential-unnamed": [
        "FAIL potential-rejects-nonclosed x1: instance #0: no components named",
    ],
    "scaled_star_convection": [
        "FAIL constraint-block[k=1] x2: instance #0",
        "FAIL constraint-block[k=2] x2: instance #0",
        "FAIL constraint-block[k=3] x2: instance #0",
        "FAIL scalar-equation-expansion x2: instance #0: expand[k=0][1][delta_wedge]: residual -4*z - 2/3*x + x*z + 1/12*x^2 - 4*y^2*z + x*y^2*z",
    ],
    "unified_operator": [
        "FAIL operator-linearity x2: instance #1 (k=3)",
    ],
    "wedge": [
        "FAIL graded-leibniz[0,0] x1: instance #0",
        "FAIL graded-leibniz[0,1] x1: instance #0",
        "FAIL graded-leibniz[0,2] x1: instance #0",
        "FAIL graded-leibniz[0,3] x1: instance #0",
        "FAIL graded-leibniz[2,0] x1: instance #0",
        "FAIL graded-leibniz[2,1] x1: instance #0",
        "FAIL wedge-anticommute[1,1] x1: instance #0",
        "FAIL wedge-anticommute[1,3] x1: instance #0",
        "FAIL wedge-anticommute[3,1] x1: instance #0",
        "FAIL interior-product-antiderivation[signed]: basis dx",
    ],
}


@pytest.mark.parametrize("broken", sorted(_BROKEN))
def test_failing_identities_name_their_instance(capsys, monkeypatch, broken):
    module, name, breaks = _BROKEN[broken]
    monkeypatch.setattr(module, name, breaks(getattr(module, name)))
    code, out = run(capsys, "identities", "--seed", "0", "--count", "10")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == _EXPECTED_FAILURES[broken]
