import itertools
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hodge4d
from hodge4d import convdiff, verification
from hodge4d.cli import build_parser, main
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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("identities", "--seed", "42", "--count", "20"), "identities-seed42-count20.txt"),
        (("verify-tables", "--seed", "0"), "verify-tables-seed0.txt"),
        # README's expansion example at every degree, and every boundary report
        *(
            (("expand", "--k", str(k), "--alpha", "2", "--eps", "1/2", "--beta", "1,0,-1"), f"expand-k{k}.txt")
            for k in range(5)
        ),
        *((("boundary", "--k", str(k)), f"boundary-k{k}.txt") for k in range(4)),
    ],
)
def test_exact_commands_print_their_pinned_bytes(capsys, argv, golden):
    # the material values in the double-star names and the instance counts
    # pin the random draw stream end to end, not only the verdicts; the
    # golden files change only with a declared change of output
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_identities_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("HODGE4D_SEED", "7")
    code, out = run(capsys, "identities", "--count", "10")
    assert code == 0


def _checkout_env():
    """The environment of a fresh interpreter that imports hodge4d from this checkout."""
    src = str(Path(hodge4d.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_python(script, *args):
    """Run ``script`` in a fresh interpreter that imports hodge4d from this checkout.

    A floating-point warning is an error there, as it is in this suite.
    """
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script, *args],
        env=_checkout_env(), capture_output=True, text=True,
    )


# modules that only solve and sweep need: the solver's numpy (and scipy, which
# only some solves import), the dataclasses it is built from (with inspect),
# and the config and CSV readers
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
        "assert callable(solve) and 'numpy' in sys.modules and 'scipy' not in sys.modules\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr


# the exact layer, which hodge4d loads as one unit, and what each symbolic
# command loads of hodge4d: that unit, cli, errors and the package
EXACT_LAYER_MODULES = tuple(
    f"hodge4d.{name}"
    for name in ("_record", "fields", "forms", "vectorcalc", "convdiff", "boundary", "tables", "verification")
)
SYMBOLIC_COMMAND_MODULES = sorted(EXACT_LAYER_MODULES + ("hodge4d", "hodge4d.cli", "hodge4d.errors"))


@pytest.mark.parametrize(
    "argv", [["verify-tables"], ["identities", "--count", "2"], ["expand", "--k", "2"], ["boundary", "--k", "1"]]
)
def test_each_symbolic_command_loads_the_whole_exact_layer_and_no_solver(argv):
    script = (
        "import contextlib, io, sys\n"
        "from hodge4d.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'hodge4d' or m.startswith('hodge4d.')))\n"
        f"print(sorted(set({SOLVER_ONLY_MODULES!r}) & set(sys.modules)))\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [repr(SYMBOLIC_COMMAND_MODULES), "[]"]


def test_solve_and_sweep_do_not_load_the_exact_layer(tmp_path):
    solve_config, sweep_config = tmp_path / "solve.cfg", tmp_path / "sweep.cfg"
    solve_config.write_text(SOLVE_CONFIG)
    sweep_config.write_text(SWEEP_CONFIG)
    script = (
        "import contextlib, io, sys\n"
        f"exact = {EXACT_LAYER_MODULES!r}\n"
        "import hodge4d\n"
        "assert [m for m in sys.modules if m.startswith('hodge4d.')] == [], 'import hodge4d loaded a submodule'\n"
        "from hodge4d.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['solve', '--config', sys.argv[1]]) == 0\n"
        "    assert main(['sweep', '--config', sys.argv[2]]) == 0\n"
        "loaded = sorted(set(exact) & set(sys.modules))\n"
        "assert not loaded, f'solve and sweep loaded {loaded}'\n"
        "hodge4d.PolyField\n"
        "missing = sorted(set(exact) - set(sys.modules))\n"
        "assert not missing, f'the first PolyField did not load {missing}'\n"
    )
    done = _run_python(script, str(solve_config), str(sweep_config))
    assert done.returncode == 0, done.stderr


def test_the_solver_loads_scipy_sparse_only_for_a_matrix():
    # a fast-path solve and a sweep form no sparse matrix; reading
    # LinearSystem.matrix does, and only then is scipy.sparse imported
    script = (
        "import sys\n"
        "from hodge4d.solver import Grid1p1, ProblemConfig, assemble, epsilon_sweep, solve\n"
        "system = assemble(ProblemConfig.from_manufactured('sin(pi*x)*(1+t)', beta=0.5, epsilon=0.1),"
        " Grid1p1.with_cells(8, 8))\n"
        "solve(system)\n"
        "config = ProblemConfig.from_manufactured('sin(pi*x)*(1+t**2)', beta=0.5, epsilon=0.1, target='limit')\n"
        "epsilon_sweep(config, Grid1p1.with_cells(24, 96), [0.1, 0.05])\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "assert system.matrix.nnz > 0 and 'scipy.sparse' in sys.modules\n"
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


def _readme_sweep_config():
    """The ``[sweep]`` example of README.md, as printed there."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def test_the_readme_sweep_example_runs_as_printed(tmp_path, capsys):
    config = tmp_path / "readme.cfg"
    config.write_text(_readme_sweep_config())
    code, out = run(capsys, "sweep", "--config", str(config))
    assert code == 0
    assert "fitted slope" in out


def test_the_readme_cli_examples_run_as_printed(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    ran = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "hodge4d"
        if "--config" not in argv:  # the solve and sweep lines read a config file
            assert run(capsys, *argv[1:])[0] == 0, line
            ran.append(argv[1])
    assert ran == ["verify-tables", "identities", "expand", "boundary"]


def _workflow_commands():
    """The arguments of each ``hodge4d`` line in the CI workflow's run blocks, once per value of a loop variable."""
    yaml = pytest.importorskip("yaml")
    path = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    workflow = yaml.safe_load(path.read_text(encoding="utf-8"))
    ended = (">", "2>", "|", "&", ";")  # the arguments end where a redirection or another command begins
    commands = []
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            variable, values = None, [None]
            for line in step.get("run", "").splitlines():
                loop = re.match(r"\s*for (\w+) in ([^;]*); do$", line)
                if loop:
                    variable, values = loop[1], loop[2].split()
                elif line.strip() == "done":
                    variable, values = None, [None]
                elif re.search(r"(^|\s)hodge4d\s", line.split("#")[0]):
                    for value in values:
                        words = shlex.split(line if variable is None else line.replace(f"${variable}", value))
                        words = words[words.index("hodge4d") + 1:]
                        commands.append(list(itertools.takewhile(lambda w: not w.startswith(ended), words)))
    return commands


def test_every_workflow_command_parses():
    # a renamed command or flag fails here, not in the first CI run
    parser = build_parser()
    commands = _workflow_commands()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"hodge4d {shlex.join(argv)} does not parse")
    assert {argv[0] for argv in commands} == {"identities", "verify-tables", "expand", "boundary", "solve", "sweep"}


# (config text, command, whether scipy is loaded after it)
SCIPY_CASES = {
    "constant-coefficient-solve": (SOLVE_CONFIG, "solve", False),
    # 9 cells give 8 interior nodes, an even count: the closed-form sine
    # transforms split into two halves with no middle column
    "even-interior-count-solve": (
        SOLVE_CONFIG.replace("nx = 16", "nx = 9").replace("scheme = centered", "scheme = upwind"), "solve", False
    ),
    "readme-sweep": (None, "sweep", False),
    # x-dependent alpha: the fast path takes its eigenbasis from scipy.linalg
    "variable-alpha-solve": (SOLVE_CONFIG.replace("alpha = 1.0", "alpha = 1+x"), "solve", True),
    # a fitted problem far past the scaling guard: sparse LU from scipy.sparse
    "guard-rejected-solve": (
        SOLVE_CONFIG.replace("alpha = 1.0", "alpha = 0.001").replace("scheme = centered", "scheme = exp-fitted"),
        "solve",
        True,
    ),
}


@pytest.mark.parametrize("case", SCIPY_CASES)
def test_only_solves_that_need_scipy_load_it(tmp_path, case):
    text, command, loads_scipy = SCIPY_CASES[case]
    config = tmp_path / "case.cfg"
    config.write_text(_readme_sweep_config() if text is None else text)
    script = (
        "import contextlib, io, sys\n"
        "from hodge4d.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main([{command!r}, '--config', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))[:1])\n"
    )
    done = _run_python(script, str(config))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ("['scipy']" if loads_scipy else "[]")


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


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize(
    "lines, err",
    [
        # g is rejected before it is parsed: manufactured would drop it unread
        (["manufactured = sin(pi*x)", "g = nonsense("], "error: g cannot be set with manufactured, which derives f and g\n"),
        (["manufactured = sin(pi*x)", "f = 0"], "error: f cannot be set with manufactured, which derives f and g\n"),
        (
            ["manufactured = sin(pi*x)", "f = 0", "g = 0"],
            "error: f and g cannot be set with manufactured, which derives f and g\n",
        ),
        (
            ["f = 0", "g = 0", "target = limit"],
            "error: target needs manufactured: it chooses the problem that the manufactured solution solves\n",
        ),
    ],
    ids=["manufactured-and-g", "manufactured-and-f", "manufactured-and-f-g", "target-without-manufactured"],
)
def test_a_data_key_that_the_data_source_ignores_is_usage_error(tmp_path, capsys, command, lines, err):
    config = tmp_path / f"{command}.cfg"
    sweep = ["eps_list = 0.1"] if command == "sweep" else []
    config.write_text("\n".join([f"[{command}]", "nx = 8", "nt = 8", *sweep, *lines]) + "\n")
    assert run_failing(capsys, command, "--config", str(config)) == (2, err)


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


@pytest.mark.parametrize(
    "target, reason", [("missing/sweep.csv", "No such file or directory"), (".", "Is a directory")]
)
def test_sweep_out_that_cannot_be_written_is_usage_error(tmp_path, capsys, target, reason):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    out = str(tmp_path / target)
    code, err = run_failing(capsys, "sweep", "--config", str(config), "--out", out)
    assert code == 2
    assert err == f"error: cannot write {out!r}: {reason}\n"


def test_solve_too_few_cells_is_usage_error(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG)
    code, err = run_failing(capsys, "solve", "--config", str(config), "--nx", "2")
    assert code == 2
    assert err == "error: need at least 3 cells per direction, got 2x16 cells\n"
    # the CLI's nx and nt count cells, so the message counts cells too
    code, err = run_failing(capsys, "solve", "--config", str(config), "--nx", "1", "--nt", "0")
    assert code == 2
    assert err == "error: need at least 3 cells per direction, got 1x0 cells\n"


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
        raise SolveError("backward error 1.000e+00 above 1e-12")

    # the CLI imports the solver inside the command, so patch it at its home
    monkeypatch.setattr(hodge4d.solver, "solve", failing_solve)
    config = tmp_path / "solve.cfg"
    config.write_text(SOLVE_CONFIG)
    code, err = run_failing(capsys, "solve", "--config", str(config))
    assert code == 1
    assert "backward error" in err


@pytest.mark.parametrize("command, config", [("solve", SOLVE_CONFIG), ("sweep", SWEEP_CONFIG)], ids=["solve", "sweep"])
def test_a_grid_too_large_for_memory_is_usage_error(tmp_path, capsys, monkeypatch, command, config):
    import hodge4d.solver

    def no_memory(config, grid):
        raise MemoryError  # as np.empty raises for a grid of 100000x100000 cells, never allocated here

    monkeypatch.setattr(hodge4d.solver, "_data", no_memory)
    path = tmp_path / f"{command}.cfg"
    path.write_text(config)
    code, err = run_failing(capsys, command, "--config", str(path), "--nx", "100000", "--nt", "100000")
    assert code == 2
    assert err == "error: not enough memory for a grid of 100000x100000 cells\n"


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


@pytest.mark.parametrize(
    "text, err",
    [
        ("nx = 8\nnt = 8\ng = log(x)", "error: g is not finite at x=0, t=0\n"),
        # the row t = 0.75 of 384 x 384 cells lies in the fourth block of rows
        # that f is called on: the first bad node in row-major order is named
        ("nx = 384\nnt = 384\nf = 1/(t-0.75)\ng = 0", "error: f is not finite at x=0.00260417, t=0.75\n"),
    ],
    ids=["g-at-the-first-node", "f-in-a-later-row-block"],
)
def test_solve_non_finite_data_is_usage_error(tmp_path, capsys, text, err):
    config = tmp_path / "solve.cfg"
    config.write_text(f"[solve]\n{text}\n")
    assert run_quietly(capsys, "solve", "--config", str(config)) == (2, err)


def test_sweep_non_finite_data_is_usage_error(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("[sweep]\nnx = 8\nnt = 16\ng = log(x)\neps_list = 0.1,0.05\n")
    code, err = run_quietly(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert err == "error: g is not finite at x=0, t=0\n"


@pytest.mark.parametrize("nt", [96, 1024])
def test_sweep_on_data_near_the_float_maximum_prints_one_error_line(tmp_path, nt):
    # the reference overflows on the fast path and in the time steps, which
    # share the gate and its message for a result that is not finite: no
    # floating-point warning may reach stderr, and under -W error::RuntimeWarning
    # none may end the run in a traceback, on a coarse and on a fine time grid
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
        f"error: the solution is not finite (eps=0.0, scheme=centered, grid=24x{nt} cells)\n"
    )


@pytest.mark.parametrize(
    "command, lines, err",
    [
        (
            "solve",
            "epsilon = 1e305\nscheme = exp-fitted\nmanufactured = sin(pi*x)*(1+t)",
            "error: the t stencil's lower coefficient of row 1 is not finite (eps=1e+305 too large for ht=0.0078125)\n",
        ),
        (
            "solve",
            "alpha = 1e306\nmanufactured = sin(pi*x)*(1+t)",
            "error: the x stencil's lower coefficient of row 1 is not finite "
            "(alpha or beta too large for hx=0.0078125)\n",
        ),
        (
            "sweep",
            "alpha = 1e306\nbeta = 0.5\nmanufactured = sin(pi*x)*(1+t**2)\neps_list = 0.1,0.05",
            "error: the x stencil's lower coefficient of row 1 is not finite "
            "(alpha or beta too large for hx=0.0078125)\n",
        ),
    ],
    ids=["solve-eps", "solve-alpha", "sweep-alpha"],
)
def test_coefficients_too_large_for_the_grid_exit_2_with_one_error_line(tmp_path, command, lines, err):
    # huge but finite coefficients overflow the stencils on 128 x 128 cells:
    # assembly names the coefficient, and no floating-point warning may end
    # the run in a traceback
    config = tmp_path / "huge.cfg"
    config.write_text(f"[{command}]\nnx = 128\nnt = 128\n{lines}\n")
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hodge4d.cli", command, "--config", str(config)],
        env=_checkout_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)


def _run_cli_warnings_as_errors(tmp_path, text, *argv):
    """Run ``hodge4d`` on the config ``text`` in a fresh interpreter where a floating-point warning is an error."""
    config = tmp_path / "run.cfg"
    config.write_text(text)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hodge4d.cli", *argv, "--config", str(config)],
        env=_checkout_env(), capture_output=True, text=True,
    )


def test_huge_terminal_data_exits_2_with_one_error_line(tmp_path):
    # finite terminal data q = eps*u_t = 1e307*(1+x) times the ghost coupling
    # overflows the final-time row of the right-hand side
    done = _run_cli_warnings_as_errors(
        tmp_path, "[solve]\nnx = 128\nnt = 128\nepsilon = 1\nmanufactured = 1e307*t*(1+x)\n", "solve"
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: the q_terminal term of the right-hand side is not finite at x=0.0078125, t=1\n"


def test_a_one_eps_sweep_of_zero_data_fits_no_slope_quietly(tmp_path):
    # every difference is zero: one entry needs no fit, and none takes a log of zero
    done = _run_cli_warnings_as_errors(tmp_path, "[sweep]\nnx = 8\nnt = 8\nf = 0\ng = 0\neps_list = 0.1\n", "sweep")
    assert (done.returncode, done.stderr) == (0, "")
    assert "fitted slope: nan" in done.stdout


def _sweep_with(*lines):
    """SWEEP_CONFIG without its manufactured solution and its target, each ``key = value`` line set."""
    keys = {line.split("=")[0].strip() for line in lines} | {"manufactured", "target"}
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


def test_solve_and_sweep_report_bad_alpha_before_bad_data(tmp_path, capsys):
    # both build Ax before they evaluate the data, so one config gives one line
    lines = ("alpha = -1", "f = 1/0", "g = 0")
    configs = {
        "solve": "[solve]\nnx = 16\nnt = 16\nepsilon = 0.1\n" + "\n".join(lines) + "\n",
        "sweep": _sweep_with(*lines),
    }
    for command, text in configs.items():
        config = tmp_path / f"{command}.cfg"
        config.write_text(text)
        assert run_quietly(capsys, command, "--config", str(config)) == (
            2, "error: nonpositive diffusion coefficient on an edge\n"
        ), command


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
