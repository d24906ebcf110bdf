"""Command-line entry point.

Commands: verify-tables, identities, expand, boundary, solve, sweep.
Configuration files are flat key=value text with one section per command
(configparser syntax); command-line flags override file values and unknown
keys are rejected; expressions go through ``expressions.parse_expression``.
The two halves of the package load apart: only solve and sweep import the
numeric solver (and with it numpy and dataclasses, and scipy for the solves
that need it), configparser and csv, and only the symbolic commands load the exact layer, which each reaches
through the package (``from . import verification``) so that it loads as
one unit (see ``hodge4d``).
Exit codes: 0 all checks passed, 1 verification failure or failed solve,
2 usage or configuration error.  A stdout closed by its reader (as in
``hodge4d sweep ... | head -1`` or ``hodge4d --help`` into a closed pipe)
ends the command with exit code 1 and no traceback; ``sweep --out`` writes
its CSV before it prints anything, so the file is complete either way, and
a path it cannot write is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from .errors import SolveError

USAGE_ERROR = 2
CHECK_ERROR = 1


class UsageError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("HODGE4D_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"HODGE4D_SEED must be an integer, got {raw!r}")


def _parse_fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected a rational number, got {text!r}")


def _sample_fields(degree: int):
    from . import fields

    x, y, z, t = (fields.PolyField.variable(i) for i in range(4))
    if degree == 0:
        return x * x * t + y * z
    if degree in (1, 2):
        return (x * x + y * t, x * z + t * t, y * y - z * t)
    if degree == 3:
        return z * z * t + x * y
    return None


def cmd_verify_tables(args) -> int:
    from . import verification

    report = verification.run_table_verification(seed=args.seed)
    for line in report.lines():
        print(line)
    star_checks = [c for c in report.checks if c.name.startswith(("star[", "scaled-star["))]
    print(f"star table: {sum(c.passed for c in star_checks)}/{len(star_checks)} entries")
    return 0 if report.passed else CHECK_ERROR


def cmd_identities(args) -> int:
    from . import verification

    if args.count < 1:
        raise UsageError(f"count must be at least 1, got {args.count}")
    report = verification.run_identities(args.seed, args.count)
    for line in report.lines():
        print(line)
    return 0 if report.passed else CHECK_ERROR


def cmd_expand(args) -> int:
    from fractions import Fraction

    from . import convdiff, forms

    if args.k not in (0, 1, 2, 3, 4):
        raise UsageError(f"degree must be 0..4, got {args.k}")
    beta = (Fraction(0), Fraction(0), Fraction(0))
    if args.beta:
        parts = args.beta.split(",")
        if len(parts) != 3:
            raise UsageError("beta needs three comma-separated components")
        beta = tuple(_parse_fraction(p) for p in parts)
    try:
        m = forms.MaterialParams(alpha=_parse_fraction(args.alpha), epsilon=_parse_fraction(args.eps), beta=beta)
    except ValueError as exc:
        raise UsageError(str(exc))
    report = convdiff.expand_componentwise(args.k, _sample_fields(args.k), m)
    print(f"component-wise expansion, degree {args.k}, alpha={m.alpha}, eps={m.epsilon}")
    for row in report.rows:
        print(f"[{row.label}]  input coefficient: {row.input_coefficient}")
        for col in ("delta_d", "delta_wedge", "d_delta", "total"):
            ok = row.actual[col] == row.expected[col]
            print(f"    {col:12s} {'ok ' if ok else 'MISMATCH'}  {row.actual[col]}")
    if report.matches:
        print("all cells match the classical expansion")
        return 0
    for failure in report.failures():
        print(f"FAIL {failure}")
    return CHECK_ERROR


def cmd_boundary(args) -> int:
    from fractions import Fraction

    from . import boundary, forms

    if args.k not in (0, 1, 2, 3):
        raise UsageError(f"degree must be 0..3, got {args.k}")
    fields = _sample_fields(args.k)
    m = forms.MaterialParams(alpha=Fraction(1), epsilon=Fraction(1, 2))
    initial = forms.spatial_parts(forms.spatial_form(args.k, fields).substitute_t(0))
    report = boundary.boundary_report(args.k, fields, initial, m)
    for line in report.lines():
        print(line)
    print(f"  terminal expression at t=1: {report.terminal.value!r}")
    return 0


# ---------------------------------------------------------------------------
# solver configuration
# ---------------------------------------------------------------------------

_SOLVE_KEYS = {
    "nx", "nt", "lx", "t0", "t_final", "alpha", "beta", "epsilon",
    "scheme", "manufactured", "target", "f", "g",
}
_SWEEP_KEYS = _SOLVE_KEYS | {"eps_list"}


def _read_section(path: str, section: str, allowed: set) -> dict:
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed config file {path!r}: {' '.join(str(exc).split())}")
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    if not parser.has_section(section):
        raise UsageError(f"config file {path!r} has no [{section}] section")
    values = dict(parser.items(section))
    unknown = set(values) - allowed
    if unknown:
        raise UsageError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
    return values


def _build_problem(values: dict, args) -> tuple:
    from .solver import Grid1p1, ProblemConfig, Scheme

    def pick(key, default=None):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        return values.get(key, default)

    try:
        cells_x = int(pick("nx", 32))
        cells_t = int(pick("nt", 32))
        epsilon = float(pick("epsilon", 0.1))
        lx = float(pick("lx", 1.0))
        t0 = float(pick("t0", 0.0))
        t_final = float(pick("t_final", 1.0))
    except ValueError as exc:
        raise UsageError(f"bad numeric value in configuration: {exc}")
    few = [f"{name}={cells}" for name, cells in (("nx", cells_x), ("nt", cells_t)) if cells < 3]
    if few:
        raise UsageError(f"nx and nt need at least 3 cells, got {', '.join(few)}")
    try:
        scheme = Scheme(pick("scheme", "centered"))
    except ValueError:
        raise UsageError(f"unknown scheme {pick('scheme')!r}")
    alpha = pick("alpha", "1.0")
    beta = pick("beta", "0.0")
    manufactured = pick("manufactured")
    # a key the data source would drop unread is an error, not a silent no-op
    if manufactured:
        ignored = [key for key in ("f", "g") if pick(key) is not None]
        if ignored:
            raise UsageError(f"{' and '.join(ignored)} cannot be set with manufactured, which derives f and g")
    elif pick("target") is not None:
        raise UsageError("target needs manufactured: it chooses the problem that the manufactured solution solves")
    try:
        grid = Grid1p1.with_cells(cells_x, cells_t, lx=lx, t0=t0, t_final=t_final)
        if manufactured:
            config = ProblemConfig.from_manufactured(
                manufactured,
                alpha=alpha,
                beta=beta,
                epsilon=epsilon,
                scheme=scheme,
                target=pick("target", "spacetime"),
            )
        else:
            config = ProblemConfig.from_expressions(
                pick("f", "0"), pick("g", "0"), alpha=alpha, beta=beta, epsilon=epsilon, scheme=scheme
            )
    except ValueError as exc:
        raise UsageError(str(exc))
    return config, grid


def _out_of_memory(grid) -> UsageError:
    return UsageError(f"not enough memory for a grid of {grid.cells}")


def cmd_solve(args) -> int:
    from .solver import AssemblyError, assemble, l2_error, solve

    values = _read_section(args.config, "solve", _SOLVE_KEYS)
    config, grid = _build_problem(values, args)
    try:
        system = assemble(config, grid)
        field = solve(system)
        err = None if config.manufactured is None else l2_error(field, config.manufactured)
    except AssemblyError as exc:
        raise UsageError(str(exc))
    except MemoryError:
        raise _out_of_memory(grid)
    print(f"solved {grid.cells}, scheme {config.scheme.value}, eps={config.epsilon}")
    print(f"value range: [{field.values.min():.6e}, {field.values.max():.6e}]")
    if err is not None:
        print(f"space-time L2 error vs manufactured solution: {err:.6e}")
    return 0


def cmd_sweep(args) -> int:
    import csv

    from .solver import SweepFloorError, epsilon_sweep

    values = _read_section(args.config, "sweep", _SWEEP_KEYS)
    config, grid = _build_problem(values, args)
    eps_text = values.get("eps_list", "")
    if not eps_text.strip():
        raise UsageError("sweep needs a nonempty eps_list (comma separated)")
    try:
        eps_list = [float(v) for v in eps_text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad eps_list: {exc}")
    try:
        result = epsilon_sweep(config, grid, eps_list)
    except ValueError as exc:
        raise UsageError(str(exc))
    except MemoryError:
        raise _out_of_memory(grid)
    except SweepFloorError as exc:
        print(f"sweep aborted: {exc}")
        return CHECK_ERROR
    if args.out:  # before any output, so that a closed stdout cannot lose the file
        try:
            with open(args.out, "w", newline="") as handle:
                csv.writer(handle, lineterminator="\n").writerows(result.csv_rows())
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc.strerror or exc}")
    print(result.text_table())
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodge4d",
        description="space-time exterior-calculus verification and 1+1D solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-tables", help="check the star tables and all expansions")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("identities", help="randomized exact-identity suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("expand", help="print the component-wise expansion table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--eps", default="1")
    p.add_argument("--beta", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("boundary", help="print the reduced boundary conditions")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_boundary)

    for name, func in (("solve", cmd_solve), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--nx", type=int, default=None)
        p.add_argument("--nt", type=int, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--scheme", default=None)
        if name == "sweep":
            p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send what is still buffered to
        # devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CHECK_ERROR


def _run(argv) -> int:
    parser = build_parser()
    # argparse prints --help inside parse_args and drops a failed write, so
    # its output is printed here, where a closed stdout raises
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        sys.stdout.write(printed.getvalue())
        return int(exc.code or 0)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        try:
            args.seed = _default_seed()
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
