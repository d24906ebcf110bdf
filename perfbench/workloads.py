"""The four benchmark workloads: input generation, one op, and its output check.

Every input comes from this file's own generators.  ``sweep`` and
``solve-square`` have fixed inputs; the workload seed varies only the per-op
inputs of ``identities`` (the ``--seed`` passed to each CLI call) and
``expand-dense`` (which generated material and fields each op uses).

hodge4d is imported lazily, by ``make``, so that a set-up probe can time
``import hodge4d.cli`` on its own.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import re
from fractions import Fraction

# Fixed inputs.  SWEEP is the README sweep configuration.
SWEEP = {
    "nx": "64",
    "nt": "1024",
    "alpha": "1.0",
    "beta": "0.5",
    "scheme": "centered",
    "manufactured": "sin(pi*x)*(1+t**2)",
    "target": "limit",
    "eps_list": "0.1,0.05,0.025,0.0125",
}
SOLVE_SQUARE = {
    "nx": "384",
    "nt": "384",
    "alpha": "1.0",
    "beta": "0.5",
    "epsilon": "0.05",
    "scheme": "exp-fitted",
    "manufactured": "sin(pi*x)*(1+t**2)",
    "target": "spacetime",
}
IDENTITIES_COUNT = 100

# expand-dense inputs are drawn from a pool of generated materials; the pool
# is fixed so that every entry has a golden digest recorded at the seed commit.
POOL_SIZE = 256
FIELD_DEGREE = 10
FIELD_TERMS = 40
BETA_DEGREE = 2
BETA_TERMS = 6

# Relative tolerances for solver numbers (exact-layer output must match literally).
SWEEP_RTOL = 1e-8
SOLVE_RTOL = 1e-5  # the CLI prints 7 significant digits

# The sequence of per-op inputs is generated up front, then cycled.
INPUT_SEQUENCE = 4096


def _write_config(workdir: str, section: str, values: dict) -> str:
    path = os.path.join(workdir, f"{section}.cfg")
    with open(path, "w") as handle:
        handle.write(f"[{section}]\n")
        for key, value in values.items():
            handle.write(f"{key} = {value}\n")
    return path


def run_cli(argv: list) -> tuple:
    """Call ``hodge4d.cli.main`` in process; return (exit code, captured output)."""
    import hodge4d.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = hodge4d.cli.main(argv)
    return code, buf.getvalue()


def _close(value: float, golden: float, rtol: float, scale: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - golden) <= rtol * max(abs(golden), scale)


class Sweep:
    """``hodge4d sweep`` on the README configuration, with ``--out`` CSV."""

    name = "sweep"
    unit = "cells"
    cells = 64 * 1024 * 4  # cells_x * cells_t per perturbed solve, four eps values

    def __init__(self, seed: int, workdir: str):
        self.config = _write_config(workdir, "sweep", SWEEP)
        self.out = os.path.join(workdir, "sweep.csv")

    def op_input(self, index: int):
        return None

    def prepare(self, op_input):
        if os.path.exists(self.out):
            os.remove(self.out)

    def run(self, op_input):
        return run_cli(["sweep", "--config", self.config, "--out", self.out])

    def result(self, op_input, output) -> dict:
        code, text = output
        rows = []
        if code == 0 and os.path.exists(self.out):
            with open(self.out, newline="") as handle:
                rows = list(csv.reader(handle))
        return {"code": code, "csv": rows}

    def check(self, op_input, result: dict, golden: dict) -> tuple:
        if result["code"] != 0:
            return False, f"exit code {result['code']}", 0
        want = golden["sweep"]["csv"]
        got = result["csv"]
        if len(got) != len(want) or got[0] != want[0]:
            return False, "CSV shape or header differs", 0
        for row_got, row_want in zip(got[1:], want[1:]):
            if len(row_got) != len(row_want):
                return False, f"CSV row {row_got} has the wrong width", 0
            for cell_got, cell_want in zip(row_got, row_want):
                if cell_want in ("", "fit") or cell_got in ("", "fit"):
                    if cell_got != cell_want:
                        return False, f"CSV cell {cell_got!r} != {cell_want!r}", 0
                elif not _close(float(cell_got), float(cell_want), SWEEP_RTOL):
                    return False, f"CSV value {cell_got} != {cell_want} (rtol {SWEEP_RTOL})", 0
        return True, "", self.cells


_SOLVE_RANGE = re.compile(r"value range: \[(\S+), (\S+)\]")
_SOLVE_ERROR = re.compile(r"L2 error vs manufactured solution: (\S+)")


class SolveSquare:
    """``hodge4d solve`` on one 384x384-cell exponentially fitted problem."""

    name = "solve-square"
    unit = "cells"
    cells = 384 * 384

    def __init__(self, seed: int, workdir: str):
        self.config = _write_config(workdir, "solve", SOLVE_SQUARE)

    def op_input(self, index: int):
        return None

    def prepare(self, op_input):
        pass

    def run(self, op_input):
        return run_cli(["solve", "--config", self.config])

    def result(self, op_input, output) -> dict:
        code, text = output
        out = {"code": code}
        found = _SOLVE_RANGE.search(text)
        if found:
            out["min"], out["max"] = float(found.group(1)), float(found.group(2))
        found = _SOLVE_ERROR.search(text)
        if found:
            out["l2_error"] = float(found.group(1))
        return out

    def check(self, op_input, result: dict, golden: dict) -> tuple:
        if result["code"] != 0:
            return False, f"exit code {result['code']}", 0
        want = golden["solve-square"]
        for key in ("min", "max", "l2_error"):
            if key not in result:
                return False, f"no {key} in the output", 0
        # The range is compared on the scale of the solution (about 1); its
        # minimum is round-off around zero.
        if not (
            _close(result["min"], want["min"], SOLVE_RTOL, scale=1.0)
            and _close(result["max"], want["max"], SOLVE_RTOL, scale=1.0)
            and _close(result["l2_error"], want["l2_error"], SOLVE_RTOL)
        ):
            return False, f"{result} != golden {want} (rtol {SOLVE_RTOL})", 0
        return True, "", self.cells


_TOTAL_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")
_MATERIAL = re.compile(r"\[alpha=[^,\]]+,eps=[^\]]+\]")


def identities_digest(text: str) -> str:
    """Digest of the identities report with the per-seed material values masked."""
    return hashlib.sha256(_MATERIAL.sub("[alpha=*,eps=*]", text).encode()).hexdigest()


class Identities:
    """``hodge4d identities --count 100 --seed s_i``; s_i comes from the workload seed."""

    name = "identities"
    unit = "checks"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"identities/{seed}")
        self.seeds = [rng.randrange(2**31) for _ in range(INPUT_SEQUENCE)]

    def op_input(self, index: int) -> int:
        return self.seeds[index % len(self.seeds)]

    def prepare(self, op_input):
        pass

    def run(self, op_input):
        return run_cli(["identities", "--count", str(IDENTITIES_COUNT), "--seed", str(op_input)])

    def result(self, op_input, output) -> dict:
        code, text = output
        lines = text.splitlines()
        total = _TOTAL_LINE.match(lines[-1]) if lines else None
        return {
            "code": code,
            "total": lines[-1] if total else None,
            "checks": int(total.group(2)) if total else 0,
            "digest": identities_digest(text),
        }

    def check(self, op_input, result: dict, golden: dict) -> tuple:
        want = golden["identities"]
        if result["code"] != 0:
            return False, f"exit code {result['code']} (seed {op_input})", 0
        if result["total"] != want["total"]:
            return False, f"{result['total']!r} != {want['total']!r} (seed {op_input})", 0
        if result["digest"] != want["digest"]:
            return False, f"report text differs from the golden (seed {op_input})", 0
        return True, "", result["checks"]


def _fraction(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def _poly(rng: random.Random, degree: int, terms: int):
    from hodge4d.fields import PolyField

    out = {}
    while len(out) < terms:
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(4)] += 1
        out[tuple(exps)] = _fraction(rng)
    return PolyField(out)


def pool_entry(index: int) -> tuple:
    """Material, solution fields per degree and their t = 0 traces, for one pool index."""
    from hodge4d.forms import MaterialParams

    rng = random.Random(f"expand-dense/pool/{index}")
    material = MaterialParams(
        alpha=abs(_fraction(rng)),
        epsilon=abs(_fraction(rng)),
        beta=tuple(_poly(rng, BETA_DEGREE, BETA_TERMS) for _ in range(3)),
    )
    fields = {
        0: _poly(rng, FIELD_DEGREE, FIELD_TERMS),
        1: tuple(_poly(rng, FIELD_DEGREE, FIELD_TERMS) for _ in range(3)),
        2: tuple(_poly(rng, FIELD_DEGREE, FIELD_TERMS) for _ in range(3)),
        3: _poly(rng, FIELD_DEGREE, FIELD_TERMS),
        4: None,
    }
    initial = {
        k: fields[k].substitute("t", 0) if k in (0, 3) else tuple(c.substitute("t", 0) for c in fields[k])
        for k in range(4)
    }
    return material, fields, initial


class ExpandDense:
    """``expand_componentwise`` for k = 0..4 and ``boundary_report`` for k = 0..3."""

    name = "expand-dense"
    unit = "checks"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"expand-dense/{seed}")
        self.order = [rng.randrange(POOL_SIZE) for _ in range(INPUT_SEQUENCE)]
        self.entry = (None, None)  # (pool index, entry) of the op about to run

    def op_input(self, index: int) -> int:
        return self.order[index % len(self.order)]

    def prepare(self, op_input):
        if self.entry[0] != op_input:
            self.entry = (op_input, pool_entry(op_input))

    def run(self, op_input):
        from hodge4d import boundary, convdiff

        material, fields, initial = self.entry[1]
        expansions = [convdiff.expand_componentwise(k, fields[k], material) for k in range(5)]
        reports = [boundary.boundary_report(k, fields[k], initial[k], material) for k in range(4)]
        return expansions, reports

    def result(self, op_input, output) -> dict:
        expansions, reports = output
        lines = []
        cells = 0
        for report in expansions:
            for row in report.rows:
                for col in ("delta_d", "delta_wedge", "d_delta", "total"):
                    lines.append(f"{report.degree}|{row.label}|{col}|{row.actual[col]}|{row.expected[col]}")
                    cells += 1
        for report in reports:
            for name in ("spatial", "initial", "terminal"):
                cond = getattr(report, name)
                lines.append(f"b{report.degree}|{name}|{cond.applicable}|{cond.value}|{cond.satisfied}")
                cells += 1
        return {
            "matches": all(report.matches for report in expansions),
            "checks": cells,
            "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        }

    def check(self, op_input, result: dict, golden: dict) -> tuple:
        if not result["matches"]:
            return False, f"expansion mismatch on pool entry {op_input}", 0
        if result["digest"] != golden["expand-dense"]["digests"][op_input]:
            return False, f"output of pool entry {op_input} differs from the golden", 0
        return True, "", result["checks"]


WORKLOADS = {cls.name: cls for cls in (Sweep, SolveSquare, Identities, ExpandDense)}


def make(name: str, seed: int, workdir: str):
    """Import the program and generate the workload's inputs (the timed set-up)."""
    import hodge4d.cli  # noqa: F401  (the import is part of set-up)

    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
