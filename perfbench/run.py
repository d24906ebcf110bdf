"""hodge4d benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client in this process for S
seconds, checks every op's output against perfbench/golden.json, prints a
readable report and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics of a traced run and writes
the span file.  See perfbench/README.md.
"""

import os

# Cap BLAS and OpenMP threads before anything imports numpy.
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import namedtuple  # noqa: E402
from importlib import metadata  # noqa: E402

import clock  # noqa: E402
import workloads  # noqa: E402
from spans import EXACT_COUNTS, SPANNED, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

SETUP_PROBES = 3  # fresh processes per run; setup_s is their median
PROBE_TIMEOUT_S = 60
TAIL_SAMPLES = 10  # op_s_tail leaves at least this many samples above it
KERNEL_SHARE = 0.05  # calibration time between ops, as a share of the op before

# The metric names and units come from BENCHMARK.json.  Per-layer times are
# per-op self times (median over the traced ops); counts are those of the
# first traced op.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Per-layer metrics that sum several spans.
LAYER_SUMS = {
    "forms.codifferential_s": ("forms.codifferential_1a_s", "forms.codifferential_a1_s"),
    "vectorcalc.s": tuple(f"vectorcalc.{f}_s" for f in SPANNED["vectorcalc"]),
    "vectorcalc.calls": tuple(f"vectorcalc.{f}_calls" for f in SPANNED["vectorcalc"]),
}

# One timed op: wall seconds, reference seconds (see clock.py), work units.
Sample = namedtuple("Sample", "wall ref work")


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def tail(times: list) -> tuple:
    """(label, value): the highest percentile with TAIL_SAMPLES ops above it.

    With n ops that is the (n - TAIL_SAMPLES)-th smallest.  It is never
    reported below the median: with 2 * TAIL_SAMPLES ops or fewer no
    percentile above p50 has TAIL_SAMPLES ops beyond it, and the median is
    reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_SAMPLES  # ordered[rank - 1] has TAIL_SAMPLES ops above it
    if 2 * rank <= n:
        return f"p50: no higher percentile has {TAIL_SAMPLES} ops above it", statistics.median(ordered)
    return f"p{100.0 * rank / n:.1f}", ordered[rank - 1]


def environment(args, caps: dict) -> dict:
    env = {
        "git_commit": "unknown (not a git checkout)",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "thread_caps": caps,
        "workload_seed": args.seed,
        "limits": "process-local measurement only: time.perf_counter and ru_maxrss of this "
        "process; no control over CPU frequency, the file cache or other load on the machine",
    }
    for package in ("numpy", "scipy", "sympy"):
        try:
            env[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            env[package] = "not installed"
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=10
        )
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "hodge4d")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def probe_setup(workload: str, seed: int, workdir: str) -> list:
    """Set up the workload in SETUP_PROBES fresh processes, one after another."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{i}")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), probe_dir],
            env=env,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


class Loop:
    """Closed loop with one client: the next op starts when the last one is checked."""

    def __init__(self, workload, golden: dict):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self.last_wall = 0.0
        self.last_result = {}

    def op(self, index: int, tracer=None, label=None) -> tuple:
        """Run and check one op on input `index`; return (wall seconds, work units)."""
        wl = self.workload
        op_input = wl.op_input(index)
        wl.prepare(op_input)
        self.attempted += 1
        if tracer is not None:
            tracer.op = label
        start = time.perf_counter()
        try:
            output, error = wl.run(op_input), None
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        elapsed = self.last_wall = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        if error is not None:
            self.failures.append(f"op {index}: {type(error).__name__}: {error}")
            return elapsed, 0
        try:
            result = wl.result(op_input, output)
            self.last_result = result
            passed, detail, work = wl.check(op_input, result, self.golden)
        except Exception as exc:  # output that cannot be read is wrong output
            passed, detail, work = False, f"reading the output raised {type(exc).__name__}: {exc}", 0
        if not passed:
            self.failures.append(f"op {index}: {detail}")
        return elapsed, work

    def kernel(self) -> float:
        """Mean calibration-kernel time, over KERNEL_SHARE of the last op's time."""
        runs = max(1, round(KERNEL_SHARE * self.last_wall / clock.CAL_REFERENCE_S))
        return statistics.fmean(clock.calibrate() for _ in range(runs))

    def run_for(self, seconds: float, first: int, tracer=None) -> list:
        """Ops on inputs first, first+1, ... until `seconds` have passed (at least one op).

        Calibration kernels run between ops; each op is scaled by the mean of
        the kernel times just before and just after it.
        """
        samples = []
        start = time.perf_counter()
        index = first
        clock.calibrate()  # first call warms the kernel's code and allocator
        before = self.kernel()
        while not samples or time.perf_counter() - start < seconds:
            wall, work = self.op(index, tracer, label=len(samples))
            after = self.kernel()
            samples.append(Sample(wall, clock.scale(wall, before, after), work))
            before = after
            index += 1
        return samples


def end_to_end(samples: list, setup: list) -> tuple:
    """Metrics in reference seconds, and the same times as plain wall time."""
    times = [s.ref for s in samples]
    tail_label, tail_value = tail(times)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_value, "s"),
        "work_per_s": (sum(s.work for s in samples) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    walls = [s.wall for s in samples]
    wall = {
        "setup_wall_s": (statistics.median(p["setup_wall_s"] for p in setup), "s"),
        "op_wall_s_p50": (statistics.median(walls), "s"),
        "op_wall_s_tail": (tail(walls)[1], "s"),
    }
    return metrics, wall, tail_label


def per_layer(units: dict, tracer: Tracer, traced: list, untraced: list, setup: list) -> dict:
    """Self times in reference seconds (each op's scale applies to its spans)."""
    layers = tracer.op_layers()
    ops = [layers.get(i, {}) for i in range(len(traced))]
    metrics = {}
    for name, unit in units.items():
        values = [sum(op.get(k, 0.0) for k in LAYER_SUMS.get(name, (name,))) for op in ops]
        if unit == "s":
            value = statistics.median(v * s.ref / s.wall for v, s in zip(values, traced))
        else:
            value = values[0] if unit == "MB" else int(values[0])
        metrics[name] = (value, unit)
    metrics["cli.import_s"] = (statistics.median(p["import_s"] for p in setup), "s")
    metrics["cli.scipy_loaded"] = (max(p["scipy_loaded"] for p in setup), "bool")
    overhead = statistics.median(s.ref for s in traced) - statistics.median(s.ref for s in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def self_test(tracer: Tracer, args, digest: str) -> list:
    """Exact counts must repeat: against a replay of the same input in this
    run, and against an earlier traced run of the same code and seed."""
    layers = tracer.op_layers()
    first = {k: int(layers.get(0, {}).get(k, 0)) for k in EXACT_COUNTS}
    replay = {k: int(layers.get("replay", {}).get(k, 0)) for k in EXACT_COUNTS}
    problems = [
        f"{k}: {first[k]} on the first traced op, {replay[k]} on its replay"
        for k in EXACT_COUNTS
        if first[k] != replay[k]
    ]
    record = os.path.join(OUT, "counts", f"{args.workload}-seed{args.seed}-src{digest}.json")
    if os.path.exists(record):
        with open(record) as handle:
            earlier = json.load(handle)
        problems += [
            f"{k}: {earlier.get(k)} in an earlier traced run, {first[k]} now"
            for k in EXACT_COUNTS
            if earlier.get(k) != first[k]
        ]
    else:
        os.makedirs(os.path.dirname(record), exist_ok=True)
        with open(record, "w") as handle:
            json.dump(first, handle, indent=1)
    return problems


def print_metrics(title: str, metrics: dict, notes: dict):
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:16.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "hodge4d", "cli.py")):
        return fail(f"no hodge4d sources under {SRC}; run from a checkout of the repository")
    if not os.path.isfile(GOLDEN):
        return fail(f"missing {GOLDEN}; record it with perfbench/make_golden.py")
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    with open(BENCHMARK) as handle:
        layer_units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    digest = source_digest()
    workdir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    try:
        setup = probe_setup(args.workload, args.seed, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    sys.path.insert(0, SRC)
    workload = workloads.make(args.workload, args.seed, workdir)
    loop = Loop(workload, golden)
    loop.op(0)  # warm-up on input 0: lazy imports, sympy caches; checked, not timed

    if args.trace == 0:
        samples = loop.run_for(args.seconds, first=1)
        metrics, wall, tail_label = end_to_end(samples, setup)
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes",
            "op_s_tail": f"{tail_label} of {len(samples)} ops",
            "op_wall_s_tail": f"{tail_label} of {len(samples)} ops",
        }
        problems = []
    else:
        untraced = loop.run_for(args.seconds / 2, first=1)
        tracer = Tracer()
        tracer.install()
        try:
            samples = loop.run_for(args.seconds / 2, first=1, tracer=tracer)
            loop.op(1, tracer, label="replay")
        finally:
            tracer.uninstall()
        metrics = per_layer(layer_units, tracer, samples, untraced, setup)
        notes = {"trace.overhead_s": "traced op_s_p50 minus untraced op_s_p50"}
        problems = self_test(tracer, args, digest)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write(spans_path)

    failed = len(loop.failures)
    env = environment(args, THREAD_CAPS)
    if args.workload == "identities":
        env["identities_seeds"] = [workload.op_input(i) for i in range(len(samples) + 1)]
    if args.workload == "expand-dense":
        env["expand_dense_pool_entries"] = [workload.op_input(i) for i in range(len(samples) + 1)]
    env["source_digest"] = digest

    fixed = args.workload in ("sweep", "solve-square")
    print(f"hodge4d benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(
        "  inputs: fixed; the seed does not change them"
        if fixed
        else "  inputs: generated from the seed (it varies only identities and expand-dense)"
    )
    print(
        f"  closed loop, one client, one process; {len(samples)} timed ops after 1 warm-up op, "
        f"{loop.attempted} ops checked"
    )
    print(f"  environment: {json.dumps(env)}")
    if args.trace == 0:
        print("  times in reference seconds (wall time scaled by machine speed, see perfbench/clock.py);")
        print("  the *_wall_s lines are the plain wall times")
        shown = dict(metrics)
        shown.update(wall)
        shown[f"{workload.unit}_per_s"] = shown["work_per_s"]
        shown["fail_frac"] = (failed / loop.attempted, "ratio")
        if "l2_error" in loop.last_result:
            shown["l2_error"] = (loop.last_result["l2_error"], "1")
        print_metrics("end-to-end metrics:", shown, notes)
    else:
        print_metrics("per-layer metrics (self times per op, counts of the first traced op):", metrics, notes)
        print(f"  span file: {os.path.relpath(spans_path, ROOT)} ({len(tracer.spans)} spans)")
    for message in loop.failures[:20]:
        print(f"FAILED {message}")
    for message in problems:
        print(f"SELF-TEST FAILED {message}", file=sys.stderr)
        print(f"SELF-TEST FAILED {message}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "op_wall_seconds": [s.wall for s in samples],
        "op_ref_seconds": [s.ref for s in samples],
        "failures": loop.failures,
        "self_test_problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": loop.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
