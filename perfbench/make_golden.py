"""Record perfbench/golden.json: the expected output of every workload's ops.

Usage (from the repository root): python3 perfbench/make_golden.py

Run it only at a commit whose outputs are trusted; run.py compares every op
against this file.  The expand-dense pool takes about two minutes.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        sweep = workloads.make("sweep", 0, workdir)
        golden["sweep"] = {"csv": sweep.result(None, sweep.run(None))["csv"], "rtol": workloads.SWEEP_RTOL}

        square = workloads.make("solve-square", 0, workdir)
        result = square.result(None, square.run(None))
        golden["solve-square"] = {k: result[k] for k in ("min", "max", "l2_error")}
        golden["solve-square"]["rtol"] = workloads.SOLVE_RTOL

        identities = workloads.make("identities", 0, workdir)
        result = identities.result(0, identities.run(0))
        golden["identities"] = {"total": result["total"], "digest": result["digest"]}

        dense = workloads.make("expand-dense", 0, workdir)
        digests = []
        for index in range(workloads.POOL_SIZE):
            dense.prepare(index)
            result = dense.result(index, dense.run(index))
            if not result["matches"]:
                raise SystemExit(f"pool entry {index}: the expansion does not match its oracle")
            digests.append(result["digest"])
        golden["expand-dense"] = {"pool_size": workloads.POOL_SIZE, "digests": digests}

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    golden["recorded_at"] = head.stdout.strip() or "unknown"
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
