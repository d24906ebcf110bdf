"""Fresh-process set-up probe, started by run.py.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKDIR  (with src/ on PYTHONPATH)

Times ``import hodge4d.cli`` and the workload's input generation from a cold
interpreter and prints one JSON line: import_s, setup_s (both in reference
seconds, see clock.py), setup_wall_s and scipy_loaded.
"""

import json
import sys
import time

import clock


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    cal_before = clock.calibrate()
    start = time.perf_counter()
    import hodge4d.cli  # noqa: F401

    imported = time.perf_counter()
    scipy_loaded = "scipy" in sys.modules
    import workloads

    workloads.make(workload, seed, workdir)
    done = time.perf_counter()
    cal_after = clock.calibrate()
    print(
        json.dumps(
            {
                "import_s": clock.scale(imported - start, cal_before, cal_after),
                "setup_s": clock.scale(done - start, cal_before, cal_after),
                "setup_wall_s": done - start,
                "scipy_loaded": int(scipy_loaded),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
