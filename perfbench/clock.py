"""Machine-speed calibration for timings on a shared, noisy machine.

On a machine shared with other tenants, CPU speed drifts by tens of percent
over seconds to minutes, and wall times of identical ops drift with it.
``calibrate`` times a fixed pure-Python kernel (integer arithmetic, dict
updates, small int allocations: the interpreter work that dominates hodge4d).
It allocates no objects that the cyclic garbage collector tracks, so its time
does not depend on the size of the caller's heap, and it imports nothing, so
a set-up probe can run it before ``import hodge4d.cli``.

run.py runs the kernel between ops, for about 5% of the op time, and scales
each op's wall time by CAL_REFERENCE_S / (mean kernel time just before and
after the op): the op's time in reference seconds, i.e. on a machine where
the kernel takes CAL_REFERENCE_S.
"""

import time

# Fixed for good: changing it rescales every recorded baseline.
CAL_REFERENCE_S = 0.040
CAL_ITERATIONS = 100_000


def calibrate() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    table = {}
    items = []
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
        key = i & 1023
        table[key] = table.get(key, 0) + 1
        items.append(key + total)
    return time.perf_counter() - start


def scale(wall_s: float, cal_before: float, cal_after: float) -> float:
    """Wall time in reference seconds, given the kernel times around it."""
    return wall_s * CAL_REFERENCE_S / (0.5 * (cal_before + cal_after))
