"""Set-up probe: one fresh process from start to the first finished call.

Imports the package, builds one workload's scenarios and runs its first
call of each estimator (filling first-call caches such as the
``ss_music`` steering cache), then prints ``CLOCK_MONOTONIC`` marks as
JSON.  That clock is system-wide, so ``run.py``, which starts this
script several times and takes medians, counts interpreter start-up too.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import elaa_doa.harness  # noqa: F401  (the package imports every estimator)

    imported = _now()
    from workloads import WORKLOADS

    ops = WORKLOADS[workload](seed).warm_ops()
    built = _now()
    for op in ops:
        op.call()
    ready = _now()
    print(json.dumps({"imported": imported, "built": built, "ready": ready}))


if __name__ == "__main__":
    main()
