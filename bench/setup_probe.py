"""Time one fresh process's set-up for a workload and print it as JSON.

Usage: python3 bench/setup_probe.py <workload>

The clock starts after interpreter start-up, then covers importing
`qbattery.cli` and building the workload's inputs, up to the first call into
a layer. `run.py` starts this several times per run and reports the median.
"""

import json
import sys
import time
from pathlib import Path

from workloads import build_inputs

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qbattery.cli

    t1 = time.perf_counter()
    build_inputs(sys.argv[1], qbattery.cli)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
