"""What a CLI user pays before a verdict: import ``itersc.cli`` in a fresh
interpreter, then build the workload's automata.

Usage: python3 perfbench/setup_child.py WORKLOAD
Prints one JSON line with ``import_s`` and ``build_s``; run.py times the
whole process from the outside for ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path


def main(workload: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import itersc.cli  # noqa: F401

    t1 = time.perf_counter()
    from workloads import WORKLOADS

    t2 = time.perf_counter()
    WORKLOADS[workload].build()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1])
