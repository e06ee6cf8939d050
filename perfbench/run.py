"""itersc benchmark: time-to-verdict on the consensus sweeps and the path demos.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 50 --trace 0

One closed loop in this single process and thread: verdict passes of the
workload run back to back for ``--seconds`` (whole passes only, at least
one), each pass checked against the pinned verdicts. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds one traced pass afterwards and
reports the per-layer metrics. The last stdout line is the result object;
the line before it records the run fingerprint and every pass.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 7


def reported(values: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists in ``section``, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure_setup(workload: str) -> list[dict]:
    """Fresh-interpreter set-up, once to fill the bytecode cache, then timed."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        samples.append({"wall_s": wall, **json.loads(proc.stdout.splitlines()[-1])})
    return samples


def run_pass(workload, rng: random.Random, wrap) -> dict:
    """One verdict pass; every call is checked, and a call that raises fails."""
    units = attempted = failed = 0
    problems = []
    gc.collect()  # start every pass from the same heap, not the previous pass's garbage
    t0 = time.perf_counter()
    for call in workload.calls(rng, wrap):
        attempted += 1
        try:
            report = call.run()
            found = call.check(report)
            units += call.units(report)
        except Exception as exc:  # a raising verdict is a failed check; keep measuring
            traceback.print_exc()
            found = [f"raised {exc!r}"]
        if found:
            failed += 1
            problems.append({"call": call.label, "problems": found})
    return {"seconds": time.perf_counter() - t0, "units": units,
            "attempted": attempted, "failed": failed, "problems": problems}


def source_fingerprint() -> dict:
    """Commit (when the tree is a git checkout) and a hash of the sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                lines = packed.read_text().splitlines() if packed.is_file() else []
                commit = next((ln.split()[0] for ln in lines if ln.endswith(" " + ref[5:])), None)
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "itersc" / "__init__.py").is_file():
        print(f"perfbench: no itersc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import itersc
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(itersc.__file__).resolve().parent != SRC / "itersc":
        print(f"perfbench: imported itersc from {itersc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    load_before = os.getloadavg()[0]

    setup = measure_setup(args.workload)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, rng, lambda proto: proto))
        longest = max(p["seconds"] for p in passes)
        if time.perf_counter() - start + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdict_s = statistics.median(p["seconds"] for p in passes)
    units_per_s = sum(p["units"] for p in passes) / sum(p["seconds"] for p in passes)

    traced = None
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(workload, rng, tracer.wrap_proto)
        layers = tracer.layer_metrics()
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
        layers["samples.build_s"] = statistics.median(s["build_s"] for s in setup)
        layers["trace_overhead"] = traced["seconds"] / verdict_s
        metrics = reported(layers, "per_layer")
    else:
        metrics = reported({"setup_s": statistics.median(s["wall_s"] for s in setup),
                            "verdict_s": verdict_s, "units_per_s": units_per_s,
                            "peak_rss_mb": peak_rss_mb}, "end_to_end")

    checked = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    info = {
        "workload": args.workload, "unit": workload.unit, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": {**source_fingerprint(), "python": platform.python_version(),
                        "cpu_count": os.cpu_count(), "loadavg_1m_before": load_before,
                        "loadavg_1m_after": os.getloadavg()[0]},
        "setup": setup, "passes": passes, "traced_pass": traced,
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        info["trace_file"] = str((OUT / f"trace-{args.workload}-seed{args.seed}.json")
                                 .relative_to(ROOT))
        (ROOT / info["trace_file"]).write_text(json.dumps(
            {**info, "layers": layers, "spans": tracer.spans()}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
