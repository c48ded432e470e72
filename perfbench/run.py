"""vibrosense benchmark.

    python3 perfbench/run.py --workload detect-grid --seed 11 --seconds 30 --trace 0

Runs one workload from the repository checkout it sits in, prints a short
summary, writes a result file under perfbench/out/results/, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).
Exits 2 without a result when the vibrosense sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "vibrosense" / "__init__.py").is_file():
        print(f"error: vibrosense sources not found under {src}", file=sys.stderr)
        return 2
    # BLAS reads these once, when NumPy loads: pin before anything imports it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(here)]

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    doc = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.write_result(doc)
    named = ", ".join(f"{k}={v:.6g}" for k, v in doc["named"].items())
    print(f"{args.workload} seed={args.seed}: {doc['samples']['passes']} passes, {named}; "
          f"result file {path.relative_to(here.parent)}")
    if "dominant_layer" in doc:
        d = doc["dominant_layer"]
        print(f"dominant layer: {d['claim']}: share {d['share_of_pass']:.3f}, "
              f"{'holds' if d['holds'] else 'DOES NOT HOLD'}")
    for problem in doc["checks"]["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(harness.final_line(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
