"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload pipeline-100k --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` there, and scratch files go to ``.perfbench_work/`` and are removed
at the end. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones from a traced pass. The line before the
result holds the run's detail (per-pass samples and workload-specific
figures) as JSON. The run exits 1 if an operation failed and 2 if the
package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "spilltest"
    if not (package / "__init__.py").is_file():
        print(f"error: no spilltest package at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spilltest
    import workloads

    if Path(spilltest.__file__).resolve().parent != package:
        print(f"error: imported spilltest from {spilltest.__file__}, not {package}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    result = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    detail = result.pop("detail")
    for failure in detail["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
