"""Run every workload several times and print each metric with its spread.

    python3 perfbench/report.py --runs 10 --traced-runs 2 --out perfbench/BASELINE.json

Each run is a fresh ``run.py`` process with its own seed (``--first-seed``,
then one more per run). For every workload the report prints the metrics
that apply to it, each with its unit, sample count, median, and the highest
percentile that has at least ten samples beyond it, plus the spread of the
end-to-end metrics across runs: the distance between the first and third
quartiles as a share of the median. Traced runs add the median of every
per-layer metric. ``--out`` also records the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Workload-specific figures from each run's detail line, with their units.
DETAIL_UNITS = {
    "setup_s": "s", "result_s": "s", "design_s": "s", "analyze_s": "s", "rho_c": "frac",
    "reps_per_s": "1/s", "peak_rss_mb": "MB", "ops_failed_frac": "frac",
    "setup_wall_s": "s", "result_wall_s": "s",
}
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def environment() -> dict:
    import numpy
    import scipy

    def cache(level: int) -> str | None:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and (index / "type").read_text().strip() != "Instruction":
                return (index / "size").read_text().strip()
        return None

    model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "l2_per_core": cache(2), "l3": cache(3),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {done.returncode})\n{done.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile of the grid with at least ten samples beyond it."""
    for p in TAIL_GRID:
        if len(values) * (1 - p / 100) >= 10:
            ordered = sorted(values)
            return p, ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]
    return None


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(samples: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for name, values in samples.items():
        entry = {"unit": DETAIL_UNITS[name], "n": len(values), "median": statistics.median(values)}
        t = tail(values)
        if t is not None:
            entry[f"p{t[0]:g}"] = t[1]
        out[name] = entry
    return out


def report_workload(workload: str, seeds: list[int], traced_seeds: list[int], seconds: int) -> dict:
    samples: dict[str, list[float]] = {}
    end_to_end: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in seeds:
        detail, result = one_run(workload, seed, seconds, 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            end_to_end.setdefault(name, []).append(metric["value"])
        samples.setdefault("peak_rss_mb", []).append(result["metrics"]["peak_rss_mb"]["value"])
        for name in DETAIL_UNITS:
            value = detail.get(name)
            if isinstance(value, list):
                samples.setdefault(name, []).extend(value)
            elif value is not None and name != "ops_failed_frac":
                samples.setdefault(name, []).append(value)
    out = {
        "seeds": seeds,
        "ops_failed_frac": {"unit": "frac", "n": attempted, "value": failed / attempted},
        "metrics": summarize(samples),
        "end_to_end": {name: {"median": statistics.median(v), "spread": spread(v), "values": v}
                       for name, v in end_to_end.items()},
    }
    layer: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in traced_seeds:
        _, result = one_run(workload, seed, seconds, 1)
        for name, metric in result["metrics"].items():
            layer.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    if layer:
        out["per_layer"] = {"seeds": traced_seeds,
                            "median": {k: statistics.median(v) for k, v in layer.items()}, "units": units}
    return out


def print_workload(workload: str, data: dict) -> None:
    print(f"\n== {workload} (seeds {data['seeds'][0]}..{data['seeds'][-1]})")
    for name, m in data["metrics"].items():
        tail_text = next((f"{k}={v:.6g}" for k, v in m.items() if k.startswith("p")), "tail: fewer than 20 samples")
        print(f"  {name:<16} {m['unit']:<5} n={m['n']:<4} median={m['median']:.6g}  {tail_text}")
    f = data["ops_failed_frac"]
    print(f"  {'ops_failed_frac':<16} {'frac':<5} n={f['n']:<4} value={f['value']:g}")
    for name, m in data["end_to_end"].items():
        print(f"  spread {name:<12} {m['spread']:.4f} of median {m['median']:.6g}")
    for name, value in data.get("per_layer", {}).get("median", {}).items():
        if value:
            print(f"  layer {name:<46} {value:.6g} {data['per_layer']['units'][name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", help="write the figures and the environment to this JSON file")
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = report_workload(workload, seeds, seeds[: args.traced_runs], args.seconds)
        print_workload(workload, results[workload])
    if args.out:
        payload = {"environment": environment(), "run_seconds": args.seconds, "workloads": results}
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
