"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

For every workload and seed it runs ``perfbench/run.py`` once, with the
``run_seconds`` of ``BENCHMARK.json``, and prints per metric the median,
the quartiles and the spread: the distance between the first and the
third quartile as a share of the median (``statistics.quantiles(n=4)``).
A spread above a third of the metric's bound is marked, as is any run that
failed.  ``--out`` writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs, ok = {}, True
    for name in names:
        runs[name] = []
        for seed in args.seeds:
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            errors = proc.stderr.strip().splitlines()
            result.update(seed=seed, run_s=took, exit=proc.returncode,
                          record=json.loads(errors[-1]) if errors and errors[-1].startswith("{") else {})
            runs[name].append(result)
            if proc.returncode or not result.get("correct"):
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        print(f"{name}: {len(runs[name])} runs, {max(r['run_s'] for r in runs[name]):.1f} s longest")
        for metric in runs[name][0].get("metrics", {}):
            values = [r["metrics"][metric]["value"] for r in runs[name] if "metrics" in r]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            flag = " <-- above bound/3" if bound and spread > bound / 3 else ""
            print(f"  {metric:40s} median {median:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
