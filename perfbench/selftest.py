"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. One short run of the opinions workload whose first CLI output has one
   bit flipped after the child exits (``run.run_cli`` is wrapped in this
   process; the program is not touched) must exit 1, report
   ``correct: false`` and count that invocation's ops as failed.
2. The same run without the corruption must exit 0 with ``correct: true``.
3. The metric names and units in ``BENCHMARK.json`` are the ones the runs
   report.
4. ``run.py`` in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` must exit non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
from tracing import LAYER_UNITS
from workloads import WORKLOADS

ARGV = ["--workload", "opinions", "--seed", "7", "--seconds", "1", "--trace", "0"]


def expect(condition: bool, what) -> None:
    if not condition:
        raise SystemExit(f"self-test failed: {what}")


def run_once(corrupt: bool) -> tuple[int, dict]:
    original = run.run_cli
    calls = []

    def corrupting(*args):
        code, wall, rss, outputs = original(*args)
        calls.append(code)
        if corrupt and len(calls) == 1:
            kind, data = next(iter(outputs.items()))
            outputs[kind] = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
        return code, wall, rss, outputs

    run.run_cli = corrupting
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main(ARGV)
    finally:
        run.run_cli = original
    return code, json.loads(stdout.getvalue().splitlines()[-1])


def main() -> int:
    code, result = run_once(corrupt=True)
    expect(code == 1 and result["correct"] is False and result["failed"] == 1, (code, result))
    print(f"corrupted output: exit {code}, failed {result['failed']} of {result['attempted']}")

    code, result = run_once(corrupt=False)
    expect(code == 0 and result["correct"] is True and result["failed"] == 0, (code, result))
    print(f"clean output: exit {code}, failed 0 of {result['attempted']}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == reported, "end_to_end names")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS, "per_layer names")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workload names")
    print("BENCHMARK.json names the metrics and workloads the runs report")

    bare = run.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", *ARGV], cwd=bare,
                              capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout))
    print(f"without the program: exit {proc.returncode}, nothing on stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
