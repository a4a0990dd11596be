"""corrclass benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports the package from
``src/`` and installs nothing.  Every invocation of a run uses the
workload's input for seed N.  With ``--trace 0`` it launches
``python -m corrclass`` child processes back to back for ``S`` seconds and
reports the end-to-end metrics; with ``--trace 1`` it runs the same
invocation in process, with spans around each layer, and reports the
per-layer metrics.  Either way every output must equal, byte for byte, an
untraced in-process run at jobs=1; that reference is checked once per run
against the per-pair oracles and, at seed 42, against the digests in
``golden.json``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a record of the
environment and of any mismatch goes to stderr.  The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a child that imports the package and parses the workload's arguments, and runs no op
SETUP_PROGRAM = "import sys, corrclass.cli; corrclass.cli.build_parser().parse_args(sys.argv[1:])"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must lie in [0, 2**64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def spawn(argv, env, cwd, stdout_path) -> tuple[int, float, float]:
    """Run ``python argv`` to completion; return (exit code, wall s, peak RSS MB).

    The peak RSS comes from the child's ``wait4`` rusage, which covers the
    largest single process of its tree (pool workers included).
    """
    with open(stdout_path, "wb") as stdout:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *argv], env=env, cwd=cwd, stdout=stdout)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss / 1024


def environment(np, workload_name: str, seed: int, nproc: int, jobs: int) -> dict:
    """Machine, interpreter and BLAS facts a reader needs to compare runs."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas_threads, blas_config = None, None
    for library in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(library))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(handle, f"{prefix}_get_num_threads{suffix}"):
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                get_threads.restype = ctypes.c_int
                get_config = getattr(handle, f"{prefix}_get_config{suffix}")
                get_config.restype = ctypes.c_char_p
                blas_threads, blas_config = get_threads(), get_config().decode()
                break
    return {
        "workload": workload_name,
        "seed": seed,
        "nproc": nproc,
        "jobs": jobs,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def run_cli(workload, seed, env, work, jobs) -> tuple[int, float, float, dict[str, bytes]]:
    """One ``python -m corrclass`` invocation; (exit code, wall s, peak RSS MB, outputs)."""
    from checks import collect_outputs

    out, stdout_path = work / "cli.csv", work / "cli.out"
    argv = ["-m", "corrclass", *workload.argv(seed, str(out), jobs)]
    code, wall, rss = spawn(argv, env, work, stdout_path)
    outputs = collect_outputs(workload, out, stdout_path.read_bytes()) if code == 0 else {}
    return code, wall, rss, outputs


def timed_run(workload, args, env, work, jobs, expected):
    """CLI children back to back for --seconds, each followed by a setup child.

    Interleaving the setup children spreads them over the same stretch of
    time as the invocations they are subtracted from.
    """
    from checks import compare

    setup_argv = ["-c", SETUP_PROGRAM, *workload.argv(args.seed, str(work / "setup.csv"), jobs)]
    spawn(setup_argv, env, work, work / "setup.out")  # warm-up: bytecode caches, page cache
    walls, rss_mb, setups, failed, errors = [], [], [], 0, []
    deadline = time.perf_counter() + args.seconds
    while True:
        code, wall, rss, outputs = run_cli(workload, args.seed, env, work, jobs)
        problems = compare(expected, outputs, f"CLI invocation {len(walls)}") if code == 0 else [
            f"CLI invocation {len(walls)} exited {code}"]
        failed += bool(problems)
        errors += problems
        walls.append(wall)
        rss_mb.append(rss)
        code, setup_wall, _ = spawn(setup_argv, env, work, work / "setup.out")
        if code:
            raise RuntimeError(f"the setup child exited {code}")
        setups.append(setup_wall)
        if time.perf_counter() + wall + setup_wall > deadline:
            break
    wall_s, setup_s = statistics.median(walls), statistics.median(setups)
    metrics = {
        "wall_s": (wall_s, "s"),
        "ops_per_s": (workload.ops / (wall_s - setup_s), "ops/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
    }
    return metrics, len(walls), failed, errors


def traced(corrclass, workload, args, env, work, jobs, nproc, expected):
    """In-process traced run, then one CLI child at the workload's jobs."""
    from checks import compare
    from tracing import LAYER_UNITS, traced_run

    layer, count, failed, errors = traced_run(
        corrclass, workload, args.seed, args.seconds, work, nproc, expected
    )
    code, _, _, outputs = run_cli(workload, args.seed, env, work, jobs)
    problems = compare(expected, outputs, "CLI invocation") if code == 0 else [
        f"CLI invocation exited {code}"]
    metrics = {name: (value, LAYER_UNITS[name]) for name, value in layer.items()}
    return metrics, count + 1, failed + bool(problems), errors + problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "corrclass" / "__init__.py").is_file():
        print(f"error: {SRC / 'corrclass'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    jobs = nproc if workload.parallel else 1
    if workload.parallel:
        # workers inherit this: processes x BLAS threads stays within nproc
        os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import numpy as np

    import corrclass
    import corrclass.cli
    from checks import check_golden, run_in_process, spot_check

    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    old_path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old_path if old_path else ""),
               TMPDIR=str(work))
    try:
        # the reference every output must equal, itself checked against the
        # golden digests and the per-pair oracles
        code, expected = run_in_process(corrclass.cli, workload, args.seed, work / "ref.csv")
        program_errors = [f"in-process reference exited {code}"] if code else []
        program_errors += check_golden(workload, args.seed, expected)
        program_errors += spot_check(corrclass, workload, args.seed)
        if args.trace:
            metrics, count, failed, errors = traced(
                corrclass, workload, args, env, work, jobs, nproc, expected
            )
        else:
            metrics, count, failed, errors = timed_run(workload, args, env, work, jobs, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if program_errors:
        failed, errors = count, program_errors + errors

    attempted = count * workload.ops
    record = environment(np, workload.name, args.seed, nproc, jobs)
    record.update(invocations=count, failed_frac=failed / count, errors=errors)
    print(json.dumps(record), file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed * workload.ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
