"""Traced in-process runs: spans around the calls into each layer.

The program is not edited.  For the length of one traced invocation, each
public function in ``SPANS`` is replaced, at the module attribute its caller
resolves (``corrclass.analysis.match_matrix`` is what ``similarity_report``
calls), by a wrapper that records a span: name, start, end and the span that
was open when it was called.  Spans therefore nest as the real call tree,
``run_sweep -> run_realization -> similarity_report -> match_matrix``.  They
stay in memory and are summarized when the invocation ends.

A layer's self time is its spans' duration minus the duration of their
child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from checks import compare, run_in_process


def _match_ops(args, result):
    samples, probes = args[0], args[1]
    width, length = len(samples[0]), len(probes[0])
    return len(samples) * len(probes) * (width - length + 1) * length


def _windows(args, result):
    samples, k = args[0], args[1]
    return len(samples) * (len(samples[0]) - k + 1)


def _flops(args, result):
    rows, cols = np.shape(args[0])
    return 2 * rows * rows * cols


def _probe_shape(args, result):
    return (args[0], args[1])


def _degenerate_rows(args, result):
    return len(result.degenerate_rows)


# (module, attribute its caller resolves, span name, value recorded per call)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_sweep", "sweep.run_sweep", None),
    ("cli", "write_sweep_csv", "sweep.write_sweep_csv", None),
    ("cli", "write_plot_table", "sweep.write_plot_table", None),
    ("cli", "generate_population", "opinions.generate_population", None),
    ("cli", "opinion_matrix", "opinions.opinion_matrix", None),
    ("cli", "row_correlation", "opinions.row_correlation", _flops),
    ("cli", "predict_matrix", "opinions.predict_matrix", None),
    ("cli", "empirical_error", "opinions.empirical_error", None),
    ("sweep", "run_realization", "sweep.run_realization", None),
    ("sweep", "reference_family", "sequences.reference_family", None),
    ("sweep", "random_probes", "sequences.random_probes", _probe_shape),
    ("sweep", "similarity_report", "analysis.similarity_report", _degenerate_rows),
    ("analysis", "match_matrix", "sequences.match_matrix", _match_ops),
    ("analysis", "sample_correlation", "analysis.sample_correlation", None),
    ("analysis", "overlap_matrix", "analysis.overlap_matrix", _windows),
    ("analysis", "row_correlation", "opinions.row_correlation", _flops),
)
_OPINIONS_ONLY = {
    "opinions.generate_population",
    "opinions.opinion_matrix",
    "opinions.predict_matrix",
    "opinions.empirical_error",
}
_SWEEP_SPANS = {name for _, _, name, _ in SPANS} - _OPINIONS_ONLY
_OPINIONS_SPANS = _OPINIONS_ONLY | {"cli.main", "opinions.row_correlation"}


# every per-layer metric a traced run reports, with its unit; a layer that a
# workload never enters reports 0
LAYER_UNITS = {
    "sequences.match_matrix.self_ms": "ms",
    "sequences.match_matrix.calls": "count",
    "sequences.match_matrix.ops": "count",
    "sequences.match_matrix.gops_per_s": "Gop/s",
    "sequences.random_probes.self_ms": "ms",
    "rng.draw_ms": "ms",
    "sequences.codec_ms": "ms",
    "sequences.reference_family.self_ms": "ms",
    "analysis.overlap_matrix.self_ms": "ms",
    "analysis.overlap_matrix.windows": "count",
    "analysis.sample_correlation.self_ms": "ms",
    "analysis.similarity_report.self_ms": "ms",
    "analysis.degenerate_rows": "count",
    "analysis.useful_cell_ratio": "ratio",
    "sweep.cells": "count",
    "sweep.run_realization.p50_ms": "ms",
    "sweep.run_realization.p90_ms": "ms",
    "sweep.orchestration_ms": "ms",
    "sweep.pool.efficiency": "ratio",
    "sweep.pool.overhead_s": "s",
    "sweep.write_ms": "ms",
    "sweep.write_bytes": "bytes",
    "cli.self_ms": "ms",
    "cli.ops": "count",
    "cli.stdout_bytes": "bytes",
    "opinions.row_correlation.self_ms": "ms",
    "opinions.row_correlation.flops": "count",
    "opinions.row_correlation.gflops": "GFLOP/s",
    "opinions.predict_matrix.self_ms": "ms",
    "opinions.opinion_matrix.self_ms": "ms",
    "opinions.generate_population.self_ms": "ms",
    "opinions.empirical_error.self_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_ms": "ms",
    "trace.samples": "count",
}


class TraceError(RuntimeError):
    """A span the workload must produce never fired, or a count did not repeat."""


class Tracer:
    """In-memory span recorder for one invocation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, recorded value]
        self._open = []

    def wrap(self, name, function, record=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, None])
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index][1:3] = start, end
            if record is not None:
                self.spans[index][4] = record(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, attribute, name, record in SPANS:
                module = importlib.import_module(f"corrclass.{module_name}")
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original, record))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def summary(self):
        """Per span name: total self ms, total ms, call count, recorded values, durations."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_ms, total_ms, values, durations = (defaultdict(float), defaultdict(float),
                                                defaultdict(list), defaultdict(list))
        calls = Counter()
        for (name, start, end, _, value), child in zip(self.spans, child_s):
            self_ms[name] += (end - start - child) * 1e3
            total_ms[name] += (end - start) * 1e3
            durations[name].append((end - start) * 1e3)
            calls[name] += 1
            if value is not None:
                values[name].append(value)
        return self_ms, total_ms, calls, values, durations


def _draw_ms(corrclass, shapes) -> float:
    """Raw RNG draw of each probe batch's shape, without the string codec."""
    total = 0.0
    for count, length in shapes:
        generator = corrclass.stream(0, "probes")
        start = time.perf_counter()
        generator.integers(0, 4, size=(count, length))
        total += time.perf_counter() - start
    return total * 1e3


def _invocation_metrics(corrclass, workload, tracer, outputs) -> tuple[dict, list[float]]:
    self_ms, total_ms, calls, values, durations = tracer.summary()
    expected = _SWEEP_SPANS if workload.is_sweep else _OPINIONS_SPANS
    missing = sorted(expected - set(calls))
    if missing:
        raise TraceError(f"{workload.name}: spans never fired: {', '.join(missing)}")
    degenerate = values["analysis.similarity_report"]
    draw_ms = _draw_ms(corrclass, values["sequences.random_probes"])
    match_ms = self_ms["sequences.match_matrix"]
    match_ops = sum(values["sequences.match_matrix"])
    row_ms = self_ms["opinions.row_correlation"]
    flops = sum(values["opinions.row_correlation"])
    metrics = {
        "sequences.match_matrix.self_ms": match_ms,
        "sequences.match_matrix.calls": calls["sequences.match_matrix"],
        "sequences.match_matrix.ops": match_ops,
        "sequences.match_matrix.gops_per_s": match_ops / match_ms / 1e6 if match_ms else 0.0,
        "sequences.random_probes.self_ms": self_ms["sequences.random_probes"],
        "rng.draw_ms": draw_ms,
        "sequences.codec_ms": self_ms["sequences.random_probes"] - draw_ms,
        "sequences.reference_family.self_ms": self_ms["sequences.reference_family"],
        "analysis.overlap_matrix.self_ms": self_ms["analysis.overlap_matrix"],
        "analysis.overlap_matrix.windows": sum(values["analysis.overlap_matrix"]),
        "analysis.sample_correlation.self_ms": self_ms["analysis.sample_correlation"],
        "analysis.similarity_report.self_ms": self_ms["analysis.similarity_report"],
        "analysis.degenerate_rows": sum(degenerate),
        "analysis.useful_cell_ratio": (
            sum(1 for d in degenerate if d == 0) / len(degenerate) if degenerate else 0.0
        ),
        "sweep.cells": calls["sweep.run_realization"],
        "sweep.orchestration_ms": self_ms["sweep.run_sweep"],
        "sweep.write_ms": total_ms["sweep.write_sweep_csv"] + total_ms["sweep.write_plot_table"],
        "sweep.write_bytes": len(outputs.get("csv", b"")) + len(outputs.get("dat", b"")),
        "cli.self_ms": self_ms["cli.main"],
        "cli.ops": workload.ops,
        "cli.stdout_bytes": len(outputs.get("stdout", b"")),
        "opinions.row_correlation.self_ms": row_ms,
        "opinions.row_correlation.flops": flops,
        "opinions.row_correlation.gflops": flops / row_ms / 1e6 if row_ms else 0.0,
        "opinions.predict_matrix.self_ms": self_ms["opinions.predict_matrix"],
        "opinions.opinion_matrix.self_ms": self_ms["opinions.opinion_matrix"],
        "opinions.generate_population.self_ms": self_ms["opinions.generate_population"],
        "opinions.empirical_error.self_ms": self_ms["opinions.empirical_error"],
        "trace.uncovered_ms": self_ms["trace.root"],
    }
    for name, count in workload.expected_counts().items():
        if metrics[name] != count:
            raise TraceError(f"{workload.name}: {name} = {metrics[name]}, geometry gives {count}")
    return metrics, durations["sweep.run_realization"]


def _pool_metrics(corrclass, workload, seed, nproc, expected_csv) -> tuple[dict, list[str]]:
    """run_sweep at jobs=1 against jobs=nproc, untraced."""
    if not workload.is_sweep:
        return {"sweep.pool.efficiency": 0.0, "sweep.pool.overhead_s": 0.0}, []
    config = corrclass.SweepConfig(
        swept=workload.var,
        grid=workload.grid,
        realizations=workload.realizations,
        base_seed=seed,
        sample_length=workload.fixed.get("W"),
        n_probes=workload.fixed.get("M"),
        probe_length=workload.fixed.get("L"),
    )
    walls, errors = {}, []
    for jobs in (1, nproc):
        start = time.perf_counter()
        result = corrclass.run_sweep(config, jobs=jobs)
        walls[jobs] = time.perf_counter() - start
        text = io.StringIO()
        corrclass.write_sweep_csv(result, text)
        if text.getvalue().encode("ascii") != expected_csv:
            errors.append(f"run_sweep at jobs={jobs}: CSV differs from the reference")
    return {
        "sweep.pool.efficiency": walls[1] / (nproc * walls[nproc]),
        "sweep.pool.overhead_s": walls[nproc] - walls[1] / nproc,
    }, errors


def traced_run(corrclass, workload, seed: int, seconds: float, work, nproc: int, expected):
    """Alternate untraced and traced in-process invocations at jobs=1 until
    ``seconds`` have passed; return (metrics, invocations, failed, errors).

    Every output must equal ``expected``.  Times are medians over the traced
    invocations; counts must repeat exactly in every one of them.
    """
    cli = corrclass.cli
    untraced_s, traced_s, per_invocation, realization_ms = [], [], [], []
    failed, errors = 0, []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer()
        index = len(traced_s)
        # alternate which side runs first so drift does not bias the overhead
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if traced:
                with tracer.installed():
                    code, outputs = tracer.wrap("trace.root", run_in_process)(
                        cli, workload, seed, work / "traced.csv"
                    )
                traced_s.append(time.perf_counter() - start)
            else:
                code, outputs = run_in_process(cli, workload, seed, work / "untraced.csv")
                untraced_s.append(time.perf_counter() - start)
            side = "traced" if traced else "untraced"
            problems = compare(expected, outputs, f"{side} invocation {index}") if code == 0 else [
                f"{side} invocation {index} exited {code}"]
            failed += bool(problems)
            errors += problems
            if traced and not problems:
                metrics, durations = _invocation_metrics(corrclass, workload, tracer, outputs)
                per_invocation.append(metrics)
                realization_ms += durations
        if time.perf_counter() + untraced_s[-1] + traced_s[-1] > deadline:
            break
    count = len(traced_s) + len(untraced_s)
    if not per_invocation:
        return {}, count, failed, errors

    for name, unit in LAYER_UNITS.items():
        if unit in ("count", "bytes") and len({m.get(name) for m in per_invocation}) != 1:
            raise TraceError(f"{workload.name}: {name} differs between invocations")
    result = {name: statistics.median(m[name] for m in per_invocation) for name in per_invocation[0]}
    # every sweep invocation runs at least four cells; opinions runs none
    result["sweep.run_realization.p50_ms"] = (
        statistics.median(realization_ms) if realization_ms else 0.0
    )
    result["sweep.run_realization.p90_ms"] = (
        statistics.quantiles(realization_ms, n=10)[8] if realization_ms else 0.0
    )
    result["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    result["trace.samples"] = len(per_invocation)
    pool, pool_errors = _pool_metrics(corrclass, workload, seed, nproc, expected.get("csv"))
    result.update(pool)
    return result, count, failed + bool(pool_errors), errors + pool_errors
