"""Output checks: in-process reference runs, golden digests and oracle spot checks.

Every check returns a list of mismatch descriptions; an empty list means
the outputs are correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 42  # the CLI's own default; golden digests are recorded for it


def dat_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".dat")


def collect_outputs(workload, out: Path, stdout: bytes) -> dict[str, bytes]:
    """The bytes an invocation produced: CSV and .dat, or stdout."""
    if workload.is_sweep:
        return {"csv": out.read_bytes(), "dat": dat_path(out).read_bytes()}
    return {"stdout": stdout}


def run_in_process(cli, workload, seed: int, out: Path) -> tuple[int, dict[str, bytes]]:
    """Run one invocation through ``cli.main`` at jobs=1; return (exit code, outputs)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(workload.argv(seed, str(out), 1))
    if code != 0:
        return code, {}
    return code, collect_outputs(workload, out, buffer.getvalue().encode("ascii"))


def compare(expected: dict[str, bytes], got: dict[str, bytes], what: str) -> list[str]:
    return [
        f"{what}: {kind} differs from the in-process reference"
        for kind in expected
        if got.get(kind) != expected[kind]
    ]


def check_golden(workload, seed: int, outputs: dict[str, bytes]) -> list[str]:
    """At the default seed, invocation 0 must reproduce the recorded digests."""
    if seed != DEFAULT_SEED:
        return []
    golden = json.loads(GOLDEN_PATH.read_text())[workload.name]
    return [
        f"golden: {kind} sha256 {hashlib.sha256(outputs.get(kind, b'')).hexdigest()} "
        f"!= recorded {digest}"
        for kind, digest in golden["sha256"].items()
        if hashlib.sha256(outputs.get(kind, b"")).hexdigest() != digest
    ]


def _pearson_oracle(rows: np.ndarray) -> np.ndarray:
    """Row correlation pair by pair; a constant row correlates 0 with everything."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    n = rows.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            norm = np.sqrt(centered[i] @ centered[i]) * np.sqrt(centered[j] @ centered[j])
            if norm > 0:
                out[i, j] = 1.0 if i == j else (centered[i] @ centered[j]) / norm
    return out


def spot_check(corrclass, workload, seed: int) -> list[str]:
    """Check one realization or trial of invocation ``seed`` against per-pair oracles.

    Sweeps: the realization 0 cell at the last grid value, whose match
    matrix is rebuilt from ``max_complementary_match`` and whose overlap
    matrix from ``overlap``.  Opinions: entries of ``predict_matrix``
    against ``predict``.
    """
    if not workload.is_sweep:
        return _spot_check_opinions(corrclass, workload, seed)
    value = workload.grid[-1]
    w, m, l = list(workload.cells())[-1]
    cell_seed = corrclass.derive_seed(seed, value, 0)
    report = corrclass.run_realization(w, m, l, cell_seed)
    family = corrclass.reference_family(w, corrclass.stream(cell_seed, "family")).seqs
    probes = corrclass.random_probes(m, l, corrclass.stream(cell_seed, "probes")).probes
    match = np.array(
        [[corrclass.max_complementary_match(s, p) for p in probes] for s in family], dtype=float
    )
    correlation = _pearson_oracle(match)
    omega = np.array([[corrclass.overlap(a, b, l) for b in family] for a in family])
    errors = []
    if not np.allclose(report.correlation, correlation, rtol=0.0, atol=1e-12):
        errors.append(f"spot check W={w} M={m} L={l}: correlation differs from the oracle")
    if not np.array_equal(report.overlap, omega):
        errors.append(f"spot check W={w} M={m} L={l}: overlap differs from the oracle")
    if not np.array_equal(report.error, np.abs(report.correlation - report.overlap)):
        errors.append(f"spot check W={w} M={m} L={l}: error is not |correlation - overlap|")
    return errors


def _spot_check_opinions(corrclass, workload, seed: int) -> list[str]:
    m, n, l = workload.opinions
    config = corrclass.ModelConfig(n_individuals=m, n_products=n, n_components=l, base_seed=seed)
    opinions = corrclass.opinion_matrix(corrclass.generate_population(config), config.normalization)
    correlations = corrclass.row_correlation(opinions)
    k = corrclass.choose_k(config)
    predicted = corrclass.predict_matrix(correlations, opinions, k)
    picks = np.random.default_rng(seed).integers(0, [m, n], size=(16, 2))
    errors = []
    for i, j in picks:
        single = corrclass.predict(correlations, opinions, int(i), int(j), k)
        if not np.isclose(predicted[i, j], single, rtol=1e-9, atol=1e-12):
            errors.append(f"spot check: predict_matrix[{i}, {j}] = {predicted[i, j]!r} != predict {single!r}")
    return errors
