"""Monte Carlo sweeps of the probe-classification error.

A sweep varies one of (sample length W, probe count M, probe length L)
over a grid, holds the other two fixed, and for each grid value runs R
independent realizations: a fresh reference family plus a fresh probe set,
reporting the correlation-vs-overlap gap for a handful of tracked sequence
pairs.  Cells run in (grid point, realization) order, and each cell's seed
depends only on its place in the grid, so results do not depend on how
many worker processes ran them.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .analysis import SimilarityReport, similarity_report
from .fasta import _write_lines
from .rng import _check_seed, derive_seed, stream
from .sequences import FAMILY_SIZE, random_probes, reference_family

__all__ = [
    "DEFAULT_TRACKED_PAIRS",
    "FIGURE_PRESETS",
    "SweepConfig",
    "SweepResult",
    "run_realization",
    "run_sweep",
    "figure_preset",
    "write_sweep_csv",
    "write_plot_table",
]

# the sweep variables, in (W, M, L) order, and the SweepConfig field of each
_FIXED_FIELD = {"W": "sample_length", "M": "n_probes", "L": "probe_length"}
SWEEP_VARIABLES = tuple(_FIXED_FIELD)
DEFAULT_TRACKED_PAIRS = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7))
CSV_HEADER = "sweep_var,value,pair,mean_error,std_error,realizations"

# grids and fixed values of the three stock experiments
FIGURE_PRESETS = {
    1: {
        "swept": "W",
        "grid": (50, 100, 150, 200, 250, 300),
        "probe_length": 30,
        "n_probes": 500,
        "realizations": 40,
    },
    2: {
        "swept": "M",
        "grid": (100, 250, 500, 750, 1000),
        "probe_length": 20,
        "sample_length": 150,
        "realizations": 40,
    },
    3: {
        "swept": "L",
        "grid": (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
        "sample_length": 200,
        "n_probes": 1000,
        "realizations": 100,
    },
}


def format_pair(pair: tuple[int, int]) -> str:
    return f"{pair[0]}-{pair[1]}"


def _as_int(field: str, value) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: which variable moves, its grid, and everything held fixed.

    The field that ``_FIXED_FIELD`` gives for ``swept`` must be left None;
    the other two must be set.  Every
    grid point is checked up front so a sweep never dies halfway through.
    """

    swept: str
    grid: tuple[int, ...]
    realizations: int
    base_seed: int = 0
    sample_length: int | None = None
    n_probes: int | None = None
    probe_length: int | None = None
    pairs: tuple[tuple[int, int], ...] = DEFAULT_TRACKED_PAIRS

    def __post_init__(self) -> None:
        if self.swept not in SWEEP_VARIABLES:
            raise ValueError(f"swept must be one of {SWEEP_VARIABLES}, got {self.swept!r}")
        object.__setattr__(self, "grid", tuple(_as_int("grid", v) for v in self.grid))
        pairs = tuple((_as_int("pairs", i), _as_int("pairs", j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "realizations", _as_int("realizations", self.realizations))
        object.__setattr__(self, "base_seed", _check_seed(self.base_seed))
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {self.grid}")
        if self.realizations < 1:
            raise ValueError(f"realizations must be positive, got {self.realizations}")
        if not self.pairs:
            raise ValueError("pairs must be nonempty")
        for i, j in self.pairs:
            if not (0 <= i < FAMILY_SIZE and 0 <= j < FAMILY_SIZE):
                raise ValueError(f"pair indices must lie in 0..{FAMILY_SIZE - 1}, got ({i}, {j})")
            if i == j:
                raise ValueError(f"pair indices must differ, got ({i}, {j})")
        # the error matrix is symmetric, so (j, i) is the same pair as (i, j)
        if len({frozenset(pair) for pair in self.pairs}) < len(self.pairs):
            raise ValueError(f"pairs must be distinct, got {self.pairs}")

        swept_field = _FIXED_FIELD[self.swept]
        if getattr(self, swept_field) is not None:
            raise ValueError(f"{swept_field} ({self.swept}) is swept and must not be set")
        for name in _FIXED_FIELD.values():
            if name == swept_field:
                continue
            if getattr(self, name) is None:
                raise ValueError(f"{name} must be set when sweeping {self.swept}")
            value = _as_int(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be a positive int, got {value}")
            object.__setattr__(self, name, value)

        for value in self.grid:
            w, m, length = self.params_at(value)
            if length < 1:
                raise ValueError(f"probe length must be positive, got {length} at grid value {value}")
            if m < 2:
                raise ValueError(f"need at least 2 probes, got {m} at grid value {value}")
            if w < 6:
                raise ValueError(f"sample length must be at least 6, got {w} at grid value {value}")
            if w < length:
                raise ValueError(
                    f"sample length {w} is shorter than probe length {length} at grid value {value}"
                )

    def params_at(self, value: int) -> tuple[int, int, int]:
        """(sample_length, n_probes, probe_length) with the swept slot filled."""
        return tuple(
            int(value) if var == self.swept else getattr(self, name)
            for var, name in _FIXED_FIELD.items()
        )


@dataclass(frozen=True)
class SweepResult:
    """The per-realization errors of a sweep, the one source of its aggregates.

    ``errors`` has shape (len(grid), realizations, len(pairs)); ``series``
    and the written rows take their means and deviations from it, computed
    once on first use.
    """

    config: SweepConfig
    errors: np.ndarray = field(repr=False)

    @cached_property
    def _statistics(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and sample standard deviation over realizations (axis 1); 0 for one."""
        errors = self.errors
        means = errors.mean(axis=1)
        stds = errors.std(axis=1, ddof=1) if errors.shape[1] > 1 else np.zeros_like(means)
        # series hands out views of these, which every later write reads
        means.flags.writeable = stds.flags.writeable = False
        return means, stds

    def series(self, pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(grid values, mean errors, std errors) for one tracked pair."""
        pair = (_as_int("pair", pair[0]), _as_int("pair", pair[1]))
        pairs = self.config.pairs
        # the error matrix is symmetric, so (j, i) names the column of (i, j)
        col = next((col for col, tracked in enumerate(pairs) if set(tracked) == set(pair)), None)
        if col is None:
            raise ValueError(f"pair {pair} was not tracked; tracked: {pairs}")
        means, stds = self._statistics
        return np.asarray(self.config.grid, dtype=float), means[:, col], stds[:, col]


def run_realization(
    sample_length: int, n_probes: int, probe_length: int, seed: int
) -> SimilarityReport:
    """One independent draw: fresh family, fresh probes, full report.

    The family and the probes come from separate streams of ``seed``, so
    either can be regenerated on its own.
    """
    _check_seed(seed)
    family = reference_family(sample_length, stream(seed, "family"))
    probes = random_probes(n_probes, probe_length, stream(seed, "probes"))
    return similarity_report(family, probes)


# names of an OpenBLAS thread function: plain, 64-bit-integer builds, and
# the scipy-openblas builds that numpy wheels load
_OPENBLAS_NAMES = ("openblas_{}", "openblas_{}64_", "scipy_openblas_{}", "scipy_openblas_{}64_")


@cache
def _openblas_threads():
    """Typed ``(get_num_threads, set_num_threads)`` of numpy's OpenBLAS, or None.

    A lookup on the handle of numpy's compiled core module, whose ``matmul``
    the kernel calls, searches only that module and the libraries it links,
    so no other OpenBLAS copy in the process is found.  Forked workers
    inherit the result.
    """
    core = np.core if np.__version__.startswith("1.") else np._core
    library = ctypes.CDLL(core._multiarray_umath.__file__)
    for symbol in _OPENBLAS_NAMES:
        get_threads = getattr(library, symbol.format("get_num_threads"), None)
        set_threads = getattr(library, symbol.format("set_num_threads"), None)
        if get_threads is not None and set_threads is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get_threads, set_threads
    return None


def _stride_errors(config: SweepConfig, first: int, step: int, out=None) -> np.ndarray:
    """Errors of cells ``first``, ``first + step``, ... in (grid point,
    realization) order, into ``out`` or a new array; module-level for pickling.

    The stride runs on one OpenBLAS thread, in a pool worker or in process:
    its small products run faster on one, and ``jobs`` workers do not each
    start a BLAS thread per CPU.  The count it found is restored after;
    without OpenBLAS, getting and setting it do nothing.
    """
    indices = range(first, len(config.grid) * config.realizations, step)
    out = np.empty((len(indices), len(config.pairs))) if out is None else out
    rows, columns = zip(*config.pairs)
    get_threads, set_threads = _openblas_threads() or (lambda: 0, lambda count: None)
    before = get_threads()
    set_threads(1)
    try:
        for row, index in zip(out, indices):
            grid_index, realization = divmod(index, config.realizations)
            value = config.grid[grid_index]
            seed = derive_seed(config.base_seed, value, realization)
            row[:] = run_realization(*config.params_at(value), seed).error[rows, columns]
    finally:
        set_threads(before)
    return out


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run every (grid point, realization) cell and aggregate.

    The seed of each cell depends only on (base_seed, grid value,
    realization index), and every cell's errors land in its own row, so the
    output is identical for any ``jobs``.  ``jobs`` above 1 starts at most
    ``os.cpu_count()`` worker processes, which run strides of cells, at
    most four a worker, so the parent holds little more than the result.
    The result is allocated first, so a size that cannot be held fails
    before any cell runs.
    """
    jobs = _as_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    errors = np.empty((len(config.grid), config.realizations, len(config.pairs)))
    rows = errors.reshape(-1, len(config.pairs))
    if jobs == 1:
        _stride_errors(config, 0, 1, out=rows)
        return SweepResult(config=config, errors=errors)
    # real pool even on one CPU so schedule independence is exercised
    workers = min(jobs, len(rows), os.cpu_count() or 1)
    strides = min(len(rows), 4 * workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = pool.map(partial(_stride_errors, config, step=strides), range(strides))
        for first, stride in enumerate(results):
            rows[first::strides] = stride
    return SweepResult(config=config, errors=errors)


def figure_preset(which: int, base_seed: int = 42) -> SweepConfig:
    """Stock configuration of experiment 1, 2, or 3."""
    if which not in FIGURE_PRESETS:
        raise ValueError(f"figure must be one of {sorted(FIGURE_PRESETS)}, got {which}")
    return SweepConfig(base_seed=base_seed, **FIGURE_PRESETS[which])


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x}")
    return format(x, ".6g")


def _row_fields(result: SweepResult):
    """Each row's formatted fields, in (grid value, pair) order."""
    config = result.config
    means, stds = result._statistics
    columns = sorted(range(len(config.pairs)), key=config.pairs.__getitem__)
    for grid_index, value in enumerate(config.grid):
        for col in columns:
            yield (
                config.swept,
                str(value),
                format_pair(config.pairs[col]),
                _format_float(means[grid_index, col]),
                _format_float(stds[grid_index, col]),
                str(config.realizations),
            )


def write_sweep_csv(result: SweepResult, target) -> None:
    """Aggregated rows as CSV, floats at 6 significant digits."""
    lines = [CSV_HEADER]
    lines.extend(map(",".join, _row_fields(result)))
    _write_lines(lines, target)


def write_plot_table(result: SweepResult, target) -> None:
    """Same rows as the CSV, whitespace-separated with a commented header."""
    lines = ["# " + " ".join(CSV_HEADER.split(","))]
    lines.extend(map(" ".join, _row_fields(result)))
    _write_lines(lines, target)
