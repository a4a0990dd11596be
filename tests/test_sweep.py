"""Sweep configuration, execution, aggregation, and serialization."""

import builtins
import ctypes
import io
import math
import multiprocessing
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from corrclass.rng import derive_seed, stream
from corrclass.sequences import random_probes, reference_family
from corrclass.analysis import similarity_report
from corrclass import sweep
from corrclass.sweep import (
    CSV_HEADER,
    DEFAULT_TRACKED_PAIRS,
    FIGURE_PRESETS,
    SweepConfig,
    SweepResult,
    figure_preset,
    format_pair,
    run_realization,
    run_sweep,
    write_plot_table,
    write_sweep_csv,
)


def _reading_realization(barrier, get_threads):
    """A stand-in for ``run_realization`` whose report carries, as the errors
    of pairs (0, 1) and (0, 2), the pid of the process that ran the cell and
    the OpenBLAS threads the cell saw; each cell first waits at ``barrier``."""

    def reading(*cell):
        barrier.wait(timeout=60)
        error = np.zeros((8, 8))
        error[0, 1], error[0, 2] = os.getpid(), get_threads()
        return SimpleNamespace(error=error)

    return reading


def tiny_config(**overrides):
    base = dict(
        swept="W",
        grid=(8, 12),
        realizations=3,
        base_seed=9,
        n_probes=25,
        probe_length=4,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_valid_config_round_trips_fields(self):
        config = tiny_config()
        assert config.swept == "W"
        assert config.grid == (8, 12)
        assert config.pairs == DEFAULT_TRACKED_PAIRS

    def test_params_at_fills_the_swept_slot(self):
        assert tiny_config().params_at(10) == (10, 25, 4)
        by_m = SweepConfig(
            swept="M", grid=(5, 7), realizations=1, sample_length=20, probe_length=4
        )
        assert by_m.params_at(5) == (20, 5, 4)
        by_l = SweepConfig(
            swept="L", grid=(2, 3), realizations=1, sample_length=20, n_probes=10
        )
        assert by_l.params_at(3) == (20, 10, 3)

    def test_rejects_unknown_sweep_variable(self):
        with pytest.raises(ValueError, match="swept"):
            tiny_config(swept="Q")

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="nonempty"):
            tiny_config(grid=())
        with pytest.raises(ValueError, match="increasing"):
            tiny_config(grid=(12, 8))
        with pytest.raises(ValueError, match="increasing"):
            tiny_config(grid=(8, 8))
        # floats are rejected, not truncated to (50, 100)
        with pytest.raises(ValueError, match="grid"):
            tiny_config(grid=(50.9, 100.2))
        assert tiny_config(grid=np.array([8, 12])).grid == (8, 12)

    def test_rejects_bad_realizations(self):
        with pytest.raises(ValueError, match="realizations"):
            tiny_config(realizations=0)
        with pytest.raises(ValueError, match="realizations"):
            tiny_config(realizations=2.5)
        assert tiny_config(realizations=np.int64(2)).realizations == 2

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64])
    def test_rejects_seed_outside_u64(self, seed):
        with pytest.raises(ValueError, match="base_seed"):
            tiny_config(base_seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_accepts_u64_seed_bounds(self, seed):
        assert tiny_config(base_seed=seed).base_seed == seed

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            tiny_config(pairs=())
        with pytest.raises(ValueError, match="0..7"):
            tiny_config(pairs=((0, 8),))
        with pytest.raises(ValueError, match="differ"):
            tiny_config(pairs=((3, 3),))
        with pytest.raises(ValueError, match="pairs"):
            tiny_config(pairs=((0.5, 1),))
        assert tiny_config(pairs=((np.int64(0), 1),)).pairs == ((0, 1),)
        for pairs in (((0, 1), (0, 1)), ((0, 1), (1, 0))):
            with pytest.raises(ValueError, match="distinct"):
                tiny_config(pairs=pairs)

    def test_swept_field_must_stay_unset(self):
        with pytest.raises(ValueError, match="swept"):
            tiny_config(sample_length=100)

    def test_fixed_fields_must_be_set_and_positive(self):
        with pytest.raises(ValueError, match="n_probes"):
            tiny_config(n_probes=None)
        with pytest.raises(ValueError, match="probe_length"):
            tiny_config(probe_length=0)
        with pytest.raises(ValueError, match="n_probes"):
            tiny_config(n_probes=25.0)
        # numpy integers are accepted, as ModelConfig accepts them, and stored as int
        n_probes = tiny_config(n_probes=np.int64(10)).n_probes
        assert n_probes == 10 and type(n_probes) is int

    def test_every_grid_point_is_validated_up_front(self):
        with pytest.raises(ValueError, match="at least 6"):
            tiny_config(grid=(5, 8))
        with pytest.raises(ValueError, match="shorter than probe length"):
            tiny_config(grid=(8, 12), probe_length=10)
        with pytest.raises(ValueError, match="at least 2 probes"):
            SweepConfig(
                swept="M", grid=(1, 5), realizations=1, sample_length=20, probe_length=4
            )
        with pytest.raises(ValueError, match="positive"):
            SweepConfig(
                swept="L", grid=(0, 3), realizations=1, sample_length=20, n_probes=10
            )


class TestRunRealization:
    def test_deterministic_and_seed_sensitive(self):
        first = run_realization(30, 20, 5, seed=77)
        again = run_realization(30, 20, 5, seed=77)
        other = run_realization(30, 20, 5, seed=78)
        assert np.array_equal(first.error, again.error)
        assert not np.array_equal(first.error, other.error)

    def test_matches_manual_stream_construction(self):
        seed = 123
        report = run_realization(40, 30, 6, seed=seed)
        family = reference_family(40, stream(seed, "family"))
        probes = random_probes(30, 6, stream(seed, "probes"))
        manual = similarity_report(family, probes)
        assert np.array_equal(report.correlation, manual.correlation)
        assert np.array_equal(report.overlap, manual.overlap)

    def test_errors_stay_in_range(self):
        rng = stream(31, "seeds")
        for _ in range(5):
            seed = int(rng.integers(0, 2**63))
            report = run_realization(24, 15, 4, seed=seed)
            assert np.all(report.error >= 0.0)
            assert np.all(report.error <= 2.0)

    def test_seed_must_lie_in_the_hashed_range(self):
        # derive_seed alone would give -1 the stream of 2**64 - 1
        for seed in (-1, 2**64, 1.5):
            with pytest.raises(ValueError, match="base_seed"):
                run_realization(40, 8, 8, seed)
        assert run_realization(40, 8, 8, 2**64 - 1).error.shape == (8, 8)


@pytest.fixture(scope="module")
def tiny_result():
    return run_sweep(tiny_config())


def csv_rows(result):
    """The written CSV rows, split into fields, without the header."""
    buffer = io.StringIO()
    write_sweep_csv(result, buffer)
    return [line.split(",") for line in buffer.getvalue().splitlines()[1:]]


class TestRunSweep:
    def test_row_grid_and_shape(self, tiny_result):
        config = tiny_result.config
        assert tiny_result.errors.shape == (2, 3, len(DEFAULT_TRACKED_PAIRS))
        rows = csv_rows(tiny_result)
        assert len(rows) == 2 * len(DEFAULT_TRACKED_PAIRS)
        expected_order = [
            (str(value), format_pair(pair))
            for value in config.grid
            for pair in sorted(config.pairs)
        ]
        assert [(row[1], row[2]) for row in rows] == expected_order
        assert all(row[0] == "W" for row in rows)
        assert all(row[5] == "3" for row in rows)

    def test_rows_match_retained_errors(self, tiny_result):
        config = tiny_result.config
        written = {(row[1], row[2]): row[3:5] for row in csv_rows(tiny_result)}
        for col, pair in enumerate(config.pairs):
            _, means, stds = tiny_result.series(pair)
            for grid_index, value in enumerate(config.grid):
                cell = tiny_result.errors[grid_index, :, col]
                assert means[grid_index] == cell.mean()
                assert means[grid_index] == pytest.approx(math.fsum(cell) / len(cell), abs=1e-12)
                assert stds[grid_index] == pytest.approx(cell.std(ddof=1), abs=1e-12)
                assert written[str(value), format_pair(pair)] == [
                    format(means[grid_index], ".6g"),
                    format(stds[grid_index], ".6g"),
                ]

    def test_cells_match_independent_realizations(self, tiny_result):
        config = tiny_result.config
        for grid_index, value in enumerate(config.grid):
            w, m, length = config.params_at(value)
            for ri in (0, 2):
                seed = derive_seed(config.base_seed, value, ri)
                report = run_realization(w, m, length, seed=seed)
                for col, (i, j) in enumerate(config.pairs):
                    assert tiny_result.errors[grid_index, ri, col] == report.error[i, j]

    def test_single_realization_has_zero_std(self):
        result = run_sweep(tiny_config(realizations=1))
        for pair in result.config.pairs:
            assert np.all(result.series(pair)[2] == 0.0)
        assert all(row[4] == "0" for row in csv_rows(result))
        seed = derive_seed(9, 8, 0)
        report = run_realization(8, 25, 4, seed=seed)
        assert result.series((0, 1))[1][0] == report.error[0, 1]

    def test_worker_count_does_not_change_results(self, tiny_result):
        pooled = run_sweep(tiny_config(), jobs=2)
        assert np.array_equal(pooled.errors, tiny_result.errors)
        assert csv_rows(pooled) == csv_rows(tiny_result)

    def test_pool_keeps_cell_order_across_chunks(self):
        # 14 cells in 8 strides of one or two cells, so a misplaced stride
        # would show
        config = tiny_config(realizations=7)
        pooled = run_sweep(config, jobs=2)
        assert np.array_equal(pooled.errors, run_sweep(config).errors)

    def test_rejects_bad_jobs(self, tiny_result):
        for bad in (0, -1, 2.5, "2", None):
            with pytest.raises(ValueError, match="jobs"):
                run_sweep(tiny_config(), jobs=bad)
        assert np.array_equal(run_sweep(tiny_config(), jobs=np.int64(1)).errors, tiny_result.errors)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parent_holds_little_more_than_the_result(self, monkeypatch, jobs):
        # a stand-in cell, so only the parent's own bookkeeping is measured;
        # forked workers inherit it
        report = SimpleNamespace(error=np.zeros((8, 8)))
        monkeypatch.setattr(sweep, "run_realization", lambda *cell: report)
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=fork))
        tracemalloc.start()
        try:
            result = run_sweep(tiny_config(realizations=10_000), jobs=jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 20,000 cells of 6 pairs; rows of Python floats cost about 9x this
        assert result.errors.nbytes == 20_000 * 6 * 8
        assert peak <= 2 * result.errors.nbytes

    def test_result_is_allocated_before_any_cell(self, monkeypatch):
        ran = []

        def refuse(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(sweep, "run_realization", lambda *cell: ran.append(cell))
        # no real allocation: the result fails as an impossible size would
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(MemoryError, match=r"shape \(2, 3, 6\)"):
            run_sweep(tiny_config())
        assert ran == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_run_without_openblas(self, tiny_result, monkeypatch, jobs):
        # forked workers inherit the patched lookup
        fork = multiprocessing.get_context("fork")
        pool = partial(ProcessPoolExecutor, mp_context=fork)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(sweep, "_openblas_threads", lambda: None)
        assert np.array_equal(run_sweep(tiny_config(), jobs=jobs).errors, tiny_result.errors)

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_workers_capped_at_cpu_count(self, tiny_result, monkeypatch, cpus, workers):
        # a fake pool records the worker count and maps in-process, so no
        # worker process is started
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
        capped = run_sweep(tiny_config(), jobs=1000)
        assert started == [workers]
        assert np.array_equal(capped.errors, tiny_result.errors)

    def test_pool_workers_get_one_blas_thread(self, monkeypatch):
        threads = sweep._openblas_threads()
        if threads is None:
            pytest.skip("numpy did not load OpenBLAS")
        get_threads, set_threads = threads
        # forked workers inherit the stand-in realization and the parent's 2
        # threads; each cell waits for a cell of the other worker, so the 8
        # strides of 2 cells run in two workers
        fork = multiprocessing.get_context("fork")
        pool = partial(ProcessPoolExecutor, mp_context=fork)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        before = get_threads()
        set_threads(2)
        try:
            with multiprocessing.Manager() as manager:
                reading = _reading_realization(manager.Barrier(2), get_threads)
                monkeypatch.setattr(sweep, "run_realization", reading)
                result = run_sweep(tiny_config(realizations=8, pairs=((0, 1), (0, 2))), jobs=2)
            pids, seen = result.errors.reshape(-1, 2).T
            assert len(set(pids)) == 2 and os.getpid() not in pids
            assert seen.tolist() == [1] * 16
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_in_process_cells_get_one_blas_thread(self, monkeypatch):
        threads = sweep._openblas_threads()
        if threads is None:
            pytest.skip("numpy did not load OpenBLAS")
        get_threads, set_threads = threads
        seen, fail = [], []

        def recording_realization(*cell):
            seen.append(get_threads())
            if fail:
                raise RuntimeError("cell failed")
            return run_realization(*cell)

        monkeypatch.setattr(sweep, "run_realization", recording_realization)
        before = get_threads()
        set_threads(2)
        try:
            run_sweep(tiny_config())
            assert seen == [1] * 6
            assert get_threads() == 2
            fail.append(True)
            with pytest.raises(RuntimeError, match="cell failed"):
                run_sweep(tiny_config())
            assert seen == [1] * 7
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_series_accessor(self, tiny_result):
        values, means, stds = tiny_result.series((0, 4))
        assert np.array_equal(values, np.array([8.0, 12.0]))
        # views of the statistics every later write reads
        assert not means.flags.writeable and not stds.flags.writeable
        by_row = {row[1]: row[3:5] for row in csv_rows(tiny_result) if row[2] == "0-4"}
        for value, mean, std in zip(values, means, stds):
            assert by_row[str(int(value))] == [format(mean, ".6g"), format(std, ".6g")]
        # the error matrix is symmetric, so the reversed pair names the same series
        for got, want in zip(tiny_result.series((4, np.int64(0))), (values, means, stds)):
            assert np.array_equal(got, want)
        for untracked in ((1, 2), (2, 1), (5, 6)):
            with pytest.raises(ValueError, match="not tracked"):
                tiny_result.series(untracked)

    def test_series_refuses_non_integer_indices(self, tiny_result):
        for bad in ((0, 1.9), (0, "1")):
            with pytest.raises(ValueError, match="pair: expected an integer"):
                tiny_result.series(bad)
        for got, want in zip(tiny_result.series((np.int64(1), 0)), tiny_result.series((0, 1))):
            assert np.array_equal(got, want)


@pytest.fixture
def fresh_lookup():
    """Clear the OpenBLAS lookup's cache for the test; afterwards restore
    numpy's thread count and clear the cache again."""
    threads = sweep._openblas_threads()
    if threads is None:
        pytest.skip("numpy did not load OpenBLAS")
    get_threads, set_threads = threads
    before = get_threads()
    sweep._openblas_threads.cache_clear()
    yield
    set_threads(before)
    sweep._openblas_threads.cache_clear()


def _openblas_file(package):
    """The OpenBLAS file that a wheel of ``package`` ships, or a skip."""
    root = Path(pytest.importorskip(package).__file__).parent.parent
    found = sorted((root / f"{package}.libs").glob("*openblas*"))
    if not found:
        pytest.skip(f"{package} ships no OpenBLAS file")
    return found[0]


def _exported_threads(path):
    """Typed thread functions exported by the library at ``path``."""
    library = ctypes.CDLL(os.fspath(path))
    for symbol in sweep._OPENBLAS_NAMES:
        names = symbol.format("get_num_threads"), symbol.format("set_num_threads")
        if all(hasattr(library, name) for name in names):
            get_threads, set_threads = (getattr(library, name) for name in names)
            get_threads.restype, set_threads.argtypes = ctypes.c_int, [ctypes.c_int]
            return get_threads, set_threads
    pytest.fail(f"{path} exports no OpenBLAS thread functions")


def _maps_reading(monkeypatch, read):
    """Make ``open("/proc/self/maps")`` return ``read()``; other paths open as usual."""
    real_open = builtins.open

    def patched(file, *args, **kwargs):
        return read() if file == "/proc/self/maps" else real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", patched)


class TestOpenBLASLookup:
    def test_lookup_reads_no_proc_maps(self, fresh_lookup, monkeypatch):
        def unreadable():
            raise OSError("no /proc here")

        _maps_reading(monkeypatch, unreadable)
        threads = sweep._openblas_threads()
        assert threads is not None
        get_threads, set_threads = threads
        for count in (1, 2):
            set_threads(count)
            assert get_threads() == count

    def test_lookup_finds_the_openblas_numpy_links(self, fresh_lookup, monkeypatch, tmp_path):
        # maps list both copies through links, scipy's at the path that sorts first
        numpys, other = _openblas_file("numpy"), _openblas_file("scipy")
        lines = []
        for directory, target in (("a", other), ("b", numpys)):
            (tmp_path / directory).mkdir()
            link = tmp_path / directory / target.name
            link.symlink_to(target)
            lines.append(f"7f0000000000-7f0000001000 r-xp 00000000 00:00 0    {link}\n")
        _maps_reading(monkeypatch, lambda: io.StringIO("".join(lines)))
        numpy_get, numpy_set = _exported_threads(numpys)
        other_get, other_set = _exported_threads(other)
        other_before = other_get()
        numpy_set(2)
        try:
            get_threads, set_threads = sweep._openblas_threads()
            set_threads(1)
            assert numpy_get() == get_threads() == 1
        finally:
            other_set(other_before)

    def test_library_without_thread_functions_gives_none(self, fresh_lookup, monkeypatch):
        # numpy's compiled PCG64 module, which links no BLAS, stands in for its core
        core = np.core if np.__version__.startswith("1.") else np._core
        monkeypatch.setattr(core._multiarray_umath, "__file__", np.random._pcg64.__file__)
        assert sweep._openblas_threads() is None


class TestFigurePresets:
    def test_preset_shapes(self):
        fig1 = figure_preset(1)
        assert (fig1.swept, fig1.grid[0], fig1.grid[-1]) == ("W", 50, 300)
        assert (fig1.probe_length, fig1.n_probes, fig1.realizations) == (30, 500, 40)
        assert fig1.base_seed == 42
        fig2 = figure_preset(2, base_seed=7)
        assert (fig2.swept, fig2.sample_length, fig2.probe_length) == ("M", 150, 20)
        assert fig2.base_seed == 7
        fig3 = figure_preset(3)
        assert (fig3.swept, fig3.sample_length, fig3.n_probes) == ("L", 200, 1000)
        assert fig3.grid == tuple(range(5, 55, 5))
        assert fig3.realizations == 100

    def test_presets_all_validate(self):
        for which in FIGURE_PRESETS:
            config = figure_preset(which)
            assert config.pairs == DEFAULT_TRACKED_PAIRS

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="figure"):
            figure_preset(4)


class TestSerialization:
    def test_csv_layout(self, tiny_result, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(tiny_result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * len(DEFAULT_TRACKED_PAIRS)
        first = lines[1].split(",")
        _, means, stds = tiny_result.series((0, 1))
        assert first[0] == "W"
        assert first[1] == "8"
        assert first[2] == "0-1"
        assert first[3] == format(means[0], ".6g")
        assert first[4] == format(stds[0], ".6g")
        assert first[5] == "3"

    def test_csv_handle_matches_path(self, tiny_result, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(tiny_result, path)
        buffer = io.StringIO()
        write_sweep_csv(tiny_result, buffer)
        assert buffer.getvalue() == path.read_text()

    def test_plot_table_mirrors_csv_fields(self, tiny_result):
        csv_buf, dat_buf = io.StringIO(), io.StringIO()
        write_sweep_csv(tiny_result, csv_buf)
        write_plot_table(tiny_result, dat_buf)
        csv_lines = csv_buf.getvalue().splitlines()
        dat_lines = dat_buf.getvalue().splitlines()
        assert dat_lines[0] == "# " + " ".join(CSV_HEADER.split(","))
        assert len(dat_lines) == len(csv_lines)
        for csv_line, dat_line in zip(csv_lines[1:], dat_lines[1:]):
            assert dat_line.split() == csv_line.split(",")

    def test_non_finite_values_are_refused(self, tiny_result):
        errors = tiny_result.errors.copy()
        errors[1, 0, 2] = np.inf
        broken = SweepResult(config=tiny_result.config, errors=errors)
        for write in (write_sweep_csv, write_plot_table):
            target = io.StringIO()
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                write(broken, target)
            assert target.getvalue() == ""
