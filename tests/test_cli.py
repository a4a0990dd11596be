"""Command-line interface: subcommands, config files, exit codes."""

import io
import re
import tracemalloc

import numpy as np
import pytest

from corrclass import cli, sweep
from corrclass.cli import main
from corrclass.fasta import read_fasta
from corrclass.opinions import (
    ModelConfig,
    choose_k,
    empirical_error,
    gamma_factor,
    generate_population,
    opinion_matrix,
    predict_matrix,
    row_correlation,
    theoretical_error,
)
from corrclass.sweep import (
    CSV_HEADER,
    SweepConfig,
    run_realization,
    run_sweep,
    write_plot_table,
    write_sweep_csv,
)

TINY = ["--var", "W", "--grid", "8,12", "--fixed", "M=25,L=4", "--realizations", "2"]
TINY_CONFIG = dict(swept="W", grid=(8, 12), realizations=2, n_probes=25, probe_length=4)
# the one message for setting the swept variable, from flags or a config file
SWEPT_CLASH = "sample_length (W) is swept and must not be set"


def refuse_to_run(config, jobs):
    raise AssertionError("run_sweep ran although an output cannot be written")


def refuse_realization(*cell):
    raise AssertionError("run_realization ran although an output cannot be written")


def fail_sweep(config, jobs):
    # no real allocation: the sweep fails as an out-of-memory one would
    raise MemoryError("Unable to allocate 7.28 TiB")


def render_csv(config):
    buffer = io.StringIO()
    write_sweep_csv(run_sweep(config), buffer)
    return buffer.getvalue()


class TestSweepCommand:
    def test_writes_deterministic_csv_and_plot_table(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sweep", *TINY, "--seed", "9", "--out", str(first)]) == 0
        assert main(["sweep", *TINY, "--seed", "9", "--out", str(second)]) == 0
        assert first.read_text() == second.read_text()
        lines = first.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 6
        assert (tmp_path / "a.dat").read_text() == (tmp_path / "b.dat").read_text()

    def test_matches_library_output(self, tmp_path):
        out = tmp_path / "cli.csv"
        assert main(["sweep", *TINY, "--seed", "9", "--out", str(out)]) == 0
        config = SweepConfig(**TINY_CONFIG, base_seed=9)
        assert out.read_text() == render_csv(config)
        dat = io.StringIO()
        write_plot_table(run_sweep(config), dat)
        assert (tmp_path / "cli.dat").read_text() == dat.getvalue()

    def test_config_supplies_a_held_value_and_wins_over_flags(self, tmp_path):
        cfg = tmp_path / "l.cfg"
        cfg.write_text("l = 4\nrealizations = 2\n")
        out = tmp_path / "cli.csv"
        argv = ["sweep", "--var", "W", "--grid", "8,12", "--fixed", "M=25", "--realizations", "5"]
        assert main([*argv, "--seed", "9", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == render_csv(SweepConfig(**TINY_CONFIG, base_seed=9))

    def test_config_cannot_set_the_swept_variable(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("w = 100\n")
        argv = ["sweep", *TINY, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        assert SWEPT_CLASH in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--fixed", "W=30"], SWEPT_CLASH),
            (["--grid", ","], "grid must be nonempty"),
            (["--pairs", ","], "pairs must be nonempty"),
            (["--pairs", ""], "pairs must be nonempty"),
            (["--pairs", "\u00b2-1"], "--pairs: pairs must look like '0-1,6-7', got '\u00b2-1'"),
        ],
    )
    def test_flag_errors_name_the_setting(self, extra, message, tmp_path, capsys):
        assert main(["sweep", *TINY, *extra, "--out", str(tmp_path / "x.csv")]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--grid", "8", "--fixed", "M=x,L=4"], "--fixed M=x: m must be an integer, got 'x'"),
            (
                ["--grid", "8", "--fixed", "M=25,L=4", "--realizations", "x"],
                "--realizations: realizations must be an integer, got 'x'",
            ),
            (
                ["--grid", "1,x", "--fixed", "M=25,L=4"],
                "--grid: grid must be comma-separated integers, got '1,x'",
            ),
            (
                ["--grid", "8", "--fixed", "M=25", "--fixed", "m=30,L=4"],
                "--fixed m=30: m is set twice",
            ),
            (
                ["--grid", "8", "--fixed", "M=25,L=4,Q=3"],
                "--fixed Q=3: unknown key 'q', expected one of w, m, l",
            ),
            (["--grid", "8", "--fixed", "M=25,L4"], "--fixed L4: expected 'key = value', got 'L4'"),
        ],
    )
    def test_setting_errors_name_their_flag(self, argv, message, tmp_path, capsys):
        assert main(["sweep", "--var", "W", *argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_csv_out_gains_dat_suffix(self, tmp_path):
        out = tmp_path / "results.txt"
        assert main(["sweep", *TINY, "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "results.txt.dat").exists()

    def test_pairs_flag_limits_rows(self, tmp_path):
        out = tmp_path / "pairs.csv"
        args = ["sweep", *TINY, "--pairs", "0-4,6-7", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert all(line.split(",")[2] in {"0-4", "6-7"} for line in lines[1:])

    def test_default_out_lands_in_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", *TINY]) == 0
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.dat").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--var", "W", "--fixed", "M=25,L=4"],  # missing --grid
            ["sweep", *TINY[:-2], "--fixed", "M25"],  # malformed KEY=VALUE
            ["sweep", "--var", "W", "--grid", "8,12", "--fixed", "M=25", "--fixed", "M=30,L=4"],
            ["sweep", "--var", "W", "--grid", "8,12", "--fixed", "W=30,M=25,L=4"],
            ["sweep", "--var", "W", "--grid", "8,12", "--fixed", "M=25,L=4", "--pairs", "0:1"],
            ["sweep", "--var", "W", "--grid", "8,12", "--fixed", "M=25,L=4", "--pairs", "0-9"],
            ["sweep", "--var", "W", "--grid", "abc", "--fixed", "M=25,L=4"],
            ["sweep", "--var", "Q", "--grid", "8,12"],
        ],
    )
    def test_argument_errors_exit_1(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_sweep", refuse_to_run)
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["sweep", *TINY, "--out", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_plot_table_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_sweep", refuse_to_run)
        (tmp_path / "x.dat").mkdir()
        assert main(["sweep", *TINY, "--out", str(tmp_path / "x.csv")]) == 2
        assert "error" in capsys.readouterr().err
        # the probe removes the CSV it created before it failed on the .dat
        assert [path.name for path in tmp_path.iterdir()] == ["x.dat"]

    def test_unholdable_result_exits_1_before_any_cell(self, tmp_path, monkeypatch, capsys):
        def refuse(shape, *args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(sweep, "run_realization", refuse_realization)
        # no real allocation: the result fails as an impossible size would
        monkeypatch.setattr(np, "empty", refuse)
        assert main(["sweep", *TINY, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"
        assert list(tmp_path.iterdir()) == []

    def test_dangling_symlink_output_is_kept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", fail_sweep)
        link = tmp_path / "x.csv"
        link.symlink_to(tmp_path / "target.csv")
        assert main(["sweep", *TINY, "--out", str(link)]) == 1
        assert link.is_symlink() and not link.exists()
        assert [path.name for path in tmp_path.iterdir()] == ["x.csv"]


class TestFigureCommand:
    def test_config_overrides_then_matches_library(self, tmp_path, monkeypatch):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(
            "# shrink the stock run\n"
            "realizations = 2\n"
            "grid = 50, 100   # two points\n"
            "m = 40\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "1", "--config", str(cfg)]) == 0
        config = SweepConfig(
            swept="W", grid=(50, 100), realizations=2, base_seed=42, n_probes=40, probe_length=30
        )
        assert (tmp_path / "figure1.csv").read_text() == render_csv(config)

    def test_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("realizations = 1\ngrid = 50\nm = 30\n")
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        assert main(["figure", "1", "--config", str(cfg), "--out", str(a), "--seed", "7"]) == 0
        assert main(["figure", "1", "--config", str(cfg), "--out", str(b), "--seed", "7"]) == 0
        assert main(["figure", "1", "--config", str(cfg), "--out", str(c), "--seed", "8"]) == 0
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gridsize = 10\n")
        assert main(["figure", "1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "gridsize" in err

    def test_config_cannot_pin_the_swept_variable(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("w = 100\n")
        assert main(["figure", "1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert SWEPT_CLASH in capsys.readouterr().err

    def test_malformed_config_line_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("realizations = 2\ngrid\n")
        assert main(["figure", "1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["m = abc", "realizations = 2.5"])
    def test_non_integer_config_value_reports_location(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        assert main(["figure", "1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        key, _, value = line.partition(" = ")
        expected = f"{cfg}:2: {key} must be an integer, got {value!r}"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("grid = 1,x", "grid must be comma-separated integers, got '1,x'"),
            ("pairs = 0-1,x", "pairs must look like '0-1,6-7', got 'x'"),
        ],
    )
    def test_bad_grid_or_pairs_config_value_reports_location(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n")
        assert main(["figure", "1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert f"{cfg}:1: {message}" in capsys.readouterr().err

    def test_key_set_twice_in_config_names_the_second_line(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("m = 40\n# again\nM = 50\n")
        assert main(["figure", "1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: m is set twice\n"

    @pytest.mark.parametrize("command", [["figure", "1"], ["sweep", *TINY]])
    def test_bad_jobs_leaves_existing_outputs(self, tmp_path, command):
        out, plot = tmp_path / "f.csv", tmp_path / "f.dat"
        out.write_text("csv sentinel\n")
        plot.write_text("dat sentinel\n")
        assert main([*command, "--jobs", "0", "--out", str(out)]) == 1
        assert out.read_text() == "csv sentinel\n"
        assert plot.read_text() == "dat sentinel\n"

    @pytest.mark.parametrize("command", [["figure", "1"], ["sweep", *TINY]])
    def test_bad_jobs_creates_no_output(self, tmp_path, capsys, command):
        assert main([*command, "--jobs", "0", "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == "error: jobs must be positive, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["figure", "1"], ["sweep", *TINY]])
    def test_failed_sweep_leaves_existing_outputs(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(cli, "run_sweep", fail_sweep)
        out, plot = tmp_path / "f.csv", tmp_path / "f.dat"
        out.write_text("csv sentinel\n")
        plot.write_text("dat sentinel\n")
        assert main([*command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"
        assert out.read_text() == "csv sentinel\n"
        assert plot.read_text() == "dat sentinel\n"

    @pytest.mark.parametrize("command", [["figure", "1"], ["sweep", *TINY]])
    def test_failed_sweep_creates_no_output(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(cli, "run_sweep", fail_sweep)
        assert main([*command, "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_ascii_config_comment_is_ignored(self, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_bytes("# tuned by José\nrealizations = 1\ngrid = 50\nm = 30  # ≈ 30\n".encode())
        out = tmp_path / "x.csv"
        assert main(["figure", "1", "--config", str(cfg), "--out", str(out)]) == 0
        config = SweepConfig(
            swept="W", grid=(50,), realizations=1, base_seed=42, n_probes=30, probe_length=30
        )
        assert out.read_text() == render_csv(config)

    def test_non_ascii_config_value_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes("# tuned by José\nm = \u0663\n".encode())
        assert main(["figure", "1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        expected = f"{cfg}:2: m must be an integer, got '\\udcd9\\udca3'"
        assert expected in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        args = ["figure", "1", "--config", str(tmp_path / "absent.cfg")]
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("argv", [["figure"], ["figure", "5"], ["figure", "one"]])
    def test_bad_figure_number_exits_1(self, argv):
        assert main(argv) == 1

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64), "4.5"])
    def test_bad_seed_exits_1(self, seed):
        assert main(["figure", "1", "--seed", seed]) == 1

    def test_no_subcommand_exits_1(self):
        assert main([]) == 1


class TestMatricesCommand:
    def test_files_match_recomputation(self, tmp_path):
        prefix = tmp_path / "tables"
        args = ["matrices", "--w", "30", "--l", "5", "--m", "20", "--seed", "3"]
        assert main(args + ["--out", str(prefix)]) == 0
        report = run_realization(30, 20, 5, 3)
        for suffix, matrix in (
            ("correlation", report.correlation),
            ("overlap", report.overlap),
            ("error", report.error),
        ):
            lines = (tmp_path / f"tables_{suffix}.csv").read_text().splitlines()
            assert lines[0] == "," + ",".join(str(j) for j in range(8))
            assert len(lines) == 9
            for i, line in enumerate(lines[1:]):
                cells = line.split(",")
                assert cells[0] == str(i)
                assert cells[1:] == [format(v, ".6g") for v in matrix[i]]

    def test_probe_longer_than_sample_exits_1(self, tmp_path, capsys):
        args = ["matrices", "--w", "8", "--l", "12", "--m", "10"]
        assert main(args + ["--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err

    def test_bad_later_path_is_found_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_realization", refuse_realization)
        first = tmp_path / "t_correlation.csv"
        first.write_text("old table\n")
        (tmp_path / "t_overlap.csv").mkdir()
        args = ["matrices", "--w", "40", "--l", "8", "--m", "20", "--out", str(tmp_path / "t")]
        assert main(args) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert first.read_text() == "old table\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [first.name, "t_overlap.csv"]

    def test_short_sample_exits_1(self, tmp_path):
        args = ["matrices", "--w", "4", "--l", "2", "--m", "10"]
        assert main(args + ["--out", str(tmp_path / "t")]) == 1


class TestOpinionsCommand:
    def test_reports_errors_and_sane_ratio(self, capsys):
        assert main(["opinions", "--m", "200", "--n", "200", "--l", "2", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        fields = dict(
            re.match(r"(\w+) (\S+)$", line).groups() for line in out.strip().splitlines()
        )
        assert set(fields) == {"empirical_error", "theoretical_error", "ratio"}
        assert 0.5 <= float(fields["ratio"]) <= 2.0
        assert float(fields["empirical_error"]) == pytest.approx(
            float(fields["theoretical_error"]) * float(fields["ratio"]), rel=1e-3
        )

    def test_deterministic(self, capsys):
        argv = ["opinions", "--m", "50", "--n", "40", "--l", "3", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_dimensions_exit_1(self, capsys):
        assert main(["opinions", "--m", "0", "--n", "40", "--l", "3"]) == 1
        assert capsys.readouterr().err

    def test_stdout_bytes_are_pinned(self, capsys):
        assert main(["opinions", "--m", "300", "--n", "200", "--l", "4", "--seed", "5"]) == 0
        assert capsys.readouterr().out == (
            "empirical_error 0.0458061\ntheoretical_error 0.0856305\nratio 0.534927\n"
        )

    @pytest.mark.parametrize(
        "m, n, l, seed",
        [(6, 5, 2, 1), (50, 40, 3, 11), (300, 200, 4, 5), (20, 10, 25, 7)],
    )
    def test_factored_prediction_matches_direct_product(self, monkeypatch, capsys, m, n, l, seed):
        # the command predicts from the tastes and features; the library's
        # C @ S over the whole table is the reference, L > M, N included
        captured = []

        def spy(observed, predicted):
            captured.append(predicted)
            return empirical_error(observed, predicted)

        monkeypatch.setattr(cli, "empirical_error", spy)
        argv = ["opinions", "--m", str(m), "--n", str(n), "--l", str(l), "--seed", str(seed)]
        assert main(argv) == 0
        config = ModelConfig(n_individuals=m, n_products=n, n_components=l, base_seed=seed)
        opinions = opinion_matrix(generate_population(config), config.normalization)
        direct = predict_matrix(row_correlation(opinions), opinions, choose_k(config))
        [predicted] = captured
        assert predicted.shape == direct.shape
        assert np.max(np.abs(predicted - direct)) <= 1e-12 * np.max(np.abs(direct))
        empirical = empirical_error(opinions, direct)
        theoretical = theoretical_error(l, m, n, gamma_factor(config))
        values = [empirical, theoretical, empirical / theoretical]
        names = ["empirical_error", "theoretical_error", "ratio"]
        assert capsys.readouterr().out == "".join(
            f"{name} {cli._format_float(value)}\n" for name, value in zip(names, values)
        )

    def test_memory_error_exits_1(self, monkeypatch, capsys):
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

        def refuse(population, normalization):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "opinion_matrix", refuse)
        assert main(["opinions", "--m", "3", "--n", "3", "--l", "2"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_scratch_memory_is_bounded(self, capsys):
        # with the correlation table alive through the error, four 600 x 600
        # float64 tables were live at once: a traced peak of 4.08 tables
        table = 600 * 600 * 8
        # numpy loads numpy.random at its first use, and that import's
        # allocations are not the command's; run alone, this test would trace them
        import numpy.random

        tracemalloc.start()
        try:
            assert main(["opinions", "--m", "600", "--n", "600", "--l", "4"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * table


class TestGenRefsCommand:
    def test_fasta_file_round_trip(self, tmp_path):
        out = tmp_path / "refs.fa"
        assert main(["gen-refs", "--w", "60", "--seed", "5", "--out", str(out)]) == 0
        records = read_fasta(out)
        assert [name for name, _ in records] == [f"seq{i}" for i in range(8)]
        assert all(len(seq) == 60 for _, seq in records)
        seq0, seq1 = records[0][1], records[1][1]
        diffs = [i for i in range(60) if seq0[i] != seq1[i]]
        assert diffs == [30]

    def test_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "refs.fa"
        assert main(["gen-refs", "--w", "24", "--seed", "8", "--out", str(out)]) == 0
        assert main(["gen-refs", "--w", "24", "--seed", "8"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_too_short_exits_1(self):
        assert main(["gen-refs", "--w", "5"]) == 1


@pytest.mark.parametrize(
    "command", [["gen-refs", "--out", "refs.fa"], ["matrices", "--l", "8", "--m", "20"]]
)
def test_huge_sample_length_exits_1_and_writes_nothing(command, tmp_path, monkeypatch, capsys):
    w, asked = 10**13, []

    def refuse(shape, *args, **kwargs):
        asked.append(shape)
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.chdir(tmp_path)
    # no real allocation: the family's codes fail as an impossible size would
    monkeypatch.setattr(np, "empty", refuse)
    assert main([*command, "--w", str(w)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 72.8 TiB\n"
    assert asked == [(8, w)]
    assert list(tmp_path.iterdir()) == []
