"""Command-line front end.

Subcommands: ``figure`` (stock experiment 1, 2, or 3), ``sweep`` (explicit
grid), ``matrices`` (one realization's correlation / overlap / gap tables),
``opinions`` (linear-model error demo), and ``gen-refs`` (reference family
as FASTA).  Exit codes: 0 success, 1 bad arguments or domain error, 2 I/O
error.  Every subcommand is deterministic given its flags and --seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .fasta import _write_lines, write_fasta
from .opinions import (
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
from .rng import _check_seed, stream
from .sequences import reference_family
from .sweep import (
    _FIXED_FIELD,
    FIGURE_PRESETS,
    SWEEP_VARIABLES,
    SweepConfig,
    _format_float,
    run_realization,
    run_sweep,
    write_plot_table,
    write_sweep_csv,
)

__all__ = ["main", "run", "read_config"]

_CONFIG_KEYS = ("realizations", "grid", "m", "l", "w", "pairs")
_FIXED_KEYS = ("w", "m", "l")
_JOBS_HELP = "worker processes, at most the CPU count (default 1)"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this program reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _u64(text: str) -> int:
    try:
        return _check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**64), got {text!r}"
        ) from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _parse_grid(text: str) -> tuple[int, ...]:
    tokens = [tok for tok in text.replace(" ", "").split(",") if tok]
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"must be comma-separated integers, got {text!r}") from None


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in text.replace(" ", "").split(","):
        if not token:
            continue
        left, sep, right = token.partition("-")
        if not sep or not left.isdecimal() or not right.isdecimal():
            raise ValueError(f"must look like '0-1,6-7', got {token!r}")
        pairs.append((int(left), int(right)))
    return tuple(pairs)


_PARSERS = {"grid": _parse_grid, "pairs": _parse_pairs}


def _entry(where: str, text: str) -> tuple[str, str, str]:
    """Split one ``key = value`` text into a ``(where, key, value)`` entry."""
    key, sep, value = text.partition("=")
    if not sep or not key.strip() or not value.strip():
        raise ValueError(f"{where}: expected 'key = value', got {text.strip()!r}")
    return where, key, value


def _settings(entries, keys=_CONFIG_KEYS) -> dict:
    """SweepConfig fields from ``(where, key, value)`` text entries.

    ``where`` names the source of an entry, a flag or ``path:lineno``, and
    prefixes each of its errors.  ``keys`` are the lowercase keys allowed;
    each may be given once, and W, M and L land under their field names.
    Only the syntax is checked here; ``SweepConfig`` owns every other check.
    """
    fields = {}
    for where, key, value in entries:
        key = key.strip().lower()
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r}, expected one of {', '.join(keys)}")
        name = _FIXED_FIELD.get(key.upper(), key)
        if name in fields:
            raise ValueError(f"{where}: {key} is set twice")
        try:
            fields[name] = _PARSERS.get(key, _parse_int)(value.strip())
        except ValueError as exc:
            raise ValueError(f"{where}: {key} {exc}") from None
    return fields


def read_config(path) -> dict:
    """Parse a flat ``key = value`` override file; ``#`` comments may hold any text.

    Returns SweepConfig fields (``w``, ``m`` and ``l`` under their field
    names).  Values are converted here, so a bad one is reported with its
    ``path:lineno``, and a key set twice is refused.
    """
    # a non-ASCII byte becomes a lone surrogate, which no key or value accepts
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        lines = [(f"{path}:{n}", raw.split("#", 1)[0]) for n, raw in enumerate(handle, 1)]
    return _settings(_entry(where, line) for where, line in lines if line.strip())


def _plot_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    return root + ".dat" if ext.lower() == ".csv" else csv_path + ".dat"


def _probe(*paths) -> None:
    """Fail before the run on an output path that cannot be written; "a" never
    truncates, and a file the probe created is removed, so a failed run leaves none."""
    for path in paths:
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            # the created file, not a dangling symlink that led to it
            os.remove(os.path.realpath(path))


def _run_and_write(fields: dict, args, default_out: str) -> int:
    """Merge the config file over ``fields``, build the one SweepConfig, run it."""
    if args.config:
        fields.update(read_config(args.config))
    config = SweepConfig(**fields)
    out = args.out or default_out
    _probe(out, _plot_path(out))
    result = run_sweep(config, jobs=args.jobs)
    write_sweep_csv(result, out)
    write_plot_table(result, _plot_path(out))
    return 0


def _cmd_figure(args) -> int:
    fields = dict(FIGURE_PRESETS[args.which], base_seed=args.seed)
    return _run_and_write(fields, args, f"figure{args.which}.csv")


def _cmd_sweep(args) -> int:
    flags = [("--grid", "grid", args.grid), ("--realizations", "realizations", args.realizations)]
    if args.pairs is not None:
        flags.append(("--pairs", "pairs", args.pairs))
    tokens = [token.strip() for item in args.fixed or [] for token in item.split(",")]
    fixed = (_entry(f"--fixed {token}", token) for token in tokens if token)
    fields = _settings(flags)
    fields.update(_settings(fixed, _FIXED_KEYS), swept=args.var, base_seed=args.seed)
    return _run_and_write(fields, args, "sweep.csv")


def _matrix_lines(matrix) -> list[str]:
    lines = ["," + ",".join(str(j) for j in range(matrix.shape[1]))]
    lines.extend(f"{i}," + ",".join(map(_format_float, row)) for i, row in enumerate(matrix))
    return lines


def _cmd_matrices(args) -> int:
    names = ("correlation", "overlap", "error")
    paths = [f"{args.out or 'matrices'}_{name}.csv" for name in names]
    _probe(*paths)
    report = run_realization(args.w, args.m, args.l, args.seed)
    # all three tables are formatted, and so checked, before the first is written
    tables = [_matrix_lines(getattr(report, name)) for name in names]
    for path, lines in zip(paths, tables):
        _write_lines(lines, path)
    return 0


def _cmd_opinions(args) -> int:
    config = ModelConfig(
        n_individuals=args.m,
        n_products=args.n,
        n_components=args.l,
        base_seed=args.seed,
    )
    population = generate_population(config)
    opinions = opinion_matrix(population, config.normalization)
    # opinions are normalization * T @ F.T, so (k/M) C @ S equals
    # ((k/M) C @ T) @ (normalization * F.T): M*M*L + M*N*L multiply-adds
    # instead of M*M*N, fewer whenever L < M*N / (M + N).  The correlation
    # table is freed before the prediction table exists
    weighted = predict_matrix(row_correlation(opinions), population.tastes, choose_k(config))
    predicted = weighted @ (config.normalization * population.features.T)
    empirical = empirical_error(opinions, predicted)
    theoretical = theoretical_error(
        config.n_components, config.n_individuals, config.n_products, gamma_factor(config)
    )
    values = {"empirical_error": empirical, "theoretical_error": theoretical}
    values["ratio"] = empirical / theoretical
    _write_lines([f"{name} {_format_float(value)}" for name, value in values.items()], sys.stdout)
    return 0


def _cmd_gen_refs(args) -> int:
    family = reference_family(args.w, stream(args.seed, "family"))
    write_fasta(((f"seq{i}", seq) for i, seq in enumerate(family)), args.out or sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corrclass", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="subcommand", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_u64, default=42, help="base seed (default 42)")

    figure = commands.add_parser("figure", parents=[common], help="run a stock experiment")
    figure.add_argument("which", type=int, choices=(1, 2, 3))
    figure.add_argument("--out", help="CSV path (default figureN.csv); .dat written alongside")
    figure.add_argument("--config", help="key = value override file")
    figure.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    figure.set_defaults(handler=_cmd_figure)

    sweep = commands.add_parser("sweep", parents=[common], help="run an explicit sweep")
    sweep.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    sweep.add_argument("--grid", required=True, help="comma-separated grid values")
    sweep.add_argument("--fixed", action="append", help="KEY=VALUE for the held variables")
    sweep.add_argument("--realizations", default="40")
    sweep.add_argument("--pairs", help="tracked pairs, e.g. 0-1,0-4,6-7")
    sweep.add_argument("--out", help="CSV path (default sweep.csv); .dat written alongside")
    sweep.add_argument("--config", help="key = value override file")
    sweep.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    sweep.set_defaults(handler=_cmd_sweep)

    matrices = commands.add_parser(
        "matrices", parents=[common], help="dump one realization's similarity tables"
    )
    matrices.add_argument("--w", type=int, required=True, help="sample length")
    matrices.add_argument("--l", type=int, required=True, help="probe length")
    matrices.add_argument("--m", type=int, required=True, help="probe count")
    matrices.add_argument("--out", help="output prefix (default 'matrices')")
    matrices.set_defaults(handler=_cmd_matrices)

    opinions = commands.add_parser(
        "opinions", parents=[common], help="linear-model prediction error demo"
    )
    opinions.add_argument("--m", type=int, required=True, help="individuals")
    opinions.add_argument("--n", type=int, required=True, help="products")
    opinions.add_argument("--l", type=int, required=True, help="hidden components")
    opinions.set_defaults(handler=_cmd_opinions)

    gen_refs = commands.add_parser(
        "gen-refs", parents=[common], help="write the reference family as FASTA"
    )
    gen_refs.add_argument("--w", type=int, required=True, help="sequence length (>= 6)")
    gen_refs.add_argument("--out", help="FASTA path (default stdout)")
    gen_refs.set_defaults(handler=_cmd_gen_refs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
