"""The stock figures' output bytes at seed 42, pinned, and those of the
``matrices`` and ``gen-refs`` commands.

Every sweep cell's seed depends only on its place in the grid, so the CSV
and plot table of each stock figure are fixed bytes for a given seed and any
worker count.  The files round each mean to six digits, so the raw
per-realization errors are pinned as well: a one-ulp change to one cell
shows in their digest, not in the files'.  Those bits depend on the BLAS
summation order (OpenBLAS 0.3.31, x86-64); on another BLAS build a changed
errors digest beside unchanged file digests is rounding, not a changed
program.
"""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrclass
from corrclass.cli import main
from corrclass.sweep import write_plot_table, write_sweep_csv

# sha256 of figure<n>.csv and figure<n>.dat written by `corrclass figure n --seed 42`
DIGESTS = {
    (1, "csv"): "a8ac7a40c360c0a53fad9df68d0ac5e6a8a21387ed6935cc95e081e8f3782be1",
    (1, "dat"): "76f4b6f393e0486f63ded5533106f3bdd716f4ee5c5e6d92572b52cc0a8d3ba7",
    (2, "csv"): "adb99dcfb53945283957b20dbf5a8ea4f3629c3cb65f53d5ebddf3e51bd30d3d",
    (2, "dat"): "f1790ef7f5440ec2ad4714e770d5c12a483e326e0b8565a18e5fb21887829336",
    (3, "csv"): "51d179669b71ec05d3ecbcf147b25d11c91f69835092b58ecfa1943115e875d6",
    (3, "dat"): "1a88805476fd75cfd681b6ecd2bb1a0be61080bd72769b8bf77979d1ef09ff37",
}
# sha256 of each stock figure's errors array, as little-endian float64
ERROR_DIGESTS = {
    1: "c114a86c3674a1072e84cc036b226fd79bef222144442063b3fad4ba0d39721a",
    2: "041ed068b9abd29b39eb29c4b1dc7b299ba6f64ac45244ae02cbd4f5f41e0316",
    3: "2324f3e9421260c6e241158d3b2246c94a713209318d64b146c096d60d6d41f1",
}
WRITERS = {"csv": write_sweep_csv, "dat": write_plot_table}
# sha256 of each table of `corrclass matrices --w 200 --l 30 --m 500 --seed 3`
MATRIX_DIGESTS = {
    "correlation": "a8fb5fa7c9b8ab6f08e875f937eb9c6c5feb3b72ecd57a0456e36f246cfe0121",
    "overlap": "ea4b88362e9914a0d187d030955d1c1c5c6441585f2e9748bcbfd6f5f3e8f94f",
    "error": "c65d25306d15b467465560c0e4a366794eac75941b13e1cf563989adc387e87e",
}
# sha256 of `corrclass gen-refs --w 150 --seed 42`, to a file and to stdout
FASTA_DIGEST = "81fd08e2db61afe1a01dd11a7bae1900c64dbd9cdc06b517e54407e278c38476"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("figure", "suffix"), sorted(DIGESTS))
def test_stock_figure_bytes_are_pinned(request, figure, suffix):
    result = request.getfixturevalue(f"fig{figure}")
    buffer = io.StringIO()
    WRITERS[suffix](result, buffer)
    assert sha256(buffer.getvalue().encode("ascii")) == DIGESTS[figure, suffix]


@pytest.mark.parametrize("figure", sorted(ERROR_DIGESTS))
def test_stock_figure_errors_are_pinned(request, figure):
    errors = request.getfixturevalue(f"fig{figure}").errors
    assert sha256(np.ascontiguousarray(errors, dtype="<f8").tobytes()) == ERROR_DIGESTS[figure]


def test_pooled_cli_figure_bytes_are_pinned(tmp_path):
    # the child runs in tmp_path, where a relative PYTHONPATH resolves to
    # nothing; put the directory holding the package under test first
    package_root = str(Path(corrclass.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = tmp_path / "figure1.csv"
    command = [sys.executable, "-m", "corrclass", "figure", "1", "--seed", "42", "--jobs", "2"]
    proc = subprocess.run(
        [*command, "--out", str(out)], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert sha256(out.read_bytes()) == DIGESTS[1, "csv"]
    assert sha256(out.with_suffix(".dat").read_bytes()) == DIGESTS[1, "dat"]


def test_matrices_bytes_are_pinned(tmp_path):
    argv = ["matrices", "--w", "200", "--l", "30", "--m", "500", "--seed", "3"]
    assert main([*argv, "--out", str(tmp_path / "m")]) == 0
    for name, digest in MATRIX_DIGESTS.items():
        assert sha256((tmp_path / f"m_{name}.csv").read_bytes()) == digest, name


def test_gen_refs_bytes_are_pinned(tmp_path, capsysbinary):
    out = tmp_path / "refs.fa"
    assert main(["gen-refs", "--w", "150", "--seed", "42", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == FASTA_DIGEST
    assert main(["gen-refs", "--w", "150", "--seed", "42"]) == 0
    assert sha256(capsysbinary.readouterr().out) == FASTA_DIGEST
