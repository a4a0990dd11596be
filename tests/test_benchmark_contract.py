"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps named attributes of the corrclass modules and
passes each call's arguments to a record function.  A renamed attribute, or
an argument a record function cannot index, would otherwise show only when
the benchmark runs.  The test imports ``perfbench/`` and changes nothing in
it.  Long-records' golden digests pin the bytes of the one stock output whose
cells add up shifted comparisons (few probes against long samples), a path
the pinned figures never take.
"""

import hashlib
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import corrclass
from corrclass import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_span_fires_and_records(tracing, tmp_path, capsys):
    sweep = ["sweep", "--var", "W", "--grid", "8,12", "--fixed", "M=6,L=3", "--realizations", "1"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main([*sweep, "--out", str(tmp_path / "tiny.csv")]) == 0
        assert cli.main(["opinions", "--m", "6", "--n", "5", "--l", "2"]) == 0
    _, _, calls, values, _ = tracer.summary()
    for _, _, name, record in tracing.SPANS:
        assert calls[name] > 0, f"span {name} never fired"
        if record is not None:
            assert len(values[name]) == calls[name], f"span {name} recorded no value"
    # 8 samples x 6 probes x (W - L + 1) offsets x L positions, over W = 8 and 12
    assert sum(values["sequences.match_matrix"]) == 8 * 6 * ((8 - 3 + 1) * 3 + (12 - 3 + 1) * 3)


def test_every_package_name_perfbench_uses_is_exported():
    submodules = {info.name for info in pkgutil.iter_modules(corrclass.__path__)}
    used = {
        name
        for script in ("checks.py", "tracing.py", "run.py")
        for name in re.findall(r"\bcorrclass\.(\w+)", (PERFBENCH / script).read_text())
    }
    assert used, "no corrclass.<name> found in perfbench"
    assert sorted(used - set(corrclass.__all__) - submodules) == []


def test_long_records_bytes_match_the_golden_digests(tmp_path, capsys):
    golden = json.loads((PERFBENCH / "golden.json").read_text())["long-records"]
    args = shlex.split(golden["command"])[1:]
    out = tmp_path / "out.csv"
    args[args.index("--out") + 1] = str(out)
    assert cli.main(args) == 0
    for path, kind in ((out, "csv"), (out.with_suffix(".dat"), "dat")):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == golden["sha256"][kind], kind
