"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps named attributes of the corrclass modules and
passes each call's arguments to a record function.  A renamed attribute, or
an argument a record function cannot index, would otherwise show only when
the benchmark runs.  The test imports ``perfbench/`` and changes nothing in
it.
"""

import importlib
import pkgutil
import re
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
