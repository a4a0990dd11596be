"""Every exported name resolves, once."""

import importlib
import pkgutil

import pytest

import corrclass

# __main__ runs the command line on import and exports nothing
MODULES = ["corrclass"] + [
    f"corrclass.{info.name}"
    for info in pkgutil.iter_modules(corrclass.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_star_import_names_resolve_once(module_name):
    exported = importlib.import_module(module_name).__all__
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert [name for name in exported if name not in namespace] == []
