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


# the package surface, written out so that a name added to a module's
# __all__ cannot widen it unnoticed
PACKAGE_NAMES = (
    "ALPHABET",
    "CorrelationMatrix",
    "DEFAULT_TRACKED_PAIRS",
    "FIGURE_PRESETS",
    "ModelConfig",
    "Population",
    "ProbeSet",
    "ReferenceFamily",
    "SimilarityReport",
    "SweepConfig",
    "SweepResult",
    "__version__",
    "choose_k",
    "derive_seed",
    "empirical_error",
    "figure_preset",
    "gamma_factor",
    "generate_population",
    "kmer_set",
    "match_matrix",
    "max_complementary_match",
    "negative_overlap",
    "opinion_matrix",
    "overlap",
    "overlap_matrix",
    "predict",
    "predict_matrix",
    "random_probes",
    "random_sequence",
    "read_fasta",
    "reconstruction_thresholds",
    "reference_family",
    "row_correlation",
    "run_realization",
    "run_sweep",
    "sample_correlation",
    "similarity_report",
    "stream",
    "theoretical_error",
    "write_fasta",
    "write_plot_table",
    "write_sweep_csv",
)


def test_package_surface_is_pinned():
    assert tuple(sorted(corrclass.__all__)) == PACKAGE_NAMES


@pytest.mark.parametrize("name", [name for name in PACKAGE_NAMES if name != "__version__"])
def test_package_name_is_its_modules_object(name):
    owners = [module for module in map(importlib.import_module, MODULES[1:]) if name in module.__all__]
    assert len(owners) == 1, [module.__name__ for module in owners]
    assert getattr(corrclass, name) is getattr(owners[0], name)
