"""Correlation-based record classification.

Two models of the same idea: a linear one, where hidden taste and feature
vectors generate an opinion table whose row correlations predict unseen
entries, and a nonlinear one, where random probes measure sequences and
the correlation of their match scores recovers k-mer overlap.  A sweep
harness measures how well the recovery works as the geometry varies.
"""

from .analysis import (
    SimilarityReport,
    sample_correlation,
    similarity_report,
)
from .fasta import read_fasta, write_fasta
from .opinions import (
    CorrelationMatrix,
    ModelConfig,
    Population,
    choose_k,
    empirical_error,
    gamma_factor,
    generate_population,
    opinion_matrix,
    predict,
    predict_matrix,
    reconstruction_thresholds,
    row_correlation,
    theoretical_error,
)
from .rng import derive_seed, stream
from .sequences import (
    ALPHABET,
    ProbeSet,
    ReferenceFamily,
    kmer_set,
    match_matrix,
    max_complementary_match,
    negative_overlap,
    overlap,
    overlap_matrix,
    random_probes,
    random_sequence,
    reference_family,
)
from .sweep import (
    DEFAULT_TRACKED_PAIRS,
    FIGURE_PRESETS,
    SweepConfig,
    SweepResult,
    figure_preset,
    run_realization,
    run_sweep,
    write_plot_table,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALPHABET",
    "DEFAULT_TRACKED_PAIRS",
    "FIGURE_PRESETS",
    "CorrelationMatrix",
    "ModelConfig",
    "Population",
    "ProbeSet",
    "ReferenceFamily",
    "SimilarityReport",
    "SweepConfig",
    "SweepResult",
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
]
