"""Similarity reports for a set of sequences measured by random probes.

A report compares two views of pairwise similarity: the correlation of
match-score rows (what the probes see) and the direct k-mer overlap of the
sequences (ground truth), together with their elementwise absolute gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opinions import CorrelationMatrix, row_correlation
from .sequences import ProbeSet, match_matrix, overlap_matrix

__all__ = [
    "SimilarityReport",
    "sample_correlation",
    "similarity_report",
]


@dataclass(frozen=True)
class SimilarityReport:
    """Correlation, overlap, and gap matrices for one sample set.

    ``error`` is ``abs(correlation - overlap)``, entrywise in [0, 2].
    ``degenerate_rows`` lists samples whose match-score row was constant
    across probes; their correlation entries are 0 by convention, so they
    are flagged rather than silently folded in.
    """

    correlation: np.ndarray
    overlap: np.ndarray
    error: np.ndarray
    degenerate_rows: tuple[int, ...]


def sample_correlation(match) -> CorrelationMatrix:
    """Pearson correlation between the rows of a match-score matrix.

    Rows are samples, columns are probes; each row is centered by its own
    mean, so this is the same operation the linear model applies to
    opinion rows.
    """
    correlation = row_correlation(match)
    if len(correlation.values) < 2:
        raise ValueError(f"need at least 2 samples, got {len(correlation.values)}")
    return correlation


def similarity_report(samples, probes) -> SimilarityReport:
    """Full report: match-row correlation vs k-mer overlap at probe length.

    ``samples`` and ``probes`` are indexable collections of sequences, such
    as a ``ReferenceFamily`` and a ``ProbeSet``.  Each is validated into a
    set once, so the kernel and the overlap read one numbering of the
    samples' windows.
    """
    samples = samples if isinstance(samples, ProbeSet) else ProbeSet(samples)
    probes = probes if isinstance(probes, ProbeSet) else ProbeSet(probes)
    correlation = sample_correlation(match_matrix(samples, probes))
    omega = overlap_matrix(samples, probes.length)
    return SimilarityReport(
        correlation=correlation.values,
        overlap=omega,
        error=np.abs(correlation.values - omega),
        degenerate_rows=correlation.degenerate_rows,
    )
