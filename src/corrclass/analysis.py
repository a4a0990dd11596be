"""Similarity reports for a set of sequences measured by random probes.

A report compares two views of pairwise similarity: the correlation of
match-score rows (what the probes see) and the direct k-mer overlap of the
sequences (ground truth), together with their elementwise absolute gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .opinions import CorrelationMatrix, row_correlation
from .sequences import _codes, _window_count, match_matrix

__all__ = [
    "SimilarityReport",
    "sample_correlation",
    "overlap_matrix",
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
    values = np.asarray(match, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"match matrix must be 2-D, got shape {values.shape}")
    if values.shape[0] < 2:
        raise ValueError(f"need at least 2 samples, got {values.shape[0]}")
    if values.shape[1] < 2:
        raise ValueError(f"need at least 2 probes, got {values.shape[1]}")
    return row_correlation(values)


def overlap_matrix(samples, k: int) -> np.ndarray:
    """Pairwise k-mer overlap of the samples.

    Entry (i, j) equals ``overlap(samples[i], samples[j], k)``, counted for
    every pair at once from one numbering of all samples' k-byte window
    keys.  Diagonal entries are self-overlaps, which fall below 1 when a
    sequence repeats one of its length-k windows.
    """
    codes = _codes(samples)
    windows = _window_count(codes.shape[1], k)
    keys = np.ascontiguousarray(sliding_window_view(codes, k, axis=1)).view(f"V{k}")
    _, key_ids = np.unique(keys.ravel(), return_inverse=True)
    # counts below 2**53 are exact in float64, whose product runs in BLAS
    present = np.zeros((len(codes), key_ids.max() + 1))
    present[np.arange(len(codes)).repeat(windows), key_ids] = 1
    return (present @ present.T) / windows


def similarity_report(samples, probes) -> SimilarityReport:
    """Full report: match-row correlation vs k-mer overlap at probe length.

    ``samples`` and ``probes`` are indexable collections of sequences, such
    as a ``ReferenceFamily`` and a ``ProbeSet``; ``match_matrix`` validates
    them.
    """
    correlation = sample_correlation(match_matrix(samples, probes).astype(float))
    corr = np.asarray(correlation)
    omega = overlap_matrix(samples, len(probes[0]))
    return SimilarityReport(
        correlation=corr,
        overlap=omega,
        error=np.abs(corr - omega),
        degenerate_rows=correlation.degenerate_rows,
    )
