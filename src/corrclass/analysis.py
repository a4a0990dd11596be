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
from .sequences import _CHUNK_BYTES, _codes, _window_count, match_matrix

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
    correlation = row_correlation(match)
    if len(correlation.values) < 2:
        raise ValueError(f"need at least 2 samples, got {len(correlation.values)}")
    return correlation


def overlap_matrix(samples, k: int) -> np.ndarray:
    """Pairwise k-mer overlap of the samples.

    Entry (i, j) equals ``overlap(samples[i], samples[j], k)``, counted for
    every pair at once from one numbering of all samples' k-byte window
    keys.  Diagonal entries are self-overlaps, which fall below 1 when a
    sequence repeats one of its length-k windows.
    """
    codes = _codes(samples)
    windows = _window_count(codes.shape[1], k)
    keys = np.ascontiguousarray(sliding_window_view(codes, k, axis=1)).view(f"V{k}").ravel()
    order = np.argsort(keys)
    keys, rows = keys[order], order // windows
    key_ids = np.concatenate(([0], np.cumsum(keys[1:] != keys[:-1])))
    n_samples, n_keys = len(codes), key_ids[-1] + 1
    # float64 presence columns of runs of sorted key ids within _CHUNK_BYTES:
    # integer counts below 2**53 are exact in BLAS's float64, so any blocking sums alike
    step = min(n_keys, max(1, _CHUNK_BYTES // (8 * n_samples)))
    edges = np.searchsorted(key_ids, np.arange(0, n_keys + step, step))
    counts = np.zeros((n_samples, n_samples))
    for start, lo, hi in zip(range(0, n_keys, step), edges, edges[1:]):
        present = np.zeros((n_samples, step))
        present[rows[lo:hi], key_ids[lo:hi] - start] = 1
        counts += present @ present.T
    return counts / windows


def similarity_report(samples, probes) -> SimilarityReport:
    """Full report: match-row correlation vs k-mer overlap at probe length.

    ``samples`` and ``probes`` are indexable collections of sequences, such
    as a ``ReferenceFamily`` and a ``ProbeSet``; ``match_matrix`` validates
    them.
    """
    correlation = sample_correlation(match_matrix(samples, probes))
    omega = overlap_matrix(samples, len(probes[0]))
    return SimilarityReport(
        correlation=correlation.values,
        overlap=omega,
        error=np.abs(correlation.values - omega),
        degenerate_rows=correlation.degenerate_rows,
    )
