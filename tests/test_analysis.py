"""Similarity reports: match-row correlation vs k-mer overlap."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrclass import sequences
from corrclass.analysis import (
    SimilarityReport,
    overlap_matrix,
    sample_correlation,
    similarity_report,
)
from corrclass.opinions import CorrelationMatrix
from corrclass.rng import stream
from corrclass.sequences import overlap, random_probes, reference_family


def pearson(x, y):
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx = sum(a * a for a in x)
    syy = sum(b * b for b in y)
    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))


def oracle_overlap_matrix(samples, k):
    """Pair by pair: shared distinct k-mers over the W - k + 1 windows."""
    windows = len(samples[0]) - k + 1
    kmers = [{s[i : i + k] for i in range(windows)} for s in samples]
    return np.array([[len(a & b) / windows for b in kmers] for a in kmers])


@st.composite
def overlap_case(draw):
    """Equal-length samples and a k; the two-letter alphabet repeats windows,
    and widths up to 140 let k cross one, two and three joins of window ids
    (past 32, 64 and 128 bases)."""
    alphabet = draw(st.sampled_from(["ACGT", "AC"]))
    width = draw(st.integers(1, 140))
    sample = st.text(alphabet, min_size=width, max_size=width)
    return draw(st.lists(sample, min_size=1, max_size=6)), draw(st.integers(1, width))


class TestSampleCorrelation:
    def test_identical_rows_are_perfectly_correlated(self):
        match = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        corr = sample_correlation(match)
        assert isinstance(corr, CorrelationMatrix)
        np.testing.assert_allclose(np.asarray(corr), np.ones((2, 2)), rtol=0, atol=1e-12)

    def test_matches_plain_summation_formula(self):
        rng = stream(11, "analysis")
        match = rng.integers(0, 9, size=(3, 5)).astype(float)
        corr = np.asarray(sample_correlation(match))
        for i in range(3):
            assert corr[i, i] == 1.0
            for j in range(3):
                expected = pearson(list(match[i]), list(match[j]))
                assert corr[i, j] == pytest.approx(expected, abs=1e-12)

    def test_constant_row_is_flagged_and_zeroed(self):
        match = np.array([[4.0, 4.0, 4.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        corr = sample_correlation(match)
        assert corr.degenerate_rows == (0,)
        values = np.asarray(corr)
        assert np.array_equal(values[0], np.zeros(3))
        assert np.array_equal(values[:, 0], np.zeros(3))
        assert values[1, 1] == 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            sample_correlation(np.arange(4.0))
        with pytest.raises(ValueError):
            sample_correlation(np.ones((1, 5)))
        with pytest.raises(ValueError):
            sample_correlation(np.ones((3, 1)))


class TestOverlapMatrix:
    def test_agrees_with_pairwise_overlap(self):
        rng = stream(12, "analysis")
        seqs = ["".join(rng.choice(list("ACGT"), size=30)) for _ in range(4)]
        omega = overlap_matrix(seqs, 6)
        assert omega.shape == (4, 4)
        assert np.array_equal(omega, omega.T)
        for i in range(4):
            for j in range(4):
                assert omega[i, j] == overlap(seqs[i], seqs[j], 6)

    def test_diagonal_is_self_overlap(self):
        # AAAA repeats its single distinct 2-mer, so self-overlap is 1/3.
        omega = overlap_matrix(["AAAA", "ACGT"], 2)
        assert omega[0, 0] == pytest.approx(1.0 / 3.0)
        assert omega[1, 1] == 1.0

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            overlap_matrix(["ACGT", "ACGTA"], 2)

    def test_scratch_memory_is_bounded(self):
        # one dense presence matrix of samples x distinct windows peaked at
        # 121 MiB on this input
        samples = random_probes(128, 1000, stream(41, "many"))
        tracemalloc.start()
        try:
            overlap_matrix(samples, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("cap", [8, 3 * 8 * 5])
    def test_key_blocks_sum_to_the_whole_matrix(self, monkeypatch, cap):
        # one and three key ids per block for five samples
        samples = random_probes(5, 40, stream(43, "blocks"))
        whole = overlap_matrix(samples, 3)
        assert np.array_equal(whole, oracle_overlap_matrix(samples.probes, 3))
        monkeypatch.setattr(sequences, "_CHUNK_BYTES", cap)
        assert overlap_matrix(samples, 3).tobytes() == whole.tobytes()

    @settings(deadline=None)
    @given(overlap_case())
    # the widest bit-packed keys and the first id join, at windows that
    # differ only in their last base
    @example((["A" * 40, "A" * 39 + "C", "ACGT" * 10], 32))
    @example((["A" * 40, "A" * 39 + "C", "ACGT" * 10], 33))
    @example((["A" * 40, "A" * 39 + "C", "ACGT" * 10], 34))
    # one and two id joins, at windows that differ in a 32-base half's last
    # or first base
    @example((["T" * 70, "T" * 64 + "G" * 6, "AC" * 35], 64))
    @example((["T" * 70, "T" * 64 + "G" * 6, "AC" * 35], 65))
    # one, two and three id joins, at windows that differ in their first or
    # last base only
    @example((["C" + "A" * 139, "A" * 140, "A" * 139 + "C", "AC" * 70], 33))
    @example((["C" + "A" * 139, "A" * 140, "A" * 139 + "C", "AC" * 70], 97))
    @example((["C" + "A" * 139, "A" * 140, "A" * 139 + "C", "AC" * 70], 129))
    def test_property_equals_pairwise_oracle(self, case):
        samples, k = case
        assert np.array_equal(overlap_matrix(samples, k), oracle_overlap_matrix(samples, k))


@pytest.fixture(scope="module")
def small_report():
    family = reference_family(60, stream(5, "family"))
    probes = random_probes(40, 8, stream(5, "probes"))
    return similarity_report(family, probes), family, probes


class TestSimilarityReport:

    def test_error_is_absolute_gap(self, small_report):
        report, _, _ = small_report
        assert np.array_equal(report.error, np.abs(report.correlation - report.overlap))
        assert np.all(report.error >= 0.0)
        assert np.all(report.error <= 2.0)

    def test_matrices_are_symmetric(self, small_report):
        report, _, _ = small_report
        for matrix in (report.correlation, report.overlap, report.error):
            assert np.array_equal(matrix, matrix.T)

    def test_diagonal_error_reflects_self_overlap(self, small_report):
        report, _, _ = small_report
        for i in range(8):
            assert report.error[i, i] == abs(1.0 - report.overlap[i, i])

    def test_deterministic_for_same_inputs(self, small_report):
        report, family, probes = small_report
        again = similarity_report(family, probes)
        assert np.array_equal(report.correlation, again.correlation)
        assert np.array_equal(report.overlap, again.overlap)
        assert np.array_equal(report.error, again.error)
        assert report.degenerate_rows == again.degenerate_rows

    def test_each_family_is_numbered_once_per_length(self, monkeypatch):
        # a cell on the distinct-window path: the kernel's plan and the
        # overlap matrix read one numbering of the family's L-windows
        lengths, runs = [], []
        window_ids, run_match = sequences._window_ids, sequences._run_match
        monkeypatch.setattr(sequences, "_window_ids", lambda *a: lengths.append(a[1]) or window_ids(*a))
        monkeypatch.setattr(sequences, "_run_match", lambda *a: runs.append(a) or run_match(*a))
        family = reference_family(200, stream(6, "family"))
        probes = random_probes(1000, 10, stream(6, "probes"))
        report = similarity_report(family, probes)
        assert lengths == [10] and len(runs) == 1
        # only the last length asked is kept
        overlap_matrix(family, 12)
        overlap_matrix(family, 10)
        assert lengths == [10, 12, 10]
        again = similarity_report(list(family.seqs), list(probes.probes))
        assert lengths == [10, 12, 10, 10] and len(runs) == 2
        for name in ("correlation", "overlap", "error"):
            assert np.array_equal(getattr(report, name), getattr(again, name))
        assert report.degenerate_rows == again.degenerate_rows

    def test_probe_blind_mutation_vs_half_swap(self):
        # A single central mutation barely moves the max-match scores, so the
        # correlation overshoots the overlap for pair (0, 1); the half swap
        # keeps nearly all windows shared, so pair (0, 4) tracks closely.
        family = reference_family(200, stream(42, "family"))
        probes = random_probes(500, 30, stream(42, "probes"))
        report = similarity_report(family, probes)
        assert report.error[0, 4] < report.error[0, 1]

    def test_constant_rows_propagate_to_degenerate(self):
        samples = ["ACGTACGT", "GGCATTCA", "TTAACCGG"]
        report = similarity_report(samples, ["TT", "TT"])
        assert report.degenerate_rows == (0, 1, 2)
        assert np.array_equal(report.correlation, np.zeros((3, 3)))

    def test_requires_two_samples_and_two_probes(self):
        with pytest.raises(ValueError):
            similarity_report(["ACGT"], ["AC", "GT"])
        with pytest.raises(ValueError):
            similarity_report(["ACGT", "GGCA"], ["AC"])
