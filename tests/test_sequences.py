"""Sequence primitives: random draws, families, match kernel, overlaps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from corrclass import sequences
from corrclass.rng import stream
from corrclass.sequences import (
    ALPHABET,
    ProbeSet,
    ReferenceFamily,
    kmer_set,
    match_matrix,
    max_complementary_match,
    negative_overlap,
    overlap,
    random_probes,
    random_sequence,
    reference_family,
)

COMPLEMENT = str.maketrans("ACGT", "TGCA")


def complement(seq: str) -> str:
    """Positionwise Watson-Crick complement (A<->T, C<->G), no reversal."""
    return seq.translate(COMPLEMENT)


def oracle_match(sample: str, probe: str) -> int:
    """Offset-scan reference: max complement hits, plain Python."""
    comp = probe.translate(COMPLEMENT)
    best = 0
    for offset in range(len(sample) - len(probe) + 1):
        hits = sum(1 for p in range(len(probe)) if sample[offset + p] == comp[p])
        if hits > best:
            best = hits
    return best


def run_match_products(samples, probes):
    """``_run_match`` of two code sets, and the (window row, probe) pairs
    that its matrix products computed."""
    products = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, rows, columns, **kwargs):
            products.append(len(rows) * columns.shape[1])
            return np.matmul(rows, columns, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "np", CountingNumpy())
        got = sequences._run_match(samples.codes, probes.codes)
    return got, sum(products)


def distinct_windows(samples, length: int) -> int:
    return len({seq[i : i + length] for seq in samples for i in range(len(seq) - length + 1)})


def separate_draws_family(w: int, rng: np.random.Generator) -> np.ndarray:
    """Reference-family codes built with ``np.roll``, ``np.concatenate`` and
    one draw per part, in the fixed draw order."""
    half, gene = w // 2, w // 3

    def draw(length):
        return rng.integers(0, 4, size=length)

    def mutate_center(row):
        choice = int(rng.integers(0, 3))
        row[half] = choice + (choice >= row[half])

    codes = np.empty((8, w), dtype=np.uint8)
    codes[0] = codes[1] = anchor = draw(w)
    mutate_center(codes[1])
    codes[2] = codes[3] = np.concatenate((anchor[1:], draw(1)))
    mutate_center(codes[3])
    codes[4] = np.roll(anchor, -half)
    codes[5] = np.concatenate((anchor[half : 2 * half], draw(w - half)))
    codes[6] = draw(w)
    codes[7] = draw(w)
    codes[6, :gene] = codes[7, w - gene :] = draw(gene)
    return codes


@st.composite
def match_case(draw):
    """Samples of one width and probes of one length in 1..width."""
    width = draw(st.integers(1, 24))
    length = draw(st.integers(1, width))
    samples = st.lists(st.text("ACGT", min_size=width, max_size=width), min_size=1, max_size=4)
    probes = st.lists(st.text("ACGT", min_size=length, max_size=length), min_size=1, max_size=5)
    return draw(samples), draw(probes)


class TestRandomSequence:
    def test_deterministic_per_stream(self):
        assert random_sequence(50, stream(9, "s")) == random_sequence(50, stream(9, "s"))

    def test_symbol_frequencies_near_uniform(self):
        seq = random_sequence(100_000, stream(1, "freq"))
        for base in ALPHABET:
            assert abs(seq.count(base) / 100_000 - 0.25) < 0.01

    def test_single_base(self):
        assert random_sequence(1, stream(2, "one")) in set(ALPHABET)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            random_sequence(0, stream(0, "z"))


class TestSequenceSets:
    def test_probe_set_validates_uniform_length(self):
        with pytest.raises(ValueError):
            ProbeSet(("ACG", "ACGT"))
        with pytest.raises(ValueError):
            ProbeSet(())
        with pytest.raises(ValueError):
            ProbeSet(("ACGX",))
        with pytest.raises(ValueError):
            ProbeSet(("ACG\u00c5",))
        probes = ProbeSet(("ACG", "TTT"))
        assert probes.length == 3
        assert len(probes) == 2

    def test_probe_set_from_codes_validates(self):
        codes = np.array([[0, 1, 2, 3], [3, 3, 0, 0]])
        assert ProbeSet(codes).probes == ("ACGT", "TTAA")
        assert ProbeSet(codes) == ProbeSet(("ACGT", "TTAA"))
        # numpy string and object arrays are strings, not codes
        for strings in (np.array(["ACGT", "TTAA"]), np.array(["ACGT", "TTAA"], dtype=object)):
            assert ProbeSet(strings) == ProbeSet(codes)
        with pytest.raises(ValueError, match="outside ACGT"):
            ProbeSet(np.array(["ACGT", "TTAX"]))
        for bad in (codes - 1, codes + 1, codes[0], codes[:0], codes.astype(float)):
            with pytest.raises(ValueError):
                ProbeSet(bad)

    @pytest.mark.parametrize(
        "dtype", ["i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", ">i2", ">u4", "<i8"]
    )
    def test_probe_set_code_range_at_its_edges(self, dtype):
        codes = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=dtype)
        assert ProbeSet(codes) == ProbeSet(("ACGT", "TGCA"))
        assert ProbeSet(codes[:, ::2]) == ProbeSet(("AG", "TC"))
        bad = [4] + ([-1] if np.dtype(dtype).kind == "i" else [])
        # a bare cast to uint8 would wrap 256 to 0
        bad += [256, -256] if np.dtype(dtype) == np.int16 else []
        for value in bad:
            wrong = codes.copy()
            wrong[1, 2] = value
            with pytest.raises(ValueError, match=r"codes must lie in 0\.\.3"):
                ProbeSet(wrong)

    def test_probe_set_string_api(self):
        strs = ["ACGTA", "TTGCA", "GGGCC"]
        probes = ProbeSet(strs)
        assert probes.probes == tuple(strs)
        assert probes[1] == "TTGCA" and type(probes[1]) is str
        assert probes[-1] == "GGGCC"
        assert probes[1:] == tuple(strs[1:])
        assert list(probes) == strs and all(type(probe) is str for probe in probes)
        assert len(probes) == 3
        assert probes.length == 5
        with pytest.raises(IndexError):
            probes[3]

    def test_random_probes_decode_the_default_dtype_draw(self):
        # a uint8 draw from the same stream yields different probes; the
        # stock figures depend on the default-dtype stream
        for seed in range(3):
            codes = stream(seed, "probes").integers(0, 4, size=(40, 9))
            expected = tuple("".join(ALPHABET[code] for code in row) for row in codes)
            assert random_probes(40, 9, stream(seed, "probes")).probes == expected

    def test_random_probes_batched_draw(self):
        probes = random_probes(12, 7, stream(4, "p"))
        assert len(probes) == 12
        assert probes.length == 7
        again = random_probes(12, 7, stream(4, "p"))
        assert tuple(probes) == tuple(again)

    def test_random_probes_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            random_probes(0, 5, stream(0, "p"))
        with pytest.raises(ValueError):
            random_probes(5, 0, stream(0, "p"))


class TestReferenceFamily:
    @pytest.mark.parametrize("w", [6, 7, 30, 31, 150, 200])
    def test_structural_invariants(self, w):
        for seed in range(5):
            family = reference_family(w, stream(seed, "family"))
            seqs = family.seqs
            half = w // 2
            gene = w // 3
            assert len(seqs) == 8
            assert all(len(s) == w for s in seqs)
            assert family.length == w
            assert family.gene_length == gene
            # central mutation: exactly one difference, at the middle
            diffs = [i for i in range(w) if seqs[0][i] != seqs[1][i]]
            assert diffs == [half]
            # unit left shift with fresh tail base
            assert seqs[2][: w - 1] == seqs[0][1:]
            # shifted then centrally mutated
            diffs3 = [i for i in range(w) if seqs[2][i] != seqs[3][i]]
            assert diffs3 == [half]
            # half swap
            assert seqs[4] == seqs[0][half:] + seqs[0][:half]
            # copied block at the head of seq 5
            assert seqs[5][:half] == seqs[0][half : 2 * half]
            # shared gene at opposite ends
            assert seqs[6][:gene] == seqs[7][w - gene :]

    def test_deterministic_and_seed_sensitive(self):
        one = reference_family(30, stream(5, "family"))
        two = reference_family(30, stream(5, "family"))
        other = reference_family(30, stream(6, "family"))
        assert one.seqs == two.seqs
        assert one.seqs != other.seqs

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            reference_family(5, stream(0, "family"))
        reference_family(6, stream(0, "family"))

    def test_family_type_validation(self):
        family = reference_family(12, stream(1, "family"))
        for seqs in (family.seqs, np.array(family.codes)):
            with pytest.raises(ValueError):
                ReferenceFamily(seqs=seqs[:7])

    @settings(deadline=None)
    @given(st.integers(6, 400), st.integers(0, 2**64 - 1))
    def test_merged_draw_equals_separate_draws(self, w, seed):
        rng = stream(seed, "family")
        family = reference_family(w, rng)
        oracle_rng = stream(seed, "family")
        assert family.codes.tobytes() == separate_draws_family(w, oracle_rng).tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_family_is_pinned_to_its_stream(self):
        pinned = (
            "GAGCATGCGACA",
            "GAGCATTCGACA",
            "AGCATGCGACAG",
            "AGCATGAGACAG",
            "GCGACAGAGCAT",
            "GCGACAGCAAAG",
            "ACAGTGGAAGCA",
            "TGGTCCATACAG",
        )
        family = reference_family(12, stream(3, "family"))
        assert family.seqs == pinned
        codes = np.array([[ALPHABET.index(base) for base in seq] for seq in pinned])
        from_codes = ReferenceFamily(seqs=codes)
        assert ReferenceFamily(seqs=pinned) == from_codes == family
        assert from_codes.gene_length == 4
        assert family == ProbeSet(pinned)
        assert from_codes.seqs == pinned


class TestMatchKernel:
    def test_exact_complement_scores_full_length(self):
        assert max_complementary_match("ATGC", "TACG") == 4

    def test_no_pairing_scores_zero(self):
        assert max_complementary_match("CCCCC", "AAAA") == 0

    def test_short_probe_over_offsets(self):
        assert max_complementary_match("ATATAT", "TA") == 2

    def test_planted_site_scores_probe_length(self):
        rng = stream(8, "plant")
        for _ in range(20):
            w = int(rng.integers(10, 80))
            length = int(rng.integers(2, min(10, w)))
            probe = random_sequence(length, rng)
            body = random_sequence(w, rng)
            site = int(rng.integers(0, w - length + 1))
            sample = body[:site] + complement(probe) + body[site + length :]
            assert max_complementary_match(sample, probe) == length

    def test_full_score_iff_complement_is_substring(self):
        rng = stream(12, "iff")
        for _ in range(200):
            w = int(rng.integers(4, 30))
            length = int(rng.integers(1, min(6, w) + 1))
            sample = random_sequence(w, rng)
            probe = random_sequence(length, rng)
            full = max_complementary_match(sample, probe) == length
            assert full == (complement(probe) in sample)

    def test_invariant_under_complementing_both(self):
        rng = stream(13, "both")
        for _ in range(100):
            w = int(rng.integers(2, 40))
            length = int(rng.integers(1, w + 1))
            sample = random_sequence(w, rng)
            probe = random_sequence(length, rng)
            assert max_complementary_match(sample, probe) == max_complementary_match(
                complement(sample), complement(probe)
            )

    def test_matches_offset_scan_oracle(self):
        rng = stream(14, "oracle")
        for _ in range(300):
            w = int(rng.integers(1, 60))
            length = int(rng.integers(1, w + 1))
            sample = random_sequence(w, rng)
            probe = random_sequence(length, rng)
            assert max_complementary_match(sample, probe) == oracle_match(sample, probe)

    def test_probe_longer_than_sample_rejected(self):
        with pytest.raises(ValueError):
            max_complementary_match("ACG", "ACGT")


class TestMatchMatrix:
    def test_matches_entrywise_oracle(self):
        rng = stream(15, "mm")
        samples = [random_sequence(10, rng) for _ in range(2)]
        probes = [random_sequence(4, rng) for _ in range(3)]
        m = match_matrix(samples, probes)
        assert m.shape == (2, 3)
        assert m.dtype == np.int64
        for i in range(2):
            for k in range(3):
                assert m[i, k] == oracle_match(samples[i], probes[k])

    def test_duplicate_samples_share_rows(self):
        rng = stream(16, "dup")
        seq = random_sequence(20, rng)
        probes = random_probes(8, 5, rng)
        m = match_matrix([seq, seq], probes)
        assert np.array_equal(m[0], m[1])

    def test_entries_bounded_by_probe_length(self):
        rng = stream(17, "rng")
        samples = [random_sequence(30, rng) for _ in range(4)]
        probes = random_probes(10, 6, rng)
        m = match_matrix(samples, probes)
        assert np.all(m >= 0)
        assert np.all(m <= 6)

    def test_accepts_probe_and_sample_sets(self):
        rng = stream(18, "sets")
        samples = tuple(random_sequence(15, rng) for _ in range(3))
        probes = random_probes(5, 4, rng)
        m = match_matrix(samples, probes)
        assert m.shape == (3, 5)
        # a numpy string array and a code array give the same matrix
        as_strings = (np.array(samples), np.array(probes.probes))
        as_codes = (ProbeSet(samples).codes, probes.codes)
        for given in (as_strings, as_codes):
            assert np.array_equal(match_matrix(*given), m)
        with pytest.raises(TypeError):
            match_matrix(samples[0], probes)

    def test_probe_longer_than_sample_rejected(self):
        with pytest.raises(ValueError):
            match_matrix(["ACGT"], ["ACGTA"])

    def test_carried_codes_match_rebuilt_strings(self):
        rng = stream(19, "carry")
        family = reference_family(40, rng)
        probes = random_probes(25, 6, rng)
        rebuilt = ProbeSet(probes.probes)
        assert np.array_equal(
            match_matrix(family, probes), match_matrix(list(family.seqs), rebuilt)
        )

    def test_scratch_memory_is_bounded(self):
        # 44.5 MiB is the traced peak of the boolean-broadcast kernel this
        # one replaced, on the same input
        rng = stream(31, "long")
        sample = random_sequence(200_000, rng)
        probes = [random_sequence(50, rng) for _ in range(4)]
        tracemalloc.start()
        try:
            match_matrix([sample], probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 44.5 * 2**20

    def test_run_path_memory_is_bounded(self):
        # 200 probes of L = 50 take the distinct-window path; 11.1 MiB is its
        # traced peak on this input, the int64 window plan at about 58 bytes
        # a window
        rng = stream(31, "long")
        sample = random_sequence(200_000, rng)
        probes = [random_sequence(50, rng) for _ in range(200)]
        calls = []
        window_ids = sequences._window_ids
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequences, "_window_ids", lambda *a: calls.append(a) or window_ids(*a))
            tracemalloc.start()
            try:
                match_matrix([sample], probes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(calls) == 1
        assert peak <= 12 * 2**20

    def test_chunks_split_probes_and_offsets(self, monkeypatch):
        # at L = 4 with 3 samples a 1,276-byte cap gives blocks of 9 probes by
        # 2 offsets: 2 probe chunks by 14 offset chunks
        monkeypatch.setattr(sequences, "_CHUNK_BYTES", 1276)
        spans = []

        window_view = sequences._window_view

        def windows_spy(one_hot, length):
            spans.append(one_hot.shape)
            windows = window_view(one_hot, length)
            assert not windows.flags.writeable
            assert np.array_equal(windows, sliding_window_view(one_hot, length, axis=1))
            return windows

        monkeypatch.setattr(sequences, "_window_view", windows_spy)
        rng = stream(32, "chunks")
        samples = [random_sequence(30, rng) for _ in range(3)]
        probes = [random_sequence(4, rng) for _ in range(10)]
        got = match_matrix(samples, probes)
        assert len(spans) == 2 * 14 and spans[0] == (3, 2 + 4 - 1, 4)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        for i, sample in enumerate(samples):
            for k, probe in enumerate(probes):
                assert got[i, k] == oracle_match(sample, probe)

    @settings(deadline=None)
    @given(st.integers(6, 300), st.integers(1, 300), st.integers(1, 6), st.integers(0, 2**32))
    def test_runs_equal_oracle_on_families(self, width, length, count, seed):
        # the distinct-window path itself, whatever the rule would pick, on
        # the runs that the family's shifts, swaps and shared gene make: one
        # product row for each distinct window
        rng = stream(seed, "runs")
        family = reference_family(width, rng)
        probes = random_probes(count, min(length, width), rng)
        got, products = run_match_products(family, probes)
        assert products == distinct_windows(family.seqs, probes.length) * count
        for i, sample in enumerate(family.seqs):
            for k, probe in enumerate(probes):
                assert got[i, k] == oracle_match(sample, probe)

    @settings(deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 6), st.integers(0, 2**32))
    def test_runs_equal_oracle_on_two_letters(self, width, length, count, seed):
        # over {A, C} windows repeat at random, in runs of every length
        rng = stream(seed, "two")
        samples = ProbeSet(rng.integers(0, 2, size=(int(rng.integers(1, 7)), width)))
        probes = random_probes(count, min(length, width), rng)
        got, products = run_match_products(samples, probes)
        assert products == distinct_windows(samples, probes.length) * count
        for i, sample in enumerate(samples):
            for k, probe in enumerate(probes):
                assert got[i, k] == oracle_match(sample, probe)

    @pytest.mark.parametrize("short", [None, "probes", "windows"])
    @settings(deadline=None, max_examples=2)
    @given(st.integers(10, 20), st.integers(0, 30), st.integers(0, 2**32))
    def test_both_sides_of_the_rule(self, short, length, extra, seed):
        # the fewest probes whose work per window row, 4L each, reaches the
        # rule, and the fewest windows a sample, 3L, that it asks for; one
        # fewer of either keeps the offset scan
        least = -(-sequences._RUN_WORK // (4 * length))
        rng = stream(seed, "rule")
        family = reference_family(4 * length - 1 + (-1 if short == "windows" else extra), rng)
        probes = random_probes(least - (short == "probes"), length, rng)
        calls = []
        window_ids = sequences._window_ids
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequences, "_window_ids", lambda *a: calls.append(a) or window_ids(*a))
            got = match_matrix(family, probes)
        assert len(calls) == (short is None)
        for i, sample in enumerate(family.seqs):
            for k, probe in enumerate(probes):
                assert got[i, k] == oracle_match(sample, probe)

    @pytest.mark.parametrize(
        "width, count, length",
        [(40, m, 8) for m in (4, 8, 16, 32)]
        + [(w, 20, 10) for w in (500, 1000, 1500, 2000)]
        + [(500, 1667, 6), (2000, 1000, 10)],
    )
    def test_small_cells_never_number_windows(self, width, count, length, monkeypatch):
        # the many-cells and long-records geometries stay on the offset scan,
        # and so do cells past the work and window terms with more than 8 << L
        # windows in all, whose chance repeats would cut the slices short
        calls = []
        monkeypatch.setattr(sequences, "_window_ids", lambda *a: calls.append(a))
        rng = stream(33, "small")
        family, probes = reference_family(width, rng), random_probes(count, length, rng)
        got = match_matrix(family, probes)
        assert calls == []
        for i, sample in enumerate(family.seqs):
            for k, probe in enumerate(probes[:2]):
                assert got[i, k] == oracle_match(sample, probe)

    def test_probe_scan_cells_number_windows_once(self, monkeypatch):
        calls = []
        window_ids = sequences._window_ids
        monkeypatch.setattr(sequences, "_window_ids", lambda *a: calls.append(a) or window_ids(*a))
        rng = stream(34, "scan")
        family, probes = reference_family(200, rng), random_probes(1000, 10, rng)
        got = match_matrix(family, probes)
        # one numbering, of the L-windows, as overlap_matrix numbers them
        assert len(calls) == 1 and calls[0][1] == probes.length == 10
        monkeypatch.setattr(sequences, "_RUN_WORK", np.inf)
        assert np.array_equal(got, match_matrix(family, probes))

    @settings(deadline=None)
    @given(match_case())
    @example((["ACGTT", "TTTTT"], ["TGCAA", "AAAAA", "GGGGG"]))  # L == W
    @example((["ACGTT", "CCCCC"], ["A", "G", "T"]))  # L == 1
    def test_property_equals_offset_scan_oracle(self, case):
        samples, probes = case
        for given_probes in (probes, ProbeSet(probes)):
            got = match_matrix(samples, given_probes)
            assert got.shape == (len(samples), len(probes))
            for i, sample in enumerate(samples):
                for k, probe in enumerate(probes):
                    assert got[i, k] == oracle_match(sample, probe)


class TestOverlap:
    def test_identical_distinct_windows(self):
        seq = "ACGTAC"
        assert len(kmer_set(seq, 3)) == 4
        assert overlap(seq, seq, 3) == 1.0

    def test_disjoint_kmer_sets(self):
        assert overlap("AAAAA", "CCCCC", 2) == 0.0

    def test_half_swap_formula(self):
        # swapped halves lose only the windows crossing the two seams
        rng = stream(21, "swap")
        w, length = 60, 7
        for _ in range(10):
            seq = random_sequence(w, rng)
            if len(kmer_set(seq, length)) != w - length + 1:
                continue
            swapped = seq[w // 2 :] + seq[: w // 2]
            windows = w - length + 1
            shared = len(kmer_set(seq, length) & kmer_set(swapped, length))
            assert overlap(seq, swapped, length) == shared / windows
            assert shared >= windows - 2 * (length - 1)

    def test_single_symbol_counts_shared_alphabet(self):
        x = "AACCG"
        y = "GGTTT"
        shared = len(set(x) & set(y))
        assert overlap(x, y, 1) == shared / 5

    def test_symmetry(self):
        rng = stream(22, "sym")
        for _ in range(20):
            x = random_sequence(30, rng)
            y = random_sequence(30, rng)
            assert overlap(x, y, 6) == overlap(y, x, 6)

    def test_range_and_errors(self):
        with pytest.raises(ValueError):
            overlap("ACGT", "ACGT", 5)
        with pytest.raises(ValueError):
            overlap("ACGT", "ACG", 2)
        with pytest.raises(ValueError):
            overlap("ACGT", "ACGT", 0)


class TestNegativeOverlap:
    def test_identical_sequences_have_empty_difference(self):
        rng = stream(23, "neg")
        seq = random_sequence(40, rng)
        assert negative_overlap(seq, seq, 5) == 0.0

    def test_repeated_windows_normalization(self):
        # AAAA has one distinct 2-mer over three windows
        assert negative_overlap("AAAA", "CCCC", 2) == pytest.approx(1 / 3)

    def test_partition_identity_when_windows_distinct(self):
        rng = stream(24, "part")
        count = 0
        while count < 50:
            x = random_sequence(40, rng)
            if len(kmer_set(x, 8)) != 33:
                continue
            y = random_sequence(40, rng)
            assert overlap(x, y, 8) + negative_overlap(x, y, 8) == 1.0
            count += 1

    def test_not_symmetric_in_general(self):
        x = "AAAACC"
        y = "AAAAAA"
        # x has {AA, AC, CC}; y has {AA}
        assert negative_overlap(x, y, 2) == pytest.approx(2 / 5)
        assert negative_overlap(y, x, 2) == 0.0
