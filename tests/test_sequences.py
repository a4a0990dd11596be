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
    """``_run_match`` of two code sets on their window plan, and the (window
    row, probe) pairs that its matrix products computed."""
    products = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, rows, columns, **kwargs):
            products.append(len(rows) * columns.shape[1])
            return np.matmul(rows, columns, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "np", CountingNumpy())
        numbering = sequences._window_ids(samples.codes, probes.length)
        plan = sequences._run_plan(*numbering, samples.length - probes.length + 1)
        got = sequences._run_match(samples.codes, probes.codes, *plan)
    return got, sum(products)


def offset_scan(samples, probes):
    """``match_matrix`` by the offset scan, whatever the rule would pick."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "_SHIFT_PROBES", 0)
        patch.setattr(sequences, "_RUN_WORK", np.inf)
        return match_matrix(samples, probes)


def spy_on(monkeypatch, name):
    """Calls of the ``sequences`` function ``name``, which still runs."""
    calls, function = [], getattr(sequences, name)
    monkeypatch.setattr(sequences, name, lambda *a: calls.append(a) or function(*a))
    return calls


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
        with pytest.raises(TypeError, match="sequence must be str, got int"):
            ProbeSet(("ACG", 5))
        with pytest.raises(ValueError, match="sequence must be nonempty"):
            ProbeSet(("", ""))
        probes = ProbeSet(("ACG", "TTT"))
        assert probes.length == 3
        assert len(probes) == 2

    def test_probe_set_from_codes_validates(self):
        codes = np.array([[0, 1, 2, 3], [3, 3, 0, 0]])
        assert ProbeSet(codes).probes == ("ACGT", "TTAA")
        assert ProbeSet(codes) == ProbeSet(("ACGT", "TTAA"))
        assert hash(ProbeSet(codes)) == hash(ProbeSet(("ACGT", "TTAA")))
        # a probe set never equals the tuple of its strings
        assert ProbeSet(codes) != ("ACGT", "TTAA")
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
            # equal codes hash equal, whichever class holds them
            assert hash(ReferenceFamily(seqs)) == hash(family) == hash(ProbeSet(seqs))

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

    def test_scratch_memory_is_bounded(self, monkeypatch):
        # the offset scan traces 1.21 MiB on this input
        rng = stream(31, "long")
        sample = random_sequence(200_000, rng)
        probes = [random_sequence(50, rng) for _ in range(4)]
        # four probes on a long sample would add up shifted comparisons
        monkeypatch.setattr(sequences, "_SHIFT_PROBES", 0)
        tracemalloc.start()
        try:
            match_matrix([sample], probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_shift_path_memory_is_bounded(self, monkeypatch):
        # one probe's uint8 counts and hits over the 199,991 windows at a
        # time, 0.39 MiB traced; the offset scan traces 1.1 MiB on this input
        rng = stream(31, "long")
        samples = ProbeSet([random_sequence(200_000, rng)])
        probes = random_probes(4, 10, rng)
        shifts = spy_on(monkeypatch, "_shift_match")
        tracemalloc.start()
        try:
            got = match_matrix(samples, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(shifts) == 1 and peak <= 0.5 * 2**20
        assert np.array_equal(got, offset_scan(samples, probes))

    def test_run_path_memory_is_bounded(self):
        # 200 probes of L = 50 pass the work gate, so 200,000 windows are
        # planned, the int64 plan at about 58 bytes a window (11.1 MiB traced
        # in all).  A random sample repeats no window, so its plan saves none
        # and the offset scan runs; half of it and its copy take the
        # distinct-window path (10.3 MiB)
        rng = stream(31, "long")
        sample = random_sequence(200_000, rng)
        probes = [random_sequence(50, rng) for _ in range(200)]
        half = sample[:100_000]
        for samples, run_calls in (([sample], 0), ([half, half], 1)):
            with pytest.MonkeyPatch.context() as patch:
                numberings, runs = spy_on(patch, "_window_ids"), spy_on(patch, "_run_match")
                tracemalloc.start()
                try:
                    match_matrix(samples, probes)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert len(numberings) == 1 and len(runs) == run_calls
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
    @given(st.integers(16, 24), st.integers(0, 30), st.integers(0, 2**32))
    def test_both_sides_of_the_rule(self, short, length, extra, seed):
        # the fewest probes whose work per window row, 4L each, reaches the
        # gate, and the fewest windows of a random sample whose copy, with
        # the sample two slices, saves _RUN_SAVED a slice; one fewer of
        # either keeps the offset scan, and one fewer probe plans nothing
        least = -(-sequences._RUN_WORK // (4 * length))
        rng = stream(seed, "rule")
        windows = 2 * sequences._RUN_SAVED + (-1 if short == "windows" else extra)
        sample = rng.integers(0, 4, size=windows + length - 1)
        samples = ProbeSet(np.stack([sample, sample]))
        probes = random_probes(least - (short == "probes"), length, rng)
        with pytest.MonkeyPatch.context() as patch:
            numberings, runs = spy_on(patch, "_window_ids"), spy_on(patch, "_run_match")
            got = match_matrix(samples, probes)
        assert len(numberings) == (short != "probes")
        assert len(runs) == (short is None)
        for i, sample in enumerate(samples):
            for k, probe in enumerate(probes):
                assert got[i, k] == oracle_match(sample, probe)

    @pytest.mark.parametrize(
        "width, count, length",
        [(40, m, 8) for m in (4, 8, 16, 32)]
        + [(w, 20, 10) for w in (500, 1000, 1500, 2000)]
        + [(150, 100, 20), (150, 250, 20), (200, 1000, 5)],
    )
    def test_small_cells_never_number_windows(self, width, count, length, monkeypatch):
        # the many-cells and long-records geometries, figure 2's M = 100 and
        # 250 and figure 3's L = 5 stay below the work gate; long-records'
        # 20 probes against W = 500-2000 add up shifted comparisons
        calls, shifts = spy_on(monkeypatch, "_window_ids"), spy_on(monkeypatch, "_shift_match")
        rng = stream(33, "small")
        family, probes = reference_family(width, rng), random_probes(count, length, rng)
        got = match_matrix(family, probes)
        assert calls == []
        assert len(shifts) == (width >= 500)
        # a C-ordered int64 array on every path, not a transposed view
        assert got.dtype == np.int64 and got.flags.c_contiguous
        for i, sample in enumerate(family.seqs):
            for k, probe in enumerate(probes[:2]):
                assert got[i, k] == oracle_match(sample, probe)

    @pytest.mark.parametrize(
        "width, count, length, path",
        [(50, 500, 30, "scan"), (100, 500, 30, "scan"), (150, 500, 30, "runs")]
        + [(300, 500, 30, "runs"), (150, 500, 20, "runs")]
        + [(200, 1000, length, "runs") for length in (10, 50)]
        + [(500, 1667, 6, "scan"), (2000, 1667, 6, "scan"), (2000, 1000, 10, "runs")]
        + [(200, 500, 30, "runs"), (250, 500, 30, "runs")]
        + [(150, 750, 20, "runs"), (150, 1000, 20, "runs")]
        + [(200, 1000, length, "runs") for length in (15, 20, 25, 30, 35, 40, 45)],
    )
    def test_cells_past_the_gate_take_their_measured_path(
        self, width, count, length, path, monkeypatch
    ):
        # figure 1's W = 50 and 100 save too few windows a slice, chance
        # repeats at L = 6 cut the slices short, and the figure cells past
        # W = 150 and long samples at L = 10 save enough; with hundreds of
        # probes, none adds up shifted comparisons
        numberings, runs = spy_on(monkeypatch, "_window_ids"), spy_on(monkeypatch, "_run_match")
        shifts = spy_on(monkeypatch, "_shift_match")
        rng = stream(33, "small")
        family, probes = reference_family(width, rng), random_probes(count, length, rng)
        got = match_matrix(family, probes)
        assert len(numberings) == 1 and len(runs) == (path == "runs") and shifts == []
        assert got.dtype == np.int64 and got.flags.c_contiguous
        for i, sample in enumerate(family.seqs):
            for k, probe in enumerate(probes[:2]):
                assert got[i, k] == oracle_match(sample, probe)

    @pytest.mark.parametrize("side", ["shift", "probes", "windows"])
    @settings(deadline=None, max_examples=10)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32))
    def test_both_sides_of_the_shift_rule(self, side, length, count, seed):
        # _SHIFT_PROBES probes against _SHIFT_SPAN windows a sample for each
        # probe base add up shifted comparisons; one probe more, or one window
        # fewer, keeps the current path.  Either way the shift kernel equals
        # the offset scan and the oracle
        rng = stream(seed, "shift")
        n_probes = sequences._SHIFT_PROBES + (side == "probes")
        n_offsets = sequences._SHIFT_SPAN * length - (side == "windows")
        samples = ProbeSet(rng.integers(0, 4, size=(count, n_offsets + length - 1)))
        probes = random_probes(n_probes, length, rng)
        with pytest.MonkeyPatch.context() as patch:
            shifts = spy_on(patch, "_shift_match")
            got = match_matrix(samples, probes)
        assert len(shifts) == (side == "shift")
        assert np.array_equal(got, offset_scan(samples, probes))
        assert np.array_equal(sequences._shift_match(samples.codes, probes.codes), got)
        for i, sample in enumerate(samples):
            for k, probe in enumerate(probes):
                assert got[i, k] == oracle_match(sample, probe)

    @pytest.mark.parametrize("chunk_bytes, blocks, chunks", [(4800, 3, 1), (800, 8, 3)])
    def test_shift_blocks_split_probes_and_offsets(self, chunk_bytes, blocks, chunks, monkeypatch):
        # 2 samples of W = 200 take 2 bytes of uint8 counts an offset: a
        # 1,200-byte budget holds 3 probes' whole rows, and a 200-byte one a
        # probe's rows over offset chunks of 97, 3 chunks of the 197 offsets
        monkeypatch.setattr(sequences, "_CHUNK_BYTES", chunk_bytes)
        buffers, compares = [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                buffers.append(np.empty(*args, **kwargs))
                return buffers[-1]

            def equal(self, *args, out):
                compares.append(out.shape)
                return np.equal(*args, out=out)

        monkeypatch.setattr(sequences, "np", CountingNumpy())
        rng = stream(37, "shift-blocks")
        samples = ProbeSet(rng.integers(0, 4, size=(2, 200)))
        probes = random_probes(8, 4, rng)
        got = sequences._shift_match(samples.codes, probes.codes)
        # the counts and hits buffers, each within a quarter of _CHUNK_BYTES
        assert len(compares) == 4 * blocks * chunks
        assert len(buffers) == 2 and max(b.nbytes for b in buffers) <= chunk_bytes // 4
        for i, sample in enumerate(samples):
            for k, probe in enumerate(probes):
                assert got[i, k] == oracle_match(sample, probe)

    def test_shift_counts_past_255(self):
        # at L = 300 the counts are uint16: a planted complement scores 300,
        # and a copy of it with every tenth base changed 270
        rng = stream(38, "wide")
        length = 300

        def planted(width):
            samples = ProbeSet(rng.integers(0, 4, size=(2, width)))
            complement = 3 - samples.codes[1, 50 : 50 + length]
            near = complement.copy()
            near[::10] = (near[::10] + 1) % 4
            return samples, ProbeSet(np.stack([complement, near, rng.integers(0, 4, size=length)]))

        # the kernel itself on a short sample, against the oracle
        samples, probes = planted(420)
        got = sequences._shift_match(samples.codes, probes.codes)
        assert got[1, 0] == 300 and got[1, 1] == 270
        for i, sample in enumerate(samples):
            for k, probe in enumerate(probes):
                assert got[i, k] == oracle_match(sample, probe)
        # and through the rule, on 32 windows a sample for each probe base
        samples, probes = planted(sequences._SHIFT_SPAN * length + length - 1)
        with pytest.MonkeyPatch.context() as patch:
            shifts = spy_on(patch, "_shift_match")
            got = match_matrix(samples, probes)
        assert len(shifts) == 1 and got[1, 0] == 300 and got[1, 1] == 270
        assert np.array_equal(got, offset_scan(samples, probes))

    def test_probe_scan_cells_number_windows_once(self, monkeypatch):
        calls = spy_on(monkeypatch, "_window_ids")
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
