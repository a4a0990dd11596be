"""Nucleotide sequences and the nonlinear matching primitives.

Sequences are uint8 codes (A=0, C=1, G=2, T=3) from the random draw to the
score: ``ProbeSet`` and its subclass ``ReferenceFamily`` hold codes, and the
match kernel and the k-mer overlap matrix window them.  Uppercase strings
over {A, C, G, T} appear only at the API and FASTA boundary, validated into
codes once and decoded on demand.  The module covers seeded random
generation, a family of eight engineered reference variants, the ungapped
best-complementary-match kernel, and k-mer overlap measures between
equal-length sequences.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "ALPHABET",
    "ProbeSet",
    "ReferenceFamily",
    "random_sequence",
    "random_probes",
    "reference_family",
    "max_complementary_match",
    "match_matrix",
    "kmer_set",
    "overlap",
    "overlap_matrix",
    "negative_overlap",
]

ALPHABET = "ACGT"
FAMILY_SIZE = 8

_BASE_BYTES = np.frombuffer(b"ACGT", dtype=np.uint8)
_CODE_OF_BYTE = np.full(256, 255, dtype=np.uint8)
for _index, _byte in enumerate(b"ACGT"):
    _CODE_OF_BYTE[_byte] = _index

# the four base codes as a column: comparing codes with it gives one-hot rows
_BASES = np.arange(4, dtype=np.uint8)[:, None]
# complement in code space: A=0 <-> T=3, C=1 <-> G=2
_COMPLEMENTS = 3 - _BASES
# cap on one block's scratch: the kernel's float32 probe rows, window rows
# and product, or the float64 presence columns of overlap_matrix
_CHUNK_BYTES = 1 << 20
# GEMM work per window row, 4L multiply-adds for each of M probes, from which
# match_matrix plans the windows (_run_plan); many-cells and long-records stay below
_RUN_WORK = 40_000
# windows the plan saves (all but those with a row of their own) a slice, from
# which the kernel scores each distinct window once (_run_match).  One BLAS thread,
# seeds 0-2: figure cells past it (24.3-65.9) took 0.59-0.91x the offset scan,
# W = 1000-2000 at L = 10-16 (108-502) 0.56-0.73x; below it stay figure 1's W = 50
# and 100 (2.2, 11.6), chance repeats at L = 6 (1.9-4.1; 1.9-4.1x), unrepeated samples.
_RUN_SAVED = 16
# at most this many probes, and at least this many windows a sample for each probe
# base, and match_matrix adds up shifted comparisons (_shift_match), checked before
# the work gate.  One BLAS thread, seeds 0-2: at the boundary (M = 2-32, L = 3-100)
# it took 0.08-0.76x the offset scan, W = 500-2000 at M = 20, L = 10 0.20-0.31x; it
# loses on short samples (figure 1's W = 50 and 100: 2.9-5.0x, W = 40: 0.91-1.47x)
# and many probes (figure 2's M = 100 and 250: 1.6-2.0x, figure 3's L = 5: 1.4x).
_SHIFT_PROBES = 32
_SHIFT_SPAN = 32


def _batch(seqs) -> tuple[tuple[str, ...], np.ndarray]:
    """Validate a nonempty collection of equal-length ACGT strings.

    Returns the strings as a tuple and their ``(n, length)`` uint8 codes,
    A=0, C=1, G=2, T=3.  A single ``str`` is rejected, not split into bases.
    """
    if isinstance(seqs, str):
        raise TypeError("expected a collection of sequences, got a single string")
    seqs = tuple(seqs)
    if not seqs:
        raise ValueError("need at least one sequence")
    try:
        joined = "".join(seqs)
    except TypeError:
        bad = next(seq for seq in seqs if not isinstance(seq, str))
        raise TypeError(f"sequence must be str, got {type(bad).__name__}") from None
    lengths = set(map(len, seqs))
    if len(lengths) != 1:
        raise ValueError(f"sequences must share one length, got {sorted(lengths)}")
    if 0 in lengths:
        raise ValueError("sequence must be nonempty")
    # a non-ASCII symbol encodes as "?", which has no code
    codes = _CODE_OF_BYTE[np.frombuffer(joined.encode("ascii", "replace"), dtype=np.uint8)]
    if (codes == 255).any():
        bad = sorted(set(joined) - set(ALPHABET))
        raise ValueError(f"sequence contains symbols outside ACGT: {bad}")
    return seqs, codes.reshape(len(seqs), -1)


def _decode(codes: np.ndarray) -> str:
    return bytes(_BASE_BYTES[np.asarray(codes, dtype=np.uint8)]).decode("ascii")


def _decode_rows(codes: np.ndarray) -> tuple[str, ...]:
    """One string per row of an ``(n, length)`` code array."""
    text, length = _decode(codes), codes.shape[1]
    return tuple(text[start : start + length] for start in range(0, len(text), length))


def random_sequence(length: int, rng: np.random.Generator) -> str:
    """Sequence of ``length`` bases drawn i.i.d. uniform from ``rng``."""
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    return _decode(rng.integers(0, 4, size=length))


class ProbeSet:
    """Measurement sequences, all of one length, held as uint8 codes.

    Built from a collection of ACGT strings (a numpy string or object
    array among them), which is validated once, or from an ``(n, length)``
    integer array of codes.  Strings are decoded only on demand:
    ``probes``, iteration and indexing yield ``str``.
    """

    __slots__ = ("codes", "_numbering")

    def __init__(self, probes) -> None:
        if isinstance(probes, np.ndarray) and probes.dtype.kind not in "OSU":
            if probes.ndim != 2 or 0 in probes.shape or probes.dtype.kind not in "iu":
                raise ValueError(
                    f"codes must be a nonempty 2-D integer array, got {probes.dtype} "
                    f"of shape {probes.shape}"
                )
            # one reduction: read as unsigned, a negative code is above 3 too
            if probes.view(probes.dtype.str.replace("i", "u")).max() > 3:
                raise ValueError("codes must lie in 0..3")
            codes = probes.astype(np.uint8)
        else:
            codes = _batch(probes)[1]
        codes.flags.writeable = False
        self.codes = codes
        self._numbering = None

    def _window_ids(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """``_window_ids`` of the codes, read-only, kept for the last length asked."""
        if self._numbering is None or self._numbering[0] != length:
            order, ids = _window_ids(self.codes, length)
            order.flags.writeable = ids.flags.writeable = False
            self._numbering = length, order, ids
        return self._numbering[1:]

    @property
    def probes(self) -> tuple[str, ...]:
        return _decode_rows(self.codes)

    @property
    def length(self) -> int:
        return self.codes.shape[1]

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __iter__(self):
        return iter(self.probes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _decode_rows(self.codes[index])
        return _decode(self.codes[operator.index(index)])

    def __eq__(self, other):
        if not isinstance(other, ProbeSet):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.codes.shape, self.codes.tobytes()))


def random_probes(count: int, length: int, rng: np.random.Generator) -> ProbeSet:
    """``count`` independent uniform probes of ``length``, one batched draw."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    # the default dtype fixes the stream; a uint8 draw would yield other probes
    return ProbeSet(rng.integers(0, 4, size=(count, length)))


class ReferenceFamily(ProbeSet):
    """Eight engineered variants of one random anchor sequence.

    Index 0 is the anchor.  1 mutates the central base; 2 shifts left by one
    with a fresh tail base; 3 shifts then mutates; 4 exchanges the two
    halves; 5 starts with the anchor's second half and ends randomly; 6 and
    7 are fresh random sequences that share one implanted block (the
    "gene") of a third of the length, placed at opposite ends.  Built, like
    a ``ProbeSet``, from eight ACGT strings or an ``(8, sample_length)``
    code array; ``seqs`` names ``probes``.
    """

    __slots__ = ()

    def __init__(self, seqs) -> None:
        super().__init__(seqs)
        if len(self) != FAMILY_SIZE:
            raise ValueError(f"a reference family has {FAMILY_SIZE} sequences, got {len(self)}")

    seqs = ProbeSet.probes

    @property
    def gene_length(self) -> int:
        """Length of the block that 6 and 7 share: a third of the sample length."""
        return self.length // 3


def _mutate_center(codes: np.ndarray, rng: np.random.Generator) -> None:
    """Replace the middle base in place with a different one, chosen uniformly."""
    middle = len(codes) // 2
    # the k-th of the three other bases in ACGT order
    choice = int(rng.integers(0, 3))
    codes[middle] = choice + (choice >= codes[middle])


def reference_family(sample_length: int, rng: np.random.Generator) -> ReferenceFamily:
    """Build the eight-sequence reference family at ``sample_length``.

    The draw order is fixed (anchor, central mutation, shift tail, shifted
    mutation, tail of 5, bodies of 6 and 7, gene), so one stream always
    yields the same family.  Halves split at ``sample_length // 2`` and the
    gene length is ``sample_length // 3``.
    """
    if sample_length < 6:
        raise ValueError(f"sample_length must be at least 6, got {sample_length}")
    w = sample_length
    half = w // 2
    gene_length = w // 3
    codes = np.empty((FAMILY_SIZE, w), dtype=np.uint8)
    # draws of the default dtype, as random_sequence draws
    codes[0] = codes[1] = anchor = rng.integers(0, 4, size=w)
    _mutate_center(codes[1], rng)
    codes[2:4, :-1] = anchor[1:]
    codes[2:4, -1:] = rng.integers(0, 4, size=1)
    _mutate_center(codes[3], rng)
    codes[4, : w - half] = anchor[half:]
    codes[4, w - half :] = anchor[:half]
    codes[5, :half] = anchor[half : 2 * half]
    # one draw for the tail of 5, the bodies of 6 and 7 and the gene: PCG64
    # yields the same values whether consecutive draws are split or merged
    rest = rng.integers(0, 4, size=3 * w - half + gene_length)
    codes.reshape(-1)[5 * w + half :] = rest[: 3 * w - half]
    codes[6, :gene_length] = codes[7, w - gene_length :] = rest[3 * w - half :]
    return ReferenceFamily(codes)


def _probe_set(seqs) -> ProbeSet:
    """``seqs`` if a ``ProbeSet``; any other input is validated into one."""
    return seqs if isinstance(seqs, ProbeSet) else ProbeSet(seqs)


def max_complementary_match(sample: str, probe: str) -> int:
    """Best ungapped complementary score of ``probe`` against ``sample``.

    Slides the probe over every in-bounds offset (no overhangs) and counts
    positions where the sample base is the Watson-Crick complement of the
    probe base; returns the maximum count, between 0 and the probe length.
    """
    return int(match_matrix((sample,), (probe,))[0, 0])


def match_matrix(samples, probes) -> np.ndarray:
    """Best complementary match of every sample against every probe.

    Entry (i, k) equals ``max_complementary_match(samples[i], probes[k])``.
    Complemented probes and sample windows become one-hot rows of length
    4L, so a matrix product counts the pairing positions of every (probe,
    offset) pair.  Each count is a sum of 0/1 products, an integer <= L <
    2**24, so float32 gives it exactly in any summation order.  When the
    product's work per window row, 4L times the probe count, reaches
    ``_RUN_WORK``, the samples' windows are numbered (``_run_plan``), and when
    the windows that repeat number at least ``_RUN_SAVED`` for each slice of
    consecutive rows, a repeated window is not scored again (``_run_match``).
    A few probes against long samples skip the product: their counts are
    added up from shifted comparisons of the codes (``_shift_match``).
    """
    samples, probe_codes = _probe_set(samples), _probe_set(probes).codes
    n_samples, n_probes, length = len(samples), *probe_codes.shape
    n_offsets = _window_count(samples.length, length)
    if n_probes <= _SHIFT_PROBES and n_offsets >= _SHIFT_SPAN * length:
        return _shift_match(samples.codes, probe_codes)
    width = 4 * length
    if width * n_probes >= _RUN_WORK:
        own, lows, highs, owners = _run_plan(*samples._window_ids(length), n_offsets)
        if n_samples * n_offsets - len(own) >= _RUN_SAVED * len(lows):
            return _run_match(samples.codes, probe_codes, own, lows, highs, owners)
    budget = _CHUNK_BYTES // 4
    probe_step = min(n_probes, max(1, budget // (2 * width)))
    offset_step = max(1, (budget - probe_step * width) // (n_samples * (width + probe_step)))
    best = np.zeros((n_samples, n_probes), dtype=np.float32)
    for start in range(0, n_probes, probe_step):
        stop = start + probe_step
        targets = _targets(probe_codes[start:stop])
        block = best[:, start:stop]
        for offset in range(0, n_offsets, offset_step):
            codes = samples.codes[:, offset : offset + offset_step + length - 1]
            one_hot = (codes[..., None] == _BASES[:, 0]).astype(np.float32)
            windows = _window_view(one_hot, length)
            # one expression, so the window rows of all samples and their
            # product are freed before the next chunk is built
            np.maximum(
                block,
                (windows.reshape(-1, width) @ targets.T).reshape(n_samples, -1, len(targets)).max(1),
                out=block,
            )
    return best.astype(np.int64)


def _shift_match(sample_codes: np.ndarray, probe_codes: np.ndarray) -> np.ndarray:
    """``match_matrix`` by L compare-adds a window for each probe, no product.

    The sample rows are joined into one sequence, and each probe's count at
    every window of it is the sum over positions l of the joined codes at
    shift l equal to the complement of the probe's base l.  Counts fit
    ``np.min_scalar_type(L)``; the windows that straddle two samples are
    dropped before each sample's max over its offsets.
    """
    (n_samples, width), (n_probes, length) = sample_codes.shape, probe_codes.shape
    n_offsets = width - length + 1
    dtype = np.min_scalar_type(length)
    # the bytes of one offset's counts across the samples
    row = n_samples * dtype.itemsize
    budget = _CHUNK_BYTES // 4
    probe_step = min(n_probes, max(1, budget // (row * width)))
    offset_step = max(1, budget // (row * probe_step) - length + 1)
    complements = 3 - probe_codes
    best = np.zeros((n_samples, n_probes), dtype=dtype)
    # one counts and one hits buffer serve every block, so no two blocks' buffers coexist
    size = probe_step * n_samples * min(width, offset_step + length - 1)
    counts_buffer, hit_buffer = np.empty(size, dtype=dtype), np.empty(size, dtype=bool)
    for offset in range(0, n_offsets, offset_step):
        codes = sample_codes[:, offset : offset + offset_step + length - 1]
        joined, span = codes.reshape(-1), codes.shape[1]
        n_windows = len(joined) - length + 1
        for start in range(0, n_probes, probe_step):
            bases = complements[start : start + probe_step]
            counts = counts_buffer[: len(bases) * len(joined)].reshape(len(bases), -1)
            counts.fill(0)
            hit = hit_buffer[: len(bases) * n_windows].reshape(len(bases), -1)
            # a bool is one byte, so the add reads the hits as 0/1 counts
            summed, hits = counts[:, :n_windows], hit.view(np.uint8)
            for position in range(length):
                np.equal(joined[position : position + n_windows], bases[:, position, None], out=hit)
                np.add(summed, hits, out=summed)
            scores = counts.reshape(len(bases), n_samples, span)[..., : span - length + 1].max(2)
            block = best[:, start : start + probe_step]
            np.maximum(block, scores.T, out=block)
    return best.astype(np.int64)


def _targets(probe_codes: np.ndarray) -> np.ndarray:
    """Complemented one-hot rows of probe codes, laid out base-major as the
    window rows are."""
    return (probe_codes[:, None, :] == _COMPLEMENTS).reshape(len(probe_codes), -1).astype(np.float32)


def _run_plan(order: np.ndarray, ids: np.ndarray, n_offsets: int) -> tuple[np.ndarray, ...]:
    """Rows and slices of the distinct-window kernel, from a window numbering.

    Each window is named by its first occurrence, in row-major order over
    all samples.  A first occurrence gets a row of its own, in window order,
    and every repeat reuses that row.  Returns the windows that own a row,
    and for each slice, a maximal stretch of one sample's windows over
    consecutive rows, its first and past-the-end row and its sample.
    """
    # the first occurrence of each window: the least index of its id (an
    # integer reduction over the plan, not over scores)
    source = np.empty_like(order)
    source[order] = np.minimum.reduceat(order, np.flatnonzero(np.diff(ids, prepend=-1)))[ids]
    is_own = source == np.arange(len(source))
    rows = (np.cumsum(is_own) - 1)[source]
    cuts = np.ones(len(rows), dtype=bool)
    cuts[1:] = rows[1:] != rows[:-1] + 1
    cuts[::n_offsets] = True
    cut_at = np.flatnonzero(cuts)
    lows = rows[cut_at]
    return np.flatnonzero(is_own), lows, lows + np.diff(cut_at, append=len(rows)), cut_at // n_offsets


def _run_match(sample_codes, probe_codes, own, lows, highs, owners) -> np.ndarray:
    """``match_matrix`` from one product row per distinct window (``_run_plan``).

    Copied runs repeat consecutive windows, so a sample's windows map to a
    few slices of consecutive rows, and its scores are the max over those
    slices' score rows: the same integers as the offset scan, since a max
    does not depend on order.
    """
    n_samples, n_probes, length = len(sample_codes), *probe_codes.shape
    n_offsets = sample_codes.shape[1] - length + 1
    views = _window_view(sample_codes[..., None], length)
    width = 4 * length
    budget = _CHUNK_BYTES // 4
    # probes first, in even blocks no larger than the side s of equal probe and
    # row blocks, whose rows and product fill 2 * s * width + s**2 floats
    side = max(1, math.isqrt(width * width + budget) - width)
    probe_step = -(-n_probes // -(-n_probes // side))
    row_step = min(len(own), max(1, (budget - probe_step * width) // (width + probe_step)))
    best = np.zeros((n_samples, n_probes), dtype=np.float32)
    # one product buffer for every block, so no block faults in fresh pages
    product = np.empty((row_step, probe_step), dtype=np.float32)
    for top in range(0, len(own), row_step):
        bottom = top + row_step
        # gathered one block at a time, so the codes never grow with the input
        block_own = own[top:bottom]
        codes = views[block_own // n_offsets, block_own % n_offsets]
        windows = (codes == _BASES).reshape(-1, width).astype(np.float32)
        lo, hi = np.maximum(lows, top) - top, np.minimum(highs, bottom) - top
        hit = lo < hi
        slices = list(zip(owners[hit].tolist(), lo[hit].tolist(), hi[hit].tolist()))
        for start in range(0, n_probes, probe_step):
            targets = _targets(probe_codes[start : start + probe_step])
            scores = np.matmul(windows, targets.T, out=product[: len(windows), : len(targets)])
            block = best[:, start : start + probe_step]
            for sample, low, high in slices:
                np.maximum(block[sample], scores[low:high].max(0), out=block[sample])
    return best.astype(np.int64)


def _window_view(one_hot: np.ndarray, length: int) -> np.ndarray:
    """Read-only windows along axis 1 of a contiguous 3-D array, in the layout
    of ``sliding_window_view(one_hot, length, axis=1)`` at a fraction of its
    per-call cost; numpy checks the strides against the buffer."""
    rows, positions, bases = one_hot.shape
    shape, strides = (rows, positions - length + 1, bases, length), one_hot.strides
    windows = np.ndarray(shape, one_hot.dtype, one_hot, 0, (*strides, strides[1]))
    windows.flags.writeable = False
    return windows


def _window_count(length: int, k: int) -> int:
    """Number of length-``k`` windows in a sequence of ``length``."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > length:
        raise ValueError(f"window length {k} exceeds sequence length {length}")
    return length - k + 1


def _kmer_sets(seqs, k: int) -> tuple[list[set[str]], int]:
    """Distinct length-``k`` windows of each equal-length sequence, and the
    number of windows per sequence, ``length - k + 1``."""
    seqs, codes = _batch(seqs)
    windows = _window_count(codes.shape[1], k)
    return [{seq[i : i + k] for i in range(windows)} for seq in seqs], windows


def kmer_set(seq: str, k: int) -> set[str]:
    """Distinct length-``k`` windows of ``seq``."""
    return _kmer_sets((seq,), k)[0][0]


def overlap(x: str, y: str, k: int) -> float:
    """Shared distinct k-mers of two equal-length sequences, normalized.

    ``|kmers(x) & kmers(y)| / (W - k + 1)``: symmetric, in [0, 1], and equal
    to 1 for identical sequences with no repeated window.
    """
    (x_kmers, y_kmers), windows = _kmer_sets((x, y), k)
    return len(x_kmers & y_kmers) / windows


def _window_keys(codes: np.ndarray, length: int) -> np.ndarray:
    """Every length-``length`` window of each code row as one exact integer key.

    Each step joins the keys ``shift <= span`` apart into keys of ``span +
    shift`` bases, about log2(length) steps.  Up to 32 bases a key is the
    window's 2 bits a base in a ``uint64`` (4**32 = 2**64), joined by a
    shifted OR.  Past that, keys are renumbered to dense ids and two join as
    ``left * (ids.max() + 1) + right``: the span-windows at offsets 0 and
    ``shift`` cover the joined one, so equal pairs mean equal windows, and
    the int64 product fits while there are fewer than 2**31 windows.
    """
    keys, span = codes.astype(np.uint64), 1
    while span < length:
        shift = min(span, length - span)
        if span + shift <= 32:
            keys = (keys[:, :-shift] << np.uint64(2 * shift)) | keys[:, shift:]
        else:
            ids = np.unique(keys, return_inverse=True)[1].reshape(keys.shape)
            keys = ids[:, :-shift] * (ids.max() + 1) + ids[:, shift:]
        span += shift
    return keys


def _window_ids(codes: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Number every length-``length`` window of the code rows by its exact key.

    Windows are indexed row-major over all rows.  Returns ``order``, the
    window indices sorted by key, and ``ids``, the dense key id of each
    entry of ``order``, 0, 1, ... in key order: equal windows, and only
    they, share an id.
    """
    keys = _window_keys(codes, length).reshape(-1)
    order = np.argsort(keys)
    keys = keys[order]
    return order, np.concatenate(([0], np.cumsum(keys[1:] != keys[:-1])))


def overlap_matrix(samples, k: int) -> np.ndarray:
    """Pairwise k-mer overlap of the samples.

    Entry (i, j) equals ``overlap(samples[i], samples[j], k)``, counted for
    every pair at once from one numbering of all samples' windows
    (``_window_ids``).  Diagonal entries are self-overlaps, which fall below
    1 when a sequence repeats one of its length-k windows.
    """
    samples = _probe_set(samples)
    windows = _window_count(samples.length, k)
    order, key_ids = samples._window_ids(k)
    rows = order // windows
    n_samples, n_keys = len(samples), key_ids[-1] + 1
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


def negative_overlap(x: str, y: str, k: int) -> float:
    """Normalized count of x's distinct k-mers that y lacks.

    Complements :func:`overlap` exactly when x has no repeated window:
    the two then sum to 1.
    """
    (x_kmers, y_kmers), windows = _kmer_sets((x, y), k)
    return len(x_kmers - y_kmers) / windows
