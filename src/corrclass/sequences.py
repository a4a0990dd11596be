"""Nucleotide sequences and the nonlinear matching primitives.

Sequences are plain uppercase strings over {A, C, G, T}.  The module covers
Watson-Crick complements, seeded random generation, a family of eight
engineered reference variants, the ungapped best-complementary-match kernel,
and k-mer overlap measures between equal-length sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ALPHABET",
    "ProbeSet",
    "ReferenceFamily",
    "validate_sequence",
    "complement",
    "random_sequence",
    "random_probes",
    "reference_family",
    "max_complementary_match",
    "match_matrix",
    "kmer_set",
    "overlap",
    "negative_overlap",
]

ALPHABET = "ACGT"

_COMPLEMENT_TABLE = str.maketrans("ACGT", "TGCA")
_BASE_BYTES = np.frombuffer(b"ACGT", dtype=np.uint8)
_CODE_OF_BYTE = np.full(256, 255, dtype=np.uint8)
for _index, _byte in enumerate(b"ACGT"):
    _CODE_OF_BYTE[_byte] = _index

# cap on elements of the (probes x offsets x length) scratch block
_CHUNK_ELEMENTS = 1 << 26


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


def validate_sequence(seq: str) -> None:
    """Reject non-strings, empty strings, and symbols outside {A, C, G, T}."""
    _batch((seq,))


def _decode(codes: np.ndarray) -> str:
    return bytes(_BASE_BYTES[np.asarray(codes, dtype=np.uint8)]).decode("ascii")


def complement(seq: str) -> str:
    """Positionwise Watson-Crick complement (A<->T, C<->G), no reversal."""
    validate_sequence(seq)
    return seq.translate(_COMPLEMENT_TABLE)


def random_sequence(length: int, rng: np.random.Generator) -> str:
    """Sequence of ``length`` bases drawn i.i.d. uniform from ``rng``."""
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    return _decode(rng.integers(0, 4, size=length))


@dataclass(frozen=True)
class ProbeSet:
    """Measurement sequences, all of one length."""

    probes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probes", _batch(self.probes)[0])

    @property
    def length(self) -> int:
        return len(self.probes[0])

    def __len__(self) -> int:
        return len(self.probes)

    def __iter__(self):
        return iter(self.probes)

    def __getitem__(self, index):
        return self.probes[index]


def random_probes(count: int, length: int, rng: np.random.Generator) -> ProbeSet:
    """``count`` independent uniform probes of ``length``, one batched draw."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    codes = rng.integers(0, 4, size=(count, length))
    return ProbeSet(tuple(_decode(row) for row in codes))


@dataclass(frozen=True)
class ReferenceFamily:
    """Eight engineered variants of one random anchor sequence.

    Index 0 is the anchor.  1 mutates the central base; 2 shifts left by one
    with a fresh tail base; 3 shifts then mutates; 4 exchanges the two
    halves; 5 starts with the anchor's second half and ends randomly; 6 and
    7 are fresh random sequences that share one implanted block (the
    "gene") of a third of the length, placed at opposite ends.
    """

    seqs: tuple[str, ...]
    gene_length: int

    def __post_init__(self) -> None:
        seqs, codes = _batch(self.seqs)
        object.__setattr__(self, "seqs", seqs)
        if len(seqs) != 8:
            raise ValueError(f"a reference family has exactly 8 sequences, got {len(seqs)}")
        length = codes.shape[1]
        if self.gene_length != length // 3:
            raise ValueError(
                f"gene_length must be sample_length // 3 = {length // 3}, got {self.gene_length}"
            )

    @property
    def sample_length(self) -> int:
        return len(self.seqs[0])

    def __len__(self) -> int:
        return len(self.seqs)

    def __iter__(self):
        return iter(self.seqs)

    def __getitem__(self, index):
        return self.seqs[index]


def _mutate_center(seq: str, rng: np.random.Generator) -> str:
    """Replace the middle base with a different one, chosen uniformly."""
    middle = len(seq) // 2
    options = [base for base in ALPHABET if base != seq[middle]]
    replacement = options[int(rng.integers(0, len(options)))]
    return seq[:middle] + replacement + seq[middle + 1 :]


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

    anchor = random_sequence(w, rng)
    mutated = _mutate_center(anchor, rng)
    shifted = anchor[1:] + random_sequence(1, rng)
    shifted_mutated = _mutate_center(shifted, rng)
    swapped = anchor[half:] + anchor[:half]
    half_copy = anchor[half : 2 * half] + random_sequence(w - half, rng)
    first_body = random_sequence(w, rng)
    second_body = random_sequence(w, rng)
    gene = random_sequence(gene_length, rng)
    with_gene_left = gene + first_body[gene_length:]
    with_gene_right = second_body[: w - gene_length] + gene

    return ReferenceFamily(
        seqs=(
            anchor,
            mutated,
            shifted,
            shifted_mutated,
            swapped,
            half_copy,
            with_gene_left,
            with_gene_right,
        ),
        gene_length=gene_length,
    )


def _best_matches(sample_codes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Max positionwise hits of each target row over all sample windows.

    ``targets`` holds complemented probe codes, one row per probe.  Work is
    chunked over probes so the scratch block stays within _CHUNK_ELEMENTS.
    """
    length = targets.shape[1]
    windows = sliding_window_view(sample_codes, length)
    n_offsets = windows.shape[0]
    best = np.empty(targets.shape[0], dtype=np.int64)
    step = max(1, _CHUNK_ELEMENTS // max(1, n_offsets * length))
    for start in range(0, targets.shape[0], step):
        block = targets[start : start + step]
        hits = (windows[np.newaxis, :, :] == block[:, np.newaxis, :]).sum(axis=2)
        best[start : start + block.shape[0]] = hits.max(axis=1)
    return best


def max_complementary_match(sample: str, probe: str) -> int:
    """Best ungapped complementary score of ``probe`` against ``sample``.

    Slides the probe over every in-bounds offset (no overhangs) and counts
    positions where the sample base is the Watson-Crick complement of the
    probe base; returns the maximum count, between 0 and the probe length.
    """
    return int(match_matrix((sample,), (probe,))[0, 0])


def match_matrix(samples, probes) -> np.ndarray:
    """Best complementary match of every sample against every probe.

    Entry (i, k) equals ``max_complementary_match(samples[i], probes[k])``;
    the scan over probes and offsets is vectorized but agrees exactly with
    the per-pair definition.
    """
    sample_codes = _batch(samples)[1]
    probe_codes = _batch(probes)[1]
    sample_length, probe_length = sample_codes.shape[1], probe_codes.shape[1]
    if probe_length > sample_length:
        raise ValueError(f"probe length {probe_length} exceeds sample length {sample_length}")
    # complement in code space: A=0 <-> T=3, C=1 <-> G=2
    targets = 3 - probe_codes
    return np.stack([_best_matches(codes, targets) for codes in sample_codes])


def _kmer_sets(seqs, k: int) -> tuple[list[set[str]], int]:
    """Distinct length-``k`` windows of each equal-length sequence, and the
    number of windows per sequence, ``length - k + 1``."""
    seqs, codes = _batch(seqs)
    length = codes.shape[1]
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > length:
        raise ValueError(f"k-mer length {k} exceeds sequence length {length}")
    windows = length - k + 1
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


def negative_overlap(x: str, y: str, k: int) -> float:
    """Normalized count of x's distinct k-mers that y lacks.

    Complements :func:`overlap` exactly when x has no repeated window:
    the two then sum to 1.
    """
    (x_kmers, y_kmers), windows = _kmer_sets((x, y), k)
    return len(x_kmers - y_kmers) / windows
