"""Seed derivation: stability, dispersion, and stream independence."""

import numpy as np
import pytest

from corrclass.rng import _splitmix64, derive_seed, stream


def test_splitmix64_matches_published_first_outputs():
    # first output of the reference SplitMix64 stream for seed 0
    assert _splitmix64(0) == 0xE220A8397B1DCDAF
    assert _splitmix64(1) == 0x910A2DEC89025CC1


def test_splitmix64_stays_in_64_bits():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        value = int(rng.integers(0, 1 << 63)) * 2 + int(rng.integers(0, 2))
        assert 0 <= _splitmix64(value) < 1 << 64


def test_splitmix64_no_collisions_on_consecutive_inputs():
    outputs = {_splitmix64(i) for i in range(200_000)}
    assert len(outputs) == 200_000


def test_derive_seed_deterministic_and_order_sensitive():
    assert derive_seed(42, "family") == derive_seed(42, "family")
    assert derive_seed(42, "family") != derive_seed(42, "probes")
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(0, "a", "b") != derive_seed(0, "ab")


def test_derive_seed_frozen_anchors():
    # regression anchors: byte-identical CSV output depends on these never moving
    assert derive_seed(42, "family") == 7254590354759256842
    assert derive_seed(42, "probes") == 2084653628409753137
    assert derive_seed(0, 100, 3) == 11114672563591315195


def test_derive_seed_wraps_large_ints():
    assert derive_seed(1 << 64) == derive_seed(0)
    assert derive_seed(-1 & ((1 << 64) - 1)) == derive_seed((1 << 64) - 1)


def test_derive_seed_rejects_unsupported_part_types():
    with pytest.raises(TypeError):
        derive_seed(0, 1.5)
    with pytest.raises(TypeError):
        derive_seed(0, b"bytes")


def test_derive_seed_dispersion_over_grid():
    seen = set()
    for value in (50, 100, 150, 200, 250, 300):
        for index in range(40):
            seen.add(derive_seed(42, value, index))
    assert len(seen) == 240


def test_stream_reproducible_and_tag_separated():
    a = stream(7, "x").integers(0, 1 << 32, size=16)
    b = stream(7, "x").integers(0, 1 << 32, size=16)
    c = stream(7, "y").integers(0, 1 << 32, size=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_accepts_numpy_integers():
    value = np.int64(9)
    assert derive_seed(0, value) == derive_seed(0, 9)
