"""Deterministic stream seeding.

Every stochastic quantity in the library draws from a PCG64 generator whose
seed is derived by hashing a base seed together with a purpose tag and any
relevant indices.  Derivation uses the SplitMix64 finalizer, a fixed published
64-bit mixing function, so derived seeds are identical across platforms and
independent of the order in which streams are consumed.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1

__all__ = ["derive_seed", "stream"]


def _splitmix64(value: int) -> int:
    """One SplitMix64 step: increment by the golden-gamma, then finalize."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=64)
def _tag_u64(tag: str) -> int:
    # blake2b keeps string tags stable across platforms and sessions; every
    # sweep cell hashes the same few tags, so each is hashed once
    return int.from_bytes(hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "little")


def _as_u64(part: int | str) -> int:
    if isinstance(part, str):
        return _tag_u64(part)
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")


def _check_seed(value) -> int:
    """``value`` as a base seed: an integer in [0, 2**64), the range it hashes as."""
    if not isinstance(value, (int, np.integer)) or not 0 <= value <= _MASK64:
        raise ValueError(f"base_seed must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def derive_seed(base_seed: int, *parts: int | str) -> int:
    """Hash ``(base_seed, *parts)`` into one 64-bit stream seed."""
    state = _splitmix64(_as_u64(base_seed))
    for part in parts:
        state = _splitmix64(state ^ _as_u64(part))
    return state


def stream(base_seed: int, *parts: int | str) -> np.random.Generator:
    """Independent named random stream for ``(base_seed, *parts)``."""
    return np.random.Generator(np.random.PCG64(derive_seed(base_seed, *parts)))
